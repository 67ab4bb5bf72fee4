//! Multi-replica serving router: fans a mixed, multi-tenant request stream
//! across N replica [`ServingEngine`]s (the "millions of users" axis of the
//! roadmap — one queue per replica, one router in front).
//!
//! ## Architecture
//!
//! ```text
//!  submit(tenant, input)
//!        │
//!        ▼
//!  per-tenant quota gate ──over──► RouteError::QuotaExceeded (quota shed)
//!        │
//!        ▼
//!  dispatch policy ── consistent-hash on the input fingerprint, or
//!        │            least-loaded by replica queue depth
//!        ▼
//!  replica k: ServingEngine::submit ──full──► RouteError::Overloaded
//!        │                                    (capacity shed)
//!        ▼
//!  tick/drain fan out to every replica; responses are collected back in
//!  replica order and re-keyed to router-global request ids
//! ```
//!
//! ## Determinism with replicated clocks
//!
//! All replicas read the *same* injected [`Clock`]: the deterministic
//! [`Router::run`] driver owns one [`VirtualClock`], advances it
//! single-threadedly between ticks, and every engine observes identical
//! timestamps. Dispatch is a pure function of router state — the
//! consistent-hash policy of the input bits alone, the least-loaded policy
//! of replica queue depths with a fixed lowest-index tie-break — and ticks
//! visit replicas in index order, so a replay of the same stream is
//! bit-for-bit reproducible (asserted by `tests/router_properties.rs` and
//! re-asserted by the serving bench before it times anything). With one
//! replica and no quota the router degenerates exactly to the bare engine:
//! responses *and* telemetry are bitwise identical to
//! [`ServingEngine::run`]. `Router::run` is a seeded `taglets-lint` TL007
//! root and a TL014–TL016 hot-path root, so wall-clock reads and unwaived
//! allocations anywhere below it fail CI.
//!
//! ## Quota semantics
//!
//! A tenant's quota bounds its *outstanding* requests — admitted to a
//! replica queue but not yet answered — across the whole router. A submit
//! that finds the tenant at quota is shed *before* dispatch and counted as
//! `quota_shed`; a submit that passes the gate but finds the chosen
//! replica's queue full is counted as `capacity_shed`. The two are
//! accounted separately, per tenant and in aggregate, because they mean
//! different things operationally: quota shed is the router protecting
//! other tenants from a flood, capacity shed is the fleet being too small.
//! When every tenant's quota fits in the fleet's aggregate queue capacity
//! (`sum of quotas <= replicas * queue_cap`), a within-quota tenant can
//! never be capacity-shed by another tenant's flood — the isolation
//! property pinned by `tests/router_properties.rs`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::servable::ServableModel;
use crate::serve::{
    Clock, LatencyHistogram, ServeConfig, ServeError, ServeTelemetry, ServingEngine, VirtualClock,
};

/// Tenant identifier carried by every routed request. Plain integers, so
/// traffic tapes stay compact and deterministic.
pub type TenantId = u32;

/// Hard ceiling on [`RouteConfig::replicas`], so a corrupt config cannot
/// pre-size per-replica state absurdly.
pub const MAX_REPLICAS: usize = 64;

/// How the router picks a replica for an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Hash the input's exact bits and take it modulo the replica count:
    /// the same row always lands on the same replica (cache affinity — a
    /// repeated request hits that replica's LRU), and the mapping is stable
    /// across runs by construction.
    #[default]
    ConsistentHash,
    /// Send the request to the replica with the shallowest admission queue
    /// (ties break to the lowest index, so dispatch stays deterministic).
    /// Better tail latency under skewed load; no cache affinity.
    LeastLoaded,
}

impl DispatchPolicy {
    /// Stable lower-case label used by reports and bench records.
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::ConsistentHash => "consistent-hash",
            DispatchPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// Tuning knobs of a [`Router`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteConfig {
    /// Number of replica engines to fan out across
    /// (`1..=`[`MAX_REPLICAS`]).
    pub replicas: usize,
    /// Replica selection policy for admitted requests.
    pub policy: DispatchPolicy,
    /// Per-tenant bound on outstanding (admitted, unanswered) requests
    /// across all replicas; `None` disables the quota gate. Must be ≥ 1
    /// when set.
    pub tenant_quota: Option<usize>,
    /// Configuration applied to every replica engine (batching, deadline,
    /// queue bound, cache, concurrency).
    pub serve: ServeConfig,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            replicas: 2,
            policy: DispatchPolicy::ConsistentHash,
            tenant_quota: None,
            serve: ServeConfig::default(),
        }
    }
}

/// Errors surfaced by the router.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The configuration is unusable (zero replicas, zero quota, or an
    /// invalid per-replica [`ServeConfig`]).
    InvalidConfig(&'static str),
    /// The tenant is at its outstanding-request quota; the request was shed
    /// before dispatch (quota shed).
    QuotaExceeded {
        /// The tenant that was throttled.
        tenant: TenantId,
        /// The configured outstanding-request bound it hit.
        quota: usize,
    },
    /// The dispatched replica's admission queue is full; the request was
    /// shed (capacity shed).
    Overloaded {
        /// Replica whose queue was full.
        replica: usize,
        /// That replica's configured admission bound.
        queue_cap: usize,
    },
    /// The request's feature width does not match the model.
    InputDim {
        /// Width the model expects.
        expected: usize,
        /// Width the request carried.
        got: usize,
    },
    /// The request holds a NaN or infinite feature; it was refused before
    /// any cache or queue (rejected, not admitted).
    NonFinite {
        /// Position of the first non-finite feature.
        index: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::InvalidConfig(what) => write!(f, "invalid route config: {what}"),
            RouteError::QuotaExceeded { tenant, quota } => {
                write!(
                    f,
                    "tenant {tenant} at quota ({quota} outstanding); request shed"
                )
            }
            RouteError::Overloaded { replica, queue_cap } => {
                write!(
                    f,
                    "replica {replica} queue full ({queue_cap}); request shed"
                )
            }
            RouteError::InputDim { expected, got } => {
                write!(f, "input width {got} does not match model width {expected}")
            }
            RouteError::NonFinite { index } => {
                write!(f, "input feature {index} is NaN or infinite")
            }
        }
    }
}

impl Error for RouteError {}

/// A request with an explicit virtual arrival time and an owning tenant,
/// replayed by [`Router::run`]. The routed analogue of
/// [`crate::serve::TimedRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedRequest {
    /// Virtual arrival time in nanoseconds (non-decreasing streams replay
    /// exactly; an out-of-order time is clamped to the current clock).
    pub at_nanos: u64,
    /// Tenant the request belongs to (quota accounting key).
    pub tenant: TenantId,
    /// Feature row; width must equal the model's input dimension.
    pub input: Vec<f32>,
}

impl RoutedRequest {
    /// A request from `tenant` arriving at `at_nanos` carrying `input`.
    pub fn new(at_nanos: u64, tenant: TenantId, input: Vec<f32>) -> Self {
        RoutedRequest {
            at_nanos,
            tenant,
            input,
        }
    }
}

/// One answered routed request: the replica's response re-keyed to the
/// router-global id, annotated with where it ran and who owns it.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResponse {
    /// Router-global id (under [`Router::run`], the stream index).
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: TenantId,
    /// Replica that answered.
    pub replica: usize,
    /// Class-probability row (sums to 1).
    pub probs: Vec<f32>,
    /// Argmax class.
    pub predicted: usize,
    /// Clock nanoseconds between admission and response.
    pub latency_nanos: u64,
    /// Rows in the batch that answered this request (`0` for cache hits).
    pub batch_size: usize,
    /// Whether the replica's prediction cache answered without a forward
    /// pass.
    pub cache_hit: bool,
}

/// Per-tenant routing counters (one row of
/// [`RouteTelemetry::tenants`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantTelemetry {
    /// Submit calls by this tenant, including shed and malformed ones.
    pub submitted: u64,
    /// Responses produced for this tenant.
    pub answered: u64,
    /// Requests shed at the quota gate (before dispatch).
    pub quota_shed: u64,
    /// Requests shed by a full replica queue (after dispatch).
    pub capacity_shed: u64,
    /// Requests refused for a malformed feature row.
    pub rejected: u64,
}

/// Everything the router records about *how* it routed: per-replica engine
/// telemetry (latency histograms included), the dispatch distribution, the
/// quota-vs-capacity shed split, and per-tenant accounting. Attached to
/// [`crate::RunTelemetry::route`] when a run's end model is exercised
/// through a router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTelemetry {
    /// The dispatch policy the router ran.
    pub policy: DispatchPolicy,
    /// Per-replica serving telemetry, in replica order.
    pub replicas: Vec<ServeTelemetry>,
    /// `dispatched[k]` = requests admitted by replica `k` (cache hits
    /// included) — the dispatch distribution.
    pub dispatched: Vec<u64>,
    /// Requests shed at the per-tenant quota gate, before dispatch.
    pub quota_shed: u64,
    /// Requests shed by a full replica admission queue, after dispatch.
    pub capacity_shed: u64,
    /// Requests refused for a malformed feature row.
    pub rejected: u64,
    /// Per-tenant counters, keyed by tenant id (sorted iteration —
    /// renderings stay deterministic).
    pub tenants: BTreeMap<TenantId, TenantTelemetry>,
}

impl RouteTelemetry {
    /// Submit calls across every tenant, including shed and malformed ones.
    pub fn submitted(&self) -> u64 {
        self.tenants.values().map(|t| t.submitted).sum()
    }

    /// Responses produced across every replica.
    pub fn answered(&self) -> u64 {
        self.tenants.values().map(|t| t.answered).sum()
    }

    /// Total shed requests (quota + capacity).
    pub fn shed(&self) -> u64 {
        self.quota_shed + self.capacity_shed
    }

    /// Shed fraction of submitted in `[0, 1]` (`0` before any submit).
    pub fn shed_rate(&self) -> f64 {
        let submitted = self.submitted();
        if submitted == 0 {
            0.0
        } else {
            self.shed() as f64 / submitted as f64
        }
    }

    /// The cross-replica latency histogram: every replica's observations
    /// merged into one distribution (the fleet-wide p50/p99 source).
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for replica in &self.replicas {
            merged.absorb(&replica.latency);
        }
        merged
    }

    /// Largest `dispatched[k]` divided by the mean — `1.0` is a perfectly
    /// even spread, higher means the policy concentrated load (`0` before
    /// any dispatch).
    pub fn dispatch_imbalance(&self) -> f64 {
        let total: u64 = self.dispatched.iter().sum();
        if total == 0 || self.dispatched.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.dispatched.len() as f64;
        let max = self.dispatched.iter().copied().max().unwrap_or(0);
        max as f64 / mean
    }
}

/// Result of a [`Router::run`] replay: one slot per stream entry (`None` =
/// shed, at the quota gate or by a full replica queue) plus the router's
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRun {
    /// Per-request outcomes, indexed like the input stream.
    pub responses: Vec<Option<RouteResponse>>,
    /// The router's telemetry after the final drain.
    pub telemetry: RouteTelemetry,
}

/// FNV-style hash of a feature row's exact bit pattern. Unlike the
/// prediction-cache key this is *not* quantized: consistent-hash stability
/// ("same input → same replica, every run") must be an exact function of
/// the input bits.
fn input_fingerprint(row: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in row {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // FNV's low bits diffuse poorly (the multiply never carries high bits
    // down) and dispatch reduces this hash `% replicas`, so without a final
    // mix a row of repeated identical values always lands on one replica.
    // The splitmix64 finalizer folds the high bits in.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

/// Fans a multi-tenant request stream across N replica
/// [`ServingEngine`]s with a pluggable dispatch policy and per-tenant
/// admission quotas.
///
/// Single-threaded control loop, parallel batch execution *inside* each
/// replica: callers drive `submit`/`tick`/`drain` from one thread, replicas
/// are visited in index order, and each replica's tick dispatches its cut
/// batches across its own executor. See the module docs for the dispatch /
/// quota / determinism picture.
pub struct Router<'a> {
    engines: Vec<ServingEngine<'a>>,
    policy: DispatchPolicy,
    tenant_quota: Option<usize>,
    next_id: u64,
    /// Per-replica map from the replica's engine-local response id to the
    /// router-global id and owning tenant.
    inflight: Vec<BTreeMap<u64, (u64, TenantId)>>,
    /// Per-tenant outstanding (admitted, unanswered) request counts — the
    /// quota gate's ledger.
    outstanding: BTreeMap<TenantId, usize>,
    dispatched: Vec<u64>,
    quota_shed: u64,
    capacity_shed: u64,
    rejected: u64,
    tenants: BTreeMap<TenantId, TenantTelemetry>,
    ready: Vec<RouteResponse>,
}

impl<'a> fmt::Debug for Router<'a> {
    // lint: root(hot)
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Router {{ replicas: {}, policy: {}, queued: {}, ready: {} }}",
            self.engines.len(),
            self.policy.name(),
            self.total_load(),
            self.ready.len()
        )
    }
}

impl<'a> Router<'a> {
    /// Builds a router over `config.replicas` fresh engines serving
    /// `model`, all reading time from the same `clock`.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidConfig`] when `replicas` is `0` or larger than
    /// [`MAX_REPLICAS`], `tenant_quota` is `Some(0)`, or the per-replica
    /// [`ServeConfig`] is itself invalid.
    pub fn new(
        model: &'a ServableModel,
        config: RouteConfig,
        clock: &'a dyn Clock,
    ) -> Result<Self, RouteError> {
        if config.replicas == 0 {
            return Err(RouteError::InvalidConfig("replicas must be >= 1"));
        }
        if config.replicas > MAX_REPLICAS {
            return Err(RouteError::InvalidConfig("replicas exceeds MAX_REPLICAS"));
        }
        if config.tenant_quota == Some(0) {
            return Err(RouteError::InvalidConfig(
                "tenant_quota must be >= 1 when set",
            ));
        }
        let mut engines = Vec::with_capacity(config.replicas);
        for _ in 0..config.replicas {
            let engine =
                ServingEngine::new(model, config.serve.clone(), clock).map_err(|e| match e {
                    ServeError::InvalidConfig(what) => RouteError::InvalidConfig(what),
                    _ => RouteError::InvalidConfig("replica construction failed"),
                })?;
            engines.push(engine);
        }
        Ok(Router {
            inflight: vec![BTreeMap::new(); config.replicas],
            dispatched: vec![0; config.replicas],
            engines,
            policy: config.policy,
            tenant_quota: config.tenant_quota,
            next_id: 0,
            outstanding: BTreeMap::new(),
            quota_shed: 0,
            capacity_shed: 0,
            rejected: 0,
            tenants: BTreeMap::new(),
            ready: Vec::new(),
        })
    }

    /// Number of replica engines behind the router.
    // lint: root(hot)
    pub fn replica_count(&self) -> usize {
        self.engines.len()
    }

    /// Queue depth of each replica, in replica order (the least-loaded
    /// policy's input).
    // lint: root(hot)
    pub fn loads(&self) -> Vec<usize> {
        // lint: alloc(introspection snapshot owned by the caller)
        self.engines.iter().map(|e| e.pending_len()).collect()
    }

    /// Requests admitted but not yet executed, summed across replicas.
    // lint: root(hot)
    pub fn total_load(&self) -> usize {
        self.engines.iter().map(|e| e.pending_len()).sum()
    }

    /// A tenant's outstanding (admitted, unanswered) request count.
    // lint: root(hot)
    pub fn outstanding(&self, tenant: TenantId) -> usize {
        self.outstanding.get(&tenant).copied().unwrap_or(0)
    }

    /// The replica the current policy would pick for `input` right now.
    /// Pure function of router state: the hash policy reads only the input
    /// bits, the least-loaded policy reads queue depths with a fixed
    /// lowest-index tie-break.
    // lint: root(hot)
    pub fn dispatch(&self, input: &[f32]) -> usize {
        match self.policy {
            DispatchPolicy::ConsistentHash => {
                // lint: panicfree(replicas >= 1 validated in new, so the modulo divisor is nonzero)
                (input_fingerprint(input) % self.engines.len() as u64) as usize
            }
            DispatchPolicy::LeastLoaded => {
                let mut best = 0usize;
                let mut best_load = usize::MAX;
                for (k, engine) in self.engines.iter().enumerate() {
                    let load = engine.pending_len();
                    if load < best_load {
                        best = k;
                        best_load = load;
                    }
                }
                best
            }
        }
    }

    /// Submits one request for `tenant`. The quota gate runs first, then
    /// the dispatch policy picks a replica and the request takes that
    /// engine's normal admission path (cache probe, bounded queue). Every
    /// call consumes one router-global id, returned on success.
    ///
    /// # Errors
    ///
    /// [`RouteError::QuotaExceeded`] when the tenant is at quota (quota
    /// shed, before dispatch), [`RouteError::Overloaded`] when the chosen
    /// replica's queue is full (capacity shed), [`RouteError::InputDim`]
    /// or [`RouteError::NonFinite`] for a malformed row (rejected, not
    /// admitted).
    // lint: root(hot)
    pub fn submit(&mut self, tenant: TenantId, input: Vec<f32>) -> Result<u64, RouteError> {
        let id = self.next_id;
        self.next_id += 1;
        // lint: alloc(first submit of a tenant materializes its counter row)
        self.tenants.entry(tenant).or_default().submitted += 1;

        if let Some(quota) = self.tenant_quota {
            if self.outstanding(tenant) >= quota {
                self.quota_shed += 1;
                if let Some(t) = self.tenants.get_mut(&tenant) {
                    t.quota_shed += 1;
                }
                return Err(RouteError::QuotaExceeded { tenant, quota });
            }
        }

        let replica = self.dispatch(&input);
        // lint: panicfree(dispatch returns an index < engines.len() by construction)
        let result = self.engines[replica].submit(input);
        match result {
            Ok(engine_id) => {
                // lint: panicfree(dispatched/inflight are sized to engines.len() in new)
                self.dispatched[replica] += 1;
                // lint: alloc(in-flight bookkeeping owns one map node per admitted request), panicfree(inflight is sized to engines.len() in new)
                self.inflight[replica].insert(engine_id, (id, tenant));
                // lint: alloc(first admitted request of a tenant materializes its ledger row)
                *self.outstanding.entry(tenant).or_insert(0) += 1;
                // An immediate cache hit is already in the replica's ready
                // list; collect it now so quotas track live depth, not
                // already-answered work.
                self.harvest(replica);
                Ok(id)
            }
            Err(ServeError::Overloaded { queue_cap }) => {
                self.capacity_shed += 1;
                if let Some(t) = self.tenants.get_mut(&tenant) {
                    t.capacity_shed += 1;
                }
                Err(RouteError::Overloaded { replica, queue_cap })
            }
            Err(ServeError::InputDim { expected, got }) => {
                Err(self.reject(tenant, RouteError::InputDim { expected, got }))
            }
            Err(ServeError::NonFinite { index }) => {
                Err(self.reject(tenant, RouteError::NonFinite { index }))
            }
            Err(ServeError::InvalidConfig(what)) => Err(RouteError::InvalidConfig(what)),
        }
    }

    /// Counts a malformed request as rejected, router-wide and for its
    /// tenant, and hands back the error to return.
    // lint: root(hot)
    fn reject(&mut self, tenant: TenantId, err: RouteError) -> RouteError {
        self.rejected += 1;
        if let Some(t) = self.tenants.get_mut(&tenant) {
            t.rejected += 1;
        }
        err
    }

    /// The earliest deadline-flush time across replicas, if any request is
    /// waiting anywhere.
    // lint: root(hot)
    pub fn next_deadline(&self) -> Option<u64> {
        self.engines.iter().filter_map(|e| e.next_deadline()).min()
    }

    /// Advances every replica's batcher (index order) and collects the
    /// responses they produced.
    // lint: root(hot)
    pub fn tick(&mut self) {
        for engine in &mut self.engines {
            engine.tick();
        }
        self.harvest_all();
    }

    /// Flushes everything still queued on every replica, regardless of
    /// deadlines — the shutdown path, so no admitted request is ever lost.
    // lint: root(hot)
    pub fn drain(&mut self) {
        for engine in &mut self.engines {
            engine.drain();
        }
        self.harvest_all();
    }

    /// Responses completed since the last call, in collection order
    /// (replicas in index order, within a replica in that engine's
    /// deterministic completion order).
    // lint: root(hot)
    pub fn take_responses(&mut self) -> Vec<RouteResponse> {
        std::mem::take(&mut self.ready)
    }

    /// Consumes the router, returning its merged telemetry.
    // lint: root(hot)
    pub fn into_telemetry(self) -> RouteTelemetry {
        RouteTelemetry {
            policy: self.policy,
            replicas: self
                .engines
                .into_iter()
                .map(|e| e.into_telemetry())
                .collect(), // lint: alloc(one-time finalization owns the telemetry)
            dispatched: self.dispatched,
            quota_shed: self.quota_shed,
            capacity_shed: self.capacity_shed,
            rejected: self.rejected,
            tenants: self.tenants,
        }
    }

    /// Moves one replica's finished responses into the router's ready list,
    /// re-keyed to global ids, and settles the quota ledger.
    // lint: root(hot)
    fn harvest(&mut self, replica: usize) {
        // lint: panicfree(callers pass a replica index < engines.len())
        let responses = self.engines[replica].take_responses();
        for r in responses {
            // lint: panicfree(inflight is sized to engines.len() in new)
            let Some((id, tenant)) = self.inflight[replica].remove(&r.id) else {
                // A response the router never admitted cannot exist; skip
                // rather than corrupt the ledger.
                continue;
            };
            if let Some(used) = self.outstanding.get_mut(&tenant) {
                *used = used.saturating_sub(1);
            }
            if let Some(t) = self.tenants.get_mut(&tenant) {
                t.answered += 1;
            }
            // lint: alloc(one answered-response record per request)
            self.ready.push(RouteResponse {
                id,
                tenant,
                replica,
                probs: r.probs,
                predicted: r.predicted,
                latency_nanos: r.latency_nanos,
                batch_size: r.batch_size,
                cache_hit: r.cache_hit,
            });
        }
    }

    // lint: root(hot)
    fn harvest_all(&mut self) {
        for replica in 0..self.engines.len() {
            self.harvest(replica);
        }
    }

    /// Deterministically replays a timed, multi-tenant request stream
    /// against a fresh router and [`VirtualClock`]: the clock advances to
    /// each arrival (processing any replica's deadline flush at its exact
    /// due time first), every replica ticks once per distinct timestamp,
    /// and a final drain answers every admitted request. With one replica
    /// and no quota this is bitwise identical to [`ServingEngine::run`] on
    /// the same stream. Seeded as a `taglets-lint` TL007 root: the whole
    /// reachable route path must stay free of wall-clock reads.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidConfig`] from router construction,
    /// [`RouteError::InputDim`] or [`RouteError::NonFinite`] for a
    /// malformed row. Shedding is *not* an error here: quota- or
    /// capacity-shed requests leave a `None` slot.
    // lint: root(determinism, hot)
    pub fn run(
        model: &ServableModel,
        config: RouteConfig,
        stream: &[RoutedRequest],
    ) -> Result<RouteRun, RouteError> {
        let clock = VirtualClock::new();
        let mut router = Router::new(model, config, &clock)?;
        let mut last_time: Option<u64> = None;
        for req in stream {
            let target = req.at_nanos.max(clock.now_nanos());
            if last_time != Some(target) {
                // Fire any replica deadline that falls strictly before the
                // new arrival at its exact due time, so deadline latencies
                // are measured at the deadline, not at the next arrival.
                while let Some(due) = router.next_deadline() {
                    if due >= target {
                        break;
                    }
                    clock.set_at_least(due);
                    router.tick();
                }
                clock.set_at_least(target);
                router.tick();
                last_time = Some(target);
            }
            // lint: alloc(the replica takes an owned input; the stream is kept for the report)
            match router.submit(req.tenant, req.input.clone()) {
                Ok(_)
                | Err(RouteError::QuotaExceeded { .. })
                | Err(RouteError::Overloaded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(due) = router.next_deadline() {
            clock.set_at_least(due);
        }
        router.drain();

        // lint: alloc(one slot table per replay run)
        let mut responses: Vec<Option<RouteResponse>> = vec![None; stream.len()];
        for r in router.take_responses() {
            let slot = r.id as usize;
            if let Some(cell) = responses.get_mut(slot) {
                *cell = Some(r);
            }
        }
        Ok(RouteRun {
            responses,
            telemetry: router.into_telemetry(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use taglets_nn::Classifier;
    use taglets_tensor::Tensor;

    const DIM: usize = 4;

    fn model() -> ServableModel {
        let mut rng = StdRng::seed_from_u64(42);
        ServableModel::new(Classifier::from_dims(&[DIM, 8], 3, 0.0, &mut rng))
    }

    fn rows(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::randn(&[1, DIM], 1.0, &mut rng).into_vec())
            .collect()
    }

    fn config(replicas: usize, policy: DispatchPolicy, quota: Option<usize>) -> RouteConfig {
        RouteConfig {
            replicas,
            policy,
            tenant_quota: quota,
            serve: ServeConfig {
                max_batch: 4,
                max_delay_nanos: 100,
                queue_cap: 8,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let m = model();
        let clock = VirtualClock::new();
        for cfg in [
            config(0, DispatchPolicy::ConsistentHash, None),
            config(MAX_REPLICAS + 1, DispatchPolicy::ConsistentHash, None),
            config(2, DispatchPolicy::ConsistentHash, Some(0)),
            RouteConfig {
                serve: ServeConfig {
                    max_batch: 0,
                    ..ServeConfig::default()
                },
                ..RouteConfig::default()
            },
        ] {
            assert!(matches!(
                Router::new(&m, cfg, &clock),
                Err(RouteError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn consistent_hash_sends_equal_inputs_to_one_replica() {
        let m = model();
        let clock = VirtualClock::new();
        let router = Router::new(&m, config(4, DispatchPolicy::ConsistentHash, None), &clock)
            .expect("valid config");
        for input in rows(16, 7) {
            let first = router.dispatch(&input);
            assert!(first < 4);
            assert_eq!(
                first,
                router.dispatch(&input),
                "dispatch is a pure function"
            );
        }
    }

    #[test]
    fn least_loaded_prefers_the_shallowest_queue_with_index_tie_break() {
        let m = model();
        let clock = VirtualClock::new();
        let mut router = Router::new(&m, config(3, DispatchPolicy::LeastLoaded, None), &clock)
            .expect("valid config");
        let inputs = rows(4, 9);
        // Empty queues tie → replica 0.
        assert_eq!(router.dispatch(&inputs[0]), 0);
        router.submit(0, inputs[0].clone()).expect("admitted");
        assert_eq!(router.loads(), vec![1, 0, 0]);
        // 1 and 2 tie at depth 0 → replica 1.
        assert_eq!(router.dispatch(&inputs[1]), 1);
        router.submit(0, inputs[1].clone()).expect("admitted");
        router.submit(0, inputs[2].clone()).expect("admitted");
        assert_eq!(router.loads(), vec![1, 1, 1]);
        assert_eq!(router.total_load(), 3);
    }

    #[test]
    fn quota_gate_sheds_before_dispatch_and_releases_on_answer() {
        let m = model();
        let clock = VirtualClock::new();
        let mut router = Router::new(&m, config(2, DispatchPolicy::LeastLoaded, Some(2)), &clock)
            .expect("valid config");
        let inputs = rows(3, 11);
        router.submit(5, inputs[0].clone()).expect("under quota");
        router.submit(5, inputs[1].clone()).expect("under quota");
        assert_eq!(router.outstanding(5), 2);
        assert!(matches!(
            router.submit(5, inputs[2].clone()),
            Err(RouteError::QuotaExceeded {
                tenant: 5,
                quota: 2
            })
        ));
        router.drain();
        assert_eq!(router.outstanding(5), 0);
        router.submit(5, inputs[2].clone()).expect("quota released");
        router.drain();
        let t = router.into_telemetry();
        assert_eq!(t.quota_shed, 1);
        assert_eq!(t.capacity_shed, 0);
        let tenant = t.tenants.get(&5).expect("tenant row");
        assert_eq!(tenant.submitted, 4);
        assert_eq!(tenant.answered, 3);
        assert_eq!(tenant.quota_shed, 1);
    }

    #[test]
    fn run_replays_a_multi_tenant_stream_deterministically() {
        let m = model();
        let stream: Vec<RoutedRequest> = rows(24, 13)
            .into_iter()
            .enumerate()
            .map(|(i, input)| RoutedRequest::new(i as u64 * 40, (i % 3) as TenantId, input))
            .collect();
        let cfg = config(3, DispatchPolicy::ConsistentHash, Some(4));
        let a = Router::run(&m, cfg.clone(), &stream).expect("replay succeeds");
        let b = Router::run(&m, cfg, &stream).expect("replay succeeds");
        assert_eq!(a, b, "replay is fully deterministic");
        let t = &a.telemetry;
        assert_eq!(t.submitted(), 24);
        assert_eq!(t.answered() + t.shed(), t.submitted());
        assert_eq!(t.dispatched.len(), 3);
        assert_eq!(
            t.dispatched.iter().sum::<u64>(),
            t.answered(),
            "every dispatched request is answered once the run drains"
        );
        assert_eq!(t.merged_latency().total(), t.answered());
    }

    #[test]
    fn telemetry_rates_are_well_defined_when_empty() {
        let t = RouteTelemetry {
            policy: DispatchPolicy::ConsistentHash,
            replicas: Vec::new(),
            dispatched: Vec::new(),
            quota_shed: 0,
            capacity_shed: 0,
            rejected: 0,
            tenants: BTreeMap::new(),
        };
        assert_eq!(t.submitted(), 0);
        assert_eq!(t.shed_rate(), 0.0);
        assert_eq!(t.dispatch_imbalance(), 0.0);
        assert_eq!(t.merged_latency().total(), 0);
    }

    #[test]
    fn malformed_rows_are_rejected_and_counted() {
        let m = model();
        let clock = VirtualClock::new();
        let mut router = Router::new(&m, config(2, DispatchPolicy::ConsistentHash, None), &clock)
            .expect("valid config");
        assert!(matches!(
            router.submit(1, vec![0.0; DIM + 3]),
            Err(RouteError::InputDim {
                expected: DIM,
                got: 7
            })
        ));
        assert_eq!(
            router.submit(2, vec![f32::NAN; DIM]),
            Err(RouteError::NonFinite { index: 0 })
        );
        let t = router.into_telemetry();
        assert_eq!(t.rejected, 2);
        assert_eq!(t.tenants.get(&1).map(|t| t.rejected), Some(1));
        assert_eq!(t.tenants.get(&2).map(|t| t.rejected), Some(1));
        assert_eq!(t.submitted(), 2);
    }
}
