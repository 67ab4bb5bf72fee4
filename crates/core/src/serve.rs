//! The serving engine: micro-batched, cached, backpressured inference over
//! a [`ServableModel`] (design principle 3: the distilled model exists to be
//! *served*).
//!
//! ## Architecture
//!
//! ```text
//!  submit ──► cache probe ──hit──► ready (latency ≈ 0)
//!               │ miss
//!               ▼
//!        bounded admission queue ──full──► ServeError::Overloaded (shed)
//!               │
//!  tick ──► batcher: cut full batches (max_batch) or the deadline
//!           remainder (max_delay elapsed for the oldest request)
//!               │
//!               ▼
//!        forward pass per cut batch on the calling thread,
//!        batches in cut order, rows in arrival order
//!               │
//!               ▼
//!        responses + cache fill + ServeTelemetry
//! ```
//!
//! ## Determinism
//!
//! Batched, cached inference is **bitwise identical** to calling
//! [`ServableModel::predict_proba`] once per request. Two facts compose:
//!
//! 1. the batched path and `predict_proba` run the same tape-free
//!    forward on the same pre-packed weights, and
//! 2. every forward op is row-independent, so a row's output does not
//!    depend on which batch it rides in or what the reused scratch held
//!    before.
//!
//! The cache preserves this exactly: an entry is only returned after a
//! *bitwise* input comparison, so a hit replays precisely the bytes a
//! forward pass would have produced. Time never enters library code —
//! the engine reads an injected [`Clock`], and the deterministic
//! [`ServingEngine::run`] driver replays a timed request stream against a
//! [`VirtualClock`]. Clippy's `disallowed_methods` rejects a wall-clock
//! read anywhere in library code, so none can reach the serve path.
//!
//! ## Backpressure
//!
//! Admission is bounded by `queue_cap`: a submit that finds the queue full
//! returns [`ServeError::Overloaded`] immediately — the request is *shed*,
//! counted in telemetry, and never silently dropped or buffered without
//! bound. Callers decide whether to retry, degrade, or propagate.

#[expect(
    clippy::disallowed_types,
    reason = "VirtualClock's replay time is the crate's one Cell"
)]
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use taglets_nn::InferScratch;
use taglets_tensor::{argmax_slice, Tensor};

use crate::servable::ServableModel;

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// A monotonic time source, injected so library code never touches the
/// wall clock (`clippy.toml` disallows `Instant::now`).
///
/// Implementations must be monotonic: successive calls never go backwards.
pub trait Clock {
    /// Nanoseconds since an arbitrary, fixed origin.
    fn now_nanos(&self) -> u64;
}

/// A manually advanced clock for deterministic tests and the
/// [`ServingEngine::run`] replay driver. One "tick" is one nanosecond of
/// virtual time.
#[derive(Debug, Default)]
pub struct VirtualClock {
    #[expect(
        clippy::disallowed_types,
        reason = "Cell makes VirtualClock !Sync, so the replay clock can never be shared across workers; time advances single-threaded in the run loop"
    )]
    now: Cell<u64>,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances to `t` (no-op when `t` is in the past — virtual time is
    /// monotonic by construction).
    pub fn set_at_least(&self, t: u64) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }

    /// Advances by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.now.set(self.now.get().saturating_add(delta));
    }
}

impl Clock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        self.now.get()
    }
}

// ---------------------------------------------------------------------
// Config and errors
// ---------------------------------------------------------------------

/// Tuning knobs of a [`ServingEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Rows per executed batch; a tick cuts every full `max_batch` chunk
    /// from the queue. Must be in `1..=MAX_BATCH_LIMIT`.
    pub max_batch: usize,
    /// Deadline in clock nanoseconds: once the oldest queued request has
    /// waited this long, the next tick flushes a partial batch rather than
    /// keep it waiting for `max_batch` peers.
    pub max_delay_nanos: u64,
    /// Admission bound: a submit that finds this many requests already
    /// queued is shed with [`ServeError::Overloaded`]. Must be ≥ 1.
    pub queue_cap: usize,
    /// Prediction-cache entries to retain (LRU); `0` disables caching.
    pub cache_capacity: usize,
}

/// Hard ceiling on [`ServeConfig::max_batch`], so a corrupt config cannot
/// pre-size telemetry or batch buffers absurdly.
pub const MAX_BATCH_LIMIT: usize = 4096;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            max_delay_nanos: 2_000_000, // 2 ms
            queue_cap: 256,
            cache_capacity: 1024,
        }
    }
}

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The admission queue is full; the request was shed (load-shedding
    /// instead of unbounded growth). Retry later or degrade.
    Overloaded {
        /// The configured admission bound that was hit.
        queue_cap: usize,
    },
    /// The request's feature width does not match the model.
    InputDim {
        /// Width the model expects.
        expected: usize,
        /// Width the request carried.
        got: usize,
    },
    /// The request holds a NaN or infinite feature. It is refused before
    /// the cache and the queue, so it is never batched or cached.
    NonFinite {
        /// Position of the first non-finite feature.
        index: usize,
    },
    /// The configuration is unusable (zero batch size, zero queue, …).
    InvalidConfig(&'static str),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_cap } => {
                write!(f, "admission queue full ({queue_cap}); request shed")
            }
            ServeError::InputDim { expected, got } => {
                write!(f, "input width {got} does not match model width {expected}")
            }
            ServeError::NonFinite { index } => {
                write!(f, "input feature {index} is NaN or infinite")
            }
            ServeError::InvalidConfig(what) => write!(f, "invalid serve config: {what}"),
        }
    }
}

impl Error for ServeError {}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// Number of log-scale latency buckets (fixed, so renderings and goldens
/// never drift with config).
pub const LATENCY_BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram with fixed edges: bucket 0 counts
/// zero-nanosecond observations (virtual-clock cache hits), bucket `i ≥ 1`
/// counts latencies in `[2^(i-1), 2^i)` nanoseconds, and the last bucket
/// absorbs everything larger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, nanos: u64) {
        let idx = Self::bucket_of(nanos);
        self.counts[idx] += 1; // lint: panicfree(bucket_of clamps the index to LATENCY_BUCKETS - 1)
        self.total += 1;
    }

    /// The bucket index an observation falls into.
    pub fn bucket_of(nanos: u64) -> usize {
        if nanos == 0 {
            0
        } else {
            ((64 - nanos.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// `[lower, upper)` bounds of bucket `i` in nanoseconds (the final
    /// bucket's upper bound saturates at `u64::MAX`). A bucket that does not
    /// exist (`i >= LATENCY_BUCKETS`) reads as the empty range
    /// `(u64::MAX, u64::MAX)`, just as [`LatencyHistogram::count`] reads it
    /// as empty.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            _ if i >= LATENCY_BUCKETS => (u64::MAX, u64::MAX),
            _ if i == LATENCY_BUCKETS - 1 => (1u64 << (i - 1), u64::MAX),
            _ => (1u64 << (i - 1), 1u64 << i),
        }
    }

    /// Count in bucket `i`; out-of-range buckets read as empty.
    pub fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper edge (exclusive) of the bucket containing the `q`-quantile,
    /// a conservative latency estimate; `0` for an empty histogram.
    pub fn quantile_upper_nanos(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= threshold.max(1) {
                return Self::bucket_range(i).1;
            }
        }
        Self::bucket_range(LATENCY_BUCKETS - 1).1
    }
}

/// Why a batch was cut from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The queue held at least `max_batch` requests.
    Full,
    /// The oldest queued request exceeded `max_delay_nanos`.
    Deadline,
    /// An explicit [`ServingEngine::drain`].
    Drain,
}

/// Everything the serving engine records about *how* it served — counters,
/// the latency histogram, and the batch-size distribution. A replay
/// returns it in [`ServeRun::telemetry`]; a driven engine hands it over
/// through [`ServingEngine::into_telemetry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeTelemetry {
    /// Submit calls, including shed and malformed ones.
    pub submitted: u64,
    /// Requests accepted (queued or answered from cache).
    pub admitted: u64,
    /// Requests refused with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Requests refused as malformed ([`ServeError::InputDim`] or
    /// [`ServeError::NonFinite`]).
    pub rejected: u64,
    /// Responses produced (cache hits + batch rows).
    pub answered: u64,
    /// Requests answered from the prediction cache.
    pub cache_hits: u64,
    /// Requests that required a forward pass.
    pub cache_misses: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches cut because the queue reached `max_batch`.
    pub full_flushes: u64,
    /// Batches cut because the oldest request hit `max_delay_nanos`.
    pub deadline_flushes: u64,
    /// Batches cut by an explicit drain.
    pub drain_flushes: u64,
    /// `batch_sizes[n]` = batches executed with exactly `n` rows
    /// (index 0 unused; length `max_batch + 1`).
    pub batch_sizes: Vec<u64>,
    /// Per-response latency histogram (clock nanoseconds).
    pub latency: LatencyHistogram,
}

impl ServeTelemetry {
    fn new(max_batch: usize) -> Self {
        ServeTelemetry {
            submitted: 0,
            admitted: 0,
            shed: 0,
            rejected: 0,
            answered: 0,
            cache_hits: 0,
            cache_misses: 0,
            batches: 0,
            full_flushes: 0,
            deadline_flushes: 0,
            drain_flushes: 0,
            batch_sizes: vec![0; max_batch + 1],
            latency: LatencyHistogram::new(),
        }
    }

    /// Cache hit rate in `[0, 1]` (`0` before any answered request).
    pub fn cache_hit_rate(&self) -> f64 {
        let looked = self.cache_hits + self.cache_misses;
        if looked == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked as f64
        }
    }

    /// Mean rows per executed batch (`0` before any batch).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let rows: u64 = self
            .batch_sizes
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        rows as f64 / self.batches as f64
    }
}

// ---------------------------------------------------------------------
// Prediction cache
// ---------------------------------------------------------------------

/// FNV-style hash over the quantized values of a feature row, one mix per
/// element (not per byte — this sits on the cache-hit fast path).
/// Quantization (1/1024 resolution) only shapes the *key*; correctness
/// never depends on it because a hit additionally requires a bitwise input
/// match.
fn input_key(row: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in row {
        let q = (v * 1024.0).round() as i64 as u64;
        h ^= q;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// End marker of the recency list: "no slot".
const NIL: usize = usize::MAX;

/// One resident cache entry and its neighbours in the recency list.
struct Slot {
    key: u64,
    input: Vec<f32>,
    probs: Vec<f32>,
    predicted: usize,
    /// The next less recently used slot (`NIL` at the LRU end).
    older: usize,
    /// The next more recently used slot (`NIL` at the MRU end).
    newer: usize,
}

/// Bounded LRU prediction cache. Keys are quantized-input hashes; a lookup
/// must also match the stored input bitwise, so two inputs that collide in
/// key space can never serve each other's prediction.
///
/// Entries live in a slab of slots that grows to `capacity` and never
/// shrinks. The map sends a key to its slot, and the slots form a doubly
/// linked recency list through their indices, so a hit, a fill and an
/// eviction each relink a constant number of slots. An evicted slot is
/// refilled in place, reusing its probability buffer.
struct PredictionCache {
    capacity: usize,
    map: BTreeMap<u64, usize>,
    slots: Vec<Slot>,
    /// Least recently used slot, the next to be evicted (`NIL` when empty).
    lru: usize,
    /// Most recently used slot (`NIL` when empty).
    mru: usize,
}

impl PredictionCache {
    fn new(capacity: usize) -> Self {
        PredictionCache {
            capacity,
            map: BTreeMap::new(),
            slots: Vec::new(),
            lru: NIL,
            mru: NIL,
        }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn slot(&self, i: usize) -> &Slot {
        &self.slots[i] // lint: panicfree(slot indices come from the map, the list ends and links, and every one is below slots.len(): slots are pushed, never removed)
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        &mut self.slots[i] // lint: panicfree(slot indices come from the map, the list ends and links, and every one is below slots.len(): slots are pushed, never removed)
    }

    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slot(i).older, self.slot(i).newer);
        if older == NIL {
            self.lru = newer;
        } else {
            self.slot_mut(older).newer = newer;
        }
        if newer == NIL {
            self.mru = older;
        } else {
            self.slot_mut(newer).older = older;
        }
    }

    /// Links slot `i`, which is not in the list, in as most recently used.
    fn push_mru(&mut self, i: usize) {
        let mru = self.mru;
        let slot = self.slot_mut(i);
        slot.older = mru;
        slot.newer = NIL;
        if mru == NIL {
            self.lru = i;
        } else {
            self.slot_mut(mru).newer = i;
        }
        self.mru = i;
    }

    /// Makes resident slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if i != self.mru {
            self.unlink(i);
            self.push_mru(i);
        }
    }

    /// The cached answer for `input`, whose [`input_key`] is `key`; a hit
    /// becomes the most recently used entry.
    fn lookup(&mut self, key: u64, input: &[f32]) -> Option<(Vec<f32>, usize)> {
        let &i = self.map.get(&key)?;
        let slot = self.slot(i);
        if !bitwise_eq(&slot.input, input) {
            return None;
        }
        // lint: alloc(a hit hands the caller an owned row; the entry stays resident)
        let hit = (slot.probs.clone(), slot.predicted);
        self.touch(i);
        Some(hit)
    }

    /// Stores the answer for `input` under its key `key` as the most
    /// recently used entry. A resident entry with that key is overwritten;
    /// otherwise a full cache refills the slot of its least recently used
    /// entry.
    fn fill(&mut self, key: u64, input: Vec<f32>, probs: &[f32], predicted: usize) {
        if self.capacity == 0 {
            return;
        }
        let i = match self.map.get(&key) {
            Some(&i) => i,
            None if self.slots.len() < self.capacity => {
                self.map.insert(key, self.slots.len());
                self.slots.push(Slot {
                    key,
                    input,
                    // lint: alloc(one buffer per slot until the cache is full; evictions reuse it)
                    probs: probs.to_vec(),
                    predicted,
                    older: NIL,
                    newer: NIL,
                });
                self.push_mru(self.slots.len() - 1);
                return;
            }
            None => {
                let i = self.lru;
                let evicted = self.slot(i).key;
                self.map.remove(&evicted);
                self.map.insert(key, i);
                i
            }
        };
        let slot = self.slot_mut(i);
        slot.key = key;
        slot.input = input;
        slot.probs.clear();
        slot.probs.extend_from_slice(probs);
        slot.predicted = predicted;
        self.touch(i);
    }
}

/// Bitwise equality of two feature rows (`NaN`-safe and `-0.0`-strict,
/// unlike `==`).
fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Id returned by the submit call (ids count every submit attempt,
    /// so under [`ServingEngine::run`] the id is the stream index).
    pub id: u64,
    /// Class-probability row (sums to 1).
    pub probs: Vec<f32>,
    /// Argmax class.
    pub predicted: usize,
    /// Clock nanoseconds between admission and response.
    pub latency_nanos: u64,
    /// Rows in the batch that answered this request (`0` for cache hits).
    pub batch_size: usize,
    /// Whether the prediction cache answered without a forward pass.
    pub cache_hit: bool,
}

/// A request with an explicit virtual arrival time, replayed by
/// [`ServingEngine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// Virtual arrival time in nanoseconds (non-decreasing streams replay
    /// exactly; an out-of-order time is clamped to the current clock).
    pub at_nanos: u64,
    /// Feature row; width must equal the model's input dimension.
    pub input: Vec<f32>,
}

impl TimedRequest {
    /// A request arriving at `at_nanos` carrying `input`.
    pub fn new(at_nanos: u64, input: Vec<f32>) -> Self {
        TimedRequest { at_nanos, input }
    }
}

/// Result of a [`ServingEngine::run`] replay: one slot per stream entry
/// (`None` = shed under backpressure) plus the engine's telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// Per-request outcomes, indexed like the input stream.
    pub responses: Vec<Option<ServeResponse>>,
    /// The engine's telemetry after the final drain.
    pub telemetry: ServeTelemetry,
}

struct Pending {
    id: u64,
    arrival: u64,
    input: Vec<f32>,
    /// [`input_key`] of `input` (`0`, unused, when caching is off).
    key: u64,
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Micro-batched, cached, backpressured server around a [`ServableModel`].
///
/// Callers drive `submit`/`tick`/`drain` from one thread, and each tick
/// executes its cut batches on that thread. See the module docs for the
/// queue/batcher/cache picture and the determinism argument.
pub struct ServingEngine<'a> {
    model: &'a ServableModel,
    config: ServeConfig,
    clock: &'a dyn Clock,
    pending: VecDeque<Pending>,
    ready: Vec<ServeResponse>,
    cache: PredictionCache,
    telemetry: ServeTelemetry,
    next_id: u64,
    scratch: InferScratch,
}

impl<'a> fmt::Debug for ServingEngine<'a> {
    // lint: root(hot)
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ServingEngine {{ pending: {}, ready: {}, cached: {}, answered: {} }}",
            self.pending.len(),
            self.ready.len(),
            self.cache.len(),
            self.telemetry.answered
        )
    }
}

impl<'a> ServingEngine<'a> {
    /// Builds an engine serving `model` under `config`, reading time from
    /// `clock`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when `max_batch` is `0` or larger than
    /// [`MAX_BATCH_LIMIT`], or `queue_cap` is `0`.
    pub fn new(
        model: &'a ServableModel,
        config: ServeConfig,
        clock: &'a dyn Clock,
    ) -> Result<Self, ServeError> {
        if config.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1"));
        }
        if config.max_batch > MAX_BATCH_LIMIT {
            return Err(ServeError::InvalidConfig(
                "max_batch exceeds MAX_BATCH_LIMIT",
            ));
        }
        if config.queue_cap == 0 {
            return Err(ServeError::InvalidConfig("queue_cap must be >= 1"));
        }
        Ok(ServingEngine {
            model,
            telemetry: ServeTelemetry::new(config.max_batch),
            cache: PredictionCache::new(config.cache_capacity),
            pending: VecDeque::new(),
            ready: Vec::new(),
            next_id: 0,
            scratch: InferScratch::new(),
            config,
            clock,
        })
    }

    /// The model being served.
    // lint: root(hot)
    pub fn model(&self) -> &ServableModel {
        self.model
    }

    /// Telemetry so far (finalize with [`ServingEngine::into_telemetry`]).
    // lint: root(hot)
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.telemetry
    }

    /// Requests admitted but not yet executed: the admission-queue depth,
    /// a cheap length read that never consults the clock.
    // lint: root(hot)
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Consumes the engine, returning its telemetry.
    // lint: root(hot)
    pub fn into_telemetry(self) -> ServeTelemetry {
        self.telemetry
    }

    /// Submits one request. A cache hit is answered immediately; otherwise
    /// the request joins the admission queue until a tick cuts its batch.
    /// Every call consumes one id, returned on success.
    ///
    /// # Errors
    ///
    /// [`ServeError::InputDim`] for a row of the wrong width and
    /// [`ServeError::NonFinite`] for a row holding NaN or ±Inf (neither is
    /// admitted), [`ServeError::Overloaded`] when the queue is at
    /// `queue_cap` (shed).
    // lint: root(hot)
    pub fn submit(&mut self, input: Vec<f32>) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.telemetry.submitted += 1;

        let expected = self.model.input_dim();
        if input.len() != expected {
            self.telemetry.rejected += 1;
            return Err(ServeError::InputDim {
                expected,
                got: input.len(),
            });
        }
        if let Some(index) = input.iter().position(|v| !v.is_finite()) {
            self.telemetry.rejected += 1;
            return Err(ServeError::NonFinite { index });
        }

        // The key is computed once per request: a miss carries it to the
        // cache fill after its forward pass.
        let key = if self.cache.enabled() {
            input_key(&input)
        } else {
            0
        };
        if let Some((probs, predicted)) = self.cache.lookup(key, &input) {
            self.telemetry.admitted += 1;
            self.telemetry.cache_hits += 1;
            self.telemetry.answered += 1;
            self.telemetry.latency.record(0);
            self.ready.push(ServeResponse {
                id,
                probs,
                predicted,
                latency_nanos: 0,
                batch_size: 0,
                cache_hit: true,
            });
            return Ok(id);
        }

        if self.pending.len() >= self.config.queue_cap {
            self.telemetry.shed += 1;
            return Err(ServeError::Overloaded {
                queue_cap: self.config.queue_cap,
            });
        }

        self.telemetry.admitted += 1;
        self.pending.push_back(Pending {
            id,
            arrival: self.clock.now_nanos(),
            input,
            key,
        });
        Ok(id)
    }

    /// The next deadline flush time, if any request is waiting.
    // lint: root(hot)
    pub fn next_deadline(&self) -> Option<u64> {
        self.pending
            .front()
            .map(|p| p.arrival.saturating_add(self.config.max_delay_nanos))
    }

    /// Advances the batcher: cuts every full `max_batch` chunk from the
    /// queue, plus the remainder when the oldest request has hit its
    /// deadline, and executes the cut batches in cut order.
    // lint: root(hot)
    pub fn tick(&mut self) {
        // lint: alloc(Vec::new defers; allocates only on ticks that cut a batch)
        let mut batches: Vec<(FlushCause, Vec<Pending>)> = Vec::new();
        while self.pending.len() >= self.config.max_batch {
            // lint: alloc(the batch hand-off owns its requests; one Vec per cut)
            let cut: Vec<Pending> = self.pending.drain(..self.config.max_batch).collect();
            batches.push((FlushCause::Full, cut));
        }
        if let Some(deadline) = self.next_deadline() {
            if self.clock.now_nanos() >= deadline {
                // lint: alloc(deadline cut takes ownership of the queued remainder)
                let cut: Vec<Pending> = self.pending.drain(..).collect();
                batches.push((FlushCause::Deadline, cut));
            }
        }
        self.execute(batches);
    }

    /// Flushes everything still queued, regardless of deadlines — the
    /// shutdown path, so no admitted request is ever lost.
    // lint: root(hot)
    pub fn drain(&mut self) {
        // lint: alloc(Vec::new defers; shutdown path, not steady state)
        let mut batches: Vec<(FlushCause, Vec<Pending>)> = Vec::new();
        while !self.pending.is_empty() {
            let take = self.pending.len().min(self.config.max_batch);
            // lint: alloc(the batch hand-off owns its requests; one Vec per cut)
            let cut: Vec<Pending> = self.pending.drain(..take).collect();
            batches.push((FlushCause::Drain, cut));
        }
        self.execute(batches);
    }

    /// Responses completed since the last call, in completion order
    /// (batches in cut order, rows in arrival order — deterministic).
    // lint: root(hot)
    pub fn take_responses(&mut self) -> Vec<ServeResponse> {
        std::mem::take(&mut self.ready)
    }

    /// Executes cut batches one after another on the calling thread, in cut
    /// order, reusing the engine's scratch. A batch's rows are stamped with
    /// the clock reading taken when its forward pass returns.
    // lint: root(hot)
    fn execute(&mut self, batches: Vec<(FlushCause, Vec<Pending>)>) {
        let dim = self.model.input_dim();
        for (cause, rows) in batches {
            let n = rows.len();
            // lint: alloc(batch assembly owns the flat row-major copy handed to the tensor)
            let mut flat = Vec::with_capacity(n * dim);
            for p in &rows {
                flat.extend_from_slice(&p.input);
            }
            let x = Tensor::from_vec(flat).reshaped(&[n, dim]);
            let batch_probs = self.model.predict_proba_batched(&x, &mut self.scratch);
            let done = self.clock.now_nanos();

            self.telemetry.batches += 1;
            if let Some(slot) = self.telemetry.batch_sizes.get_mut(n) {
                *slot += 1;
            }
            match cause {
                FlushCause::Full => self.telemetry.full_flushes += 1,
                FlushCause::Deadline => self.telemetry.deadline_flushes += 1,
                FlushCause::Drain => self.telemetry.drain_flushes += 1,
            }
            for (r, p) in rows.into_iter().enumerate() {
                // lint: alloc(the response row must outlive the batch tensor)
                let row = batch_probs.row(r).to_vec();
                let predicted = argmax_slice(&row);
                let latency = done.saturating_sub(p.arrival);
                self.telemetry.cache_misses += 1;
                self.telemetry.answered += 1;
                self.telemetry.latency.record(latency);
                self.cache.fill(p.key, p.input, &row, predicted);
                self.ready.push(ServeResponse {
                    id: p.id,
                    probs: row,
                    predicted,
                    latency_nanos: latency,
                    batch_size: n,
                    cache_hit: false,
                });
            }
        }
    }

    /// Deterministically replays a timed request stream against a fresh
    /// engine and [`VirtualClock`]: the clock advances to each arrival
    /// (processing any deadline flush at its exact due time first), the
    /// batcher ticks once per distinct timestamp, and a final drain answers
    /// every admitted request. A `taglets-lint` hot root: the whole
    /// reachable serve path must argue its allocations and bounds.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] from engine construction,
    /// [`ServeError::InputDim`] or [`ServeError::NonFinite`] for a
    /// malformed row. Overload is *not* an
    /// error here: shed requests simply leave a `None` slot.
    // lint: root(hot)
    pub fn run(
        model: &ServableModel,
        config: ServeConfig,
        stream: &[TimedRequest],
    ) -> Result<ServeRun, ServeError> {
        let clock = VirtualClock::new();
        let mut engine = ServingEngine::new(model, config, &clock)?;
        let mut last_time: Option<u64> = None;
        for req in stream {
            let target = req.at_nanos.max(clock.now_nanos());
            if last_time != Some(target) {
                // Fire any deadline that falls strictly before the new
                // arrival at its exact due time, so deadline latencies are
                // measured at the deadline, not at the next arrival.
                while let Some(due) = engine.next_deadline() {
                    if due >= target {
                        break;
                    }
                    clock.set_at_least(due);
                    engine.tick();
                }
                clock.set_at_least(target);
                engine.tick();
                last_time = Some(target);
            }
            // lint: alloc(the engine takes an owned input; the stream is kept for the report)
            match engine.submit(req.input.clone()) {
                Ok(_) | Err(ServeError::Overloaded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(due) = engine.next_deadline() {
            clock.set_at_least(due);
        }
        engine.drain();

        // lint: alloc(one slot table per replay run)
        let mut responses: Vec<Option<ServeResponse>> = vec![None; stream.len()];
        for r in engine.take_responses() {
            let slot = r.id as usize;
            if let Some(cell) = responses.get_mut(slot) {
                *cell = Some(r);
            }
        }
        Ok(ServeRun {
            responses,
            telemetry: engine.into_telemetry(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use taglets_nn::Classifier;

    fn model() -> ServableModel {
        let mut rng = StdRng::seed_from_u64(42);
        ServableModel::new(Classifier::from_dims(&[4, 8], 3, 0.0, &mut rng))
    }

    fn rows(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::randn(&[1, 4], 1.0, &mut rng).into_vec())
            .collect()
    }

    #[test]
    fn full_batch_is_cut_at_tick_and_answers_everyone() {
        let m = model();
        let clock = VirtualClock::new();
        let cfg = ServeConfig {
            max_batch: 4,
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let mut engine = ServingEngine::new(&m, cfg, &clock).unwrap();
        for input in rows(4, 0) {
            engine.submit(input).unwrap();
        }
        assert_eq!(engine.pending_len(), 4);
        engine.tick();
        let responses = engine.take_responses();
        assert_eq!(responses.len(), 4);
        assert!(responses.iter().all(|r| r.batch_size == 4 && !r.cache_hit));
        assert_eq!(engine.telemetry().full_flushes, 1);

        // One tick that cuts two full batches and a deadline remainder runs
        // all three through the one reused scratch, at row counts 4, 4, 3.
        let inputs = rows(11, 5);
        for input in inputs.clone() {
            engine.submit(input).unwrap();
        }
        clock.advance(ServeConfig::default().max_delay_nanos + 1);
        engine.tick();
        let responses = engine.take_responses();
        let t = engine.telemetry();
        assert_eq!((t.full_flushes, t.deadline_flushes), (3, 1));
        let sizes: Vec<usize> = responses.iter().map(|r| r.batch_size).collect();
        assert_eq!(sizes, [[4; 8].as_slice(), &[3; 3]].concat());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (input, r) in inputs.into_iter().zip(&responses) {
            let one = m.predict_proba(&Tensor::from_vec(input).reshaped(&[1, 4]));
            assert_eq!(bits(&r.probs), bits(one.row(0)));
        }
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let m = model();
        let clock = VirtualClock::new();
        let cfg = ServeConfig {
            max_batch: 8,
            max_delay_nanos: 100,
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let mut engine = ServingEngine::new(&m, cfg, &clock).unwrap();
        engine.submit(rows(1, 1).remove(0)).unwrap();
        engine.tick();
        assert_eq!(engine.take_responses().len(), 0, "deadline not reached");
        clock.advance(100);
        engine.tick();
        let r = engine.take_responses();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].latency_nanos, 100);
        assert_eq!(engine.telemetry().deadline_flushes, 1);
    }

    #[test]
    fn overload_sheds_instead_of_growing() {
        let m = model();
        let clock = VirtualClock::new();
        let cfg = ServeConfig {
            max_batch: 16,
            queue_cap: 2,
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let mut engine = ServingEngine::new(&m, cfg, &clock).unwrap();
        let inputs = rows(3, 2);
        assert!(engine.submit(inputs[0].clone()).is_ok());
        assert!(engine.submit(inputs[1].clone()).is_ok());
        assert!(matches!(
            engine.submit(inputs[2].clone()),
            Err(ServeError::Overloaded { queue_cap: 2 })
        ));
        assert_eq!(engine.pending_len(), 2);
        assert_eq!(engine.telemetry().shed, 1);
        engine.drain();
        let t = engine.telemetry();
        assert_eq!(t.shed + t.answered, t.submitted);
    }

    #[test]
    fn cache_hit_answers_immediately_and_bitwise_identically() {
        let m = model();
        let clock = VirtualClock::new();
        let cfg = ServeConfig {
            max_batch: 1,
            cache_capacity: 8,
            ..ServeConfig::default()
        };
        let mut engine = ServingEngine::new(&m, cfg, &clock).unwrap();
        let input = rows(1, 3).remove(0);
        engine.submit(input.clone()).unwrap();
        engine.tick();
        let first = engine.take_responses().remove(0);
        assert!(!first.cache_hit);

        engine.submit(input.clone()).unwrap();
        let hit = engine.take_responses().remove(0);
        assert!(hit.cache_hit);
        assert_eq!(hit.probs, first.probs);
        let direct = m.predict_proba(&Tensor::from_vec(input).reshaped(&[1, 4]));
        assert_eq!(hit.probs, direct.row(0));
        assert_eq!(engine.telemetry().cache_hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = PredictionCache::new(2);
        let (a, b, c) = (vec![1.0f32], vec![2.0f32], vec![3.0f32]);
        cache.insert(a.clone(), vec![0.5], 0);
        cache.insert(b.clone(), vec![0.6], 0);
        assert!(cache.get(&a).is_some()); // touch a → b is now LRU
        cache.insert(c.clone(), vec![0.7], 0);
        assert!(cache.get(&b).is_none(), "b evicted");
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_key_collision_cannot_serve_wrong_prediction() {
        let mut cache = PredictionCache::new(4);
        // Two inputs that quantize identically (same key) but differ
        // bitwise must not hit each other's entries.
        let x = vec![0.100_01f32];
        let y = vec![0.100_02f32];
        assert_eq!(input_key(&x), input_key(&y), "test premise: same bucket");
        cache.insert(x.clone(), vec![0.9], 1);
        assert!(cache.get(&y).is_none());
    }

    /// Test conveniences that key a row the way `submit` does.
    impl PredictionCache {
        fn get(&mut self, input: &[f32]) -> Option<(Vec<f32>, usize)> {
            self.lookup(input_key(input), input)
        }

        fn insert(&mut self, input: Vec<f32>, probs: Vec<f32>, predicted: usize) {
            self.fill(input_key(&input), input, &probs, predicted);
        }
    }

    /// The LRU the cache is checked against: a key map plus a `VecDeque`
    /// of keys from least- to most-recently used, where a touch scans the
    /// deque for its key. Entries are `(input, probs, predicted)`.
    struct ReferenceLru {
        capacity: usize,
        map: BTreeMap<u64, (Vec<f32>, Vec<f32>, usize)>,
        order: VecDeque<u64>,
    }

    impl ReferenceLru {
        fn new(capacity: usize) -> Self {
            ReferenceLru {
                capacity,
                map: BTreeMap::new(),
                order: VecDeque::new(),
            }
        }

        fn touch(&mut self, key: u64) {
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
            }
            self.order.push_back(key);
        }

        fn get(&mut self, input: &[f32]) -> Option<(Vec<f32>, usize)> {
            if self.capacity == 0 {
                return None;
            }
            let key = input_key(input);
            let hit = match self.map.get(&key) {
                Some((stored, probs, predicted)) if bitwise_eq(stored, input) => {
                    Some((probs.clone(), *predicted))
                }
                _ => None,
            };
            if hit.is_some() {
                self.touch(key);
            }
            hit
        }

        fn insert(&mut self, input: Vec<f32>, probs: Vec<f32>, predicted: usize) {
            if self.capacity == 0 {
                return;
            }
            let key = input_key(&input);
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
            self.map.insert(key, (input, probs, predicted));
            self.touch(key);
        }
    }

    #[test]
    fn cache_matches_the_reference_lru_on_random_sequences() {
        use rand::Rng;
        // Pairs that share a key but differ bitwise: 0.100_01/0.100_02 and
        // 1.0/1.000_01 round to the same 1/1024 step, 0.0/-0.0 differ in
        // the sign bit only.
        let pool: [f32; 9] = [
            0.100_01, 0.100_02, 1.0, 1.000_01, 0.0, -0.0, 0.5, -2.0, 3.25,
        ];
        for pair in pool[..6].chunks(2) {
            assert_ne!(pair[0].to_bits(), pair[1].to_bits());
            assert_eq!(input_key(&pair[..1]), input_key(&pair[1..]), "{pair:?}");
        }
        for capacity in [0, 1, 2, 3, 5] {
            for seed in 0..40u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut cache = PredictionCache::new(capacity);
                let mut reference = ReferenceLru::new(capacity);
                for step in 0..300 {
                    let input = vec![pool[rng.gen_range(0..pool.len())]];
                    if rng.gen_range(0..5u32) < 3 {
                        let got = cache.get(&input);
                        let want = reference.get(&input);
                        assert_eq!(got, want, "capacity {capacity} seed {seed} step {step}");
                    } else {
                        let probs = vec![rng.gen::<f32>(), rng.gen::<f32>()];
                        let predicted = rng.gen_range(0..2usize);
                        cache.insert(input.clone(), probs.clone(), predicted);
                        reference.insert(input, probs, predicted);
                    }
                    assert_eq!(cache.len(), reference.map.len());
                }
            }
        }
    }

    #[test]
    fn run_replays_a_stream_deterministically() {
        let m = model();
        let stream: Vec<TimedRequest> = rows(12, 4)
            .into_iter()
            .enumerate()
            .map(|(i, input)| TimedRequest::new(i as u64 * 50, input))
            .collect();
        let cfg = ServeConfig {
            max_batch: 4,
            max_delay_nanos: 120,
            ..ServeConfig::default()
        };
        let a = ServingEngine::run(&m, cfg.clone(), &stream).unwrap();
        let b = ServingEngine::run(&m, cfg, &stream).unwrap();
        assert_eq!(a, b, "replay is fully deterministic");
        assert_eq!(a.responses.iter().filter(|r| r.is_some()).count(), 12);
        let t = &a.telemetry;
        assert_eq!(t.shed + t.answered, t.submitted);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let m = model();
        let clock = VirtualClock::new();
        for cfg in [
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_cap: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: MAX_BATCH_LIMIT + 1,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                ServingEngine::new(&m, cfg, &clock),
                Err(ServeError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn malformed_rows_are_rejected_not_queued_or_cached() {
        let m = model();
        let clock = VirtualClock::new();
        let mut engine = ServingEngine::new(&m, ServeConfig::default(), &clock).unwrap();
        assert!(matches!(
            engine.submit(vec![1.0; 7]),
            Err(ServeError::InputDim {
                expected: 4,
                got: 7
            })
        ));
        // Each non-finite row twice: a refused row must not be cached.
        for (index, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut row = vec![0.5; 4];
            row[index] = bad;
            for _ in 0..2 {
                assert_eq!(
                    engine.submit(row.clone()),
                    Err(ServeError::NonFinite { index })
                );
            }
        }
        assert_eq!(engine.pending_len(), 0);
        engine.drain();
        assert!(engine.take_responses().is_empty());
        let t = engine.telemetry();
        assert_eq!((t.rejected, t.admitted, t.cache_hits), (7, 0, 0));
    }

    #[test]
    fn histogram_buckets_are_log_scale_with_fixed_edges() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_range(0), (0, 1));
        assert_eq!(LatencyHistogram::bucket_range(3), (4, 8));
        assert_eq!(
            LatencyHistogram::bucket_range(LATENCY_BUCKETS - 1),
            (1 << (LATENCY_BUCKETS - 2), u64::MAX)
        );
        // Buckets that do not exist read as the empty range, never as a
        // range past the last edge or a shift overflow.
        for i in [32, 64, 65, usize::MAX] {
            assert_eq!(LatencyHistogram::bucket_range(i), (u64::MAX, u64::MAX));
            assert_eq!(LatencyHistogram::new().count(i), 0);
        }
        let mut h = LatencyHistogram::new();
        for n in [0, 1, 5, 5, 1000] {
            h.record(n);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.quantile_upper_nanos(0.5), 8);
        assert_eq!(h.quantile_upper_nanos(1.0), 1024);
        assert_eq!(LatencyHistogram::new().quantile_upper_nanos(0.99), 0);
    }

    #[test]
    fn telemetry_rates_are_well_defined() {
        let t = ServeTelemetry::new(4);
        assert_eq!(t.cache_hit_rate(), 0.0);
        assert_eq!(t.mean_batch_size(), 0.0);
    }
}
