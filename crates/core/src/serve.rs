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
//!        Executor — one worker per cut batch, results
//!        reassembled in cut order, rows in arrival order
//!               │
//!               ▼
//!        responses + cache fill + ServeTelemetry
//! ```
//!
//! ## Determinism
//!
//! The engine extends the execution engine's guarantee (PR 2) to serving:
//! batched, cached, parallel inference is **bitwise identical** to calling
//! [`ServableModel::predict_proba`] once per request. Three facts compose:
//!
//! 1. the tape-free fast path is bitwise identical to the tape path
//!    (`taglets_nn::InferScratch` docs),
//! 2. every forward op is row-independent, so a row's output does not
//!    depend on which batch it rides in, and
//! 3. [`crate::Executor`] reassembles batch results in index order,
//!    so worker scheduling never leaks into output order.
//!
//! The cache preserves this exactly: an entry is only returned after a
//! *bitwise* input comparison, so a hit replays precisely the bytes a
//! forward pass would have produced. Time never enters library code —
//! the engine reads an injected [`Clock`], and the deterministic
//! [`ServingEngine::run`] driver replays a timed request stream against a
//! [`VirtualClock`]. `ServingEngine::run` is a seeded `taglets-lint` TL007
//! root, so any wall-clock call reachable from the serve path fails CI.
//!
//! ## Backpressure
//!
//! Admission is bounded by `queue_cap`: a submit that finds the queue full
//! returns [`ServeError::Overloaded`] immediately — the request is *shed*,
//! counted in telemetry, and never silently dropped or buffered without
//! bound. Callers decide whether to retry, degrade, or propagate.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use taglets_nn::InferScratch;
use taglets_tensor::{argmax_slice, Tensor};

use crate::servable::ServableModel;
use crate::{Concurrency, Executor};

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// A monotonic time source, injected so library code never touches the
/// wall clock (the TL007 determinism contract).
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
    // lint: concurrency(Cell makes VirtualClock !Sync, so the replay clock can never be shared across workers; time advances single-threaded in the run loop)
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
    /// Worker threads for batch dispatch, resolved through the
    /// `TAGLETS_THREADS` environment override exactly like training runs.
    pub concurrency: Concurrency,
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
            concurrency: Concurrency::Serial,
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
    /// bucket's upper bound saturates at `u64::MAX`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i >= 63 || i == LATENCY_BUCKETS - 1 {
                u64::MAX
            } else {
                1u64 << i
            };
            (lo, hi)
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
    /// Upper bound on worker threads batch dispatch may use.
    pub workers: usize,
}

impl ServeTelemetry {
    fn new(max_batch: usize, workers: usize) -> Self {
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
            workers,
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

struct CacheEntry {
    input: Vec<f32>,
    probs: Vec<f32>,
    predicted: usize,
}

/// Bounded LRU prediction cache. Keys are quantized-input hashes; a lookup
/// must also match the stored input bitwise, so two inputs that collide in
/// key space can never serve each other's prediction.
struct PredictionCache {
    capacity: usize,
    map: BTreeMap<u64, CacheEntry>,
    /// Keys from least- to most-recently used.
    order: VecDeque<u64>,
}

impl PredictionCache {
    fn new(capacity: usize) -> Self {
        PredictionCache {
            capacity,
            map: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    fn touch(&mut self, key: u64) {
        // Hot-path shortcut: a repeated hit on the most-recent key (the
        // common serving pattern) skips the linear recency scan entirely.
        if self.order.back() == Some(&key) {
            return;
        }
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
            Some(entry) if bitwise_eq(&entry.input, input) => {
                // lint: alloc(a hit hands the caller an owned row; the entry stays resident)
                Some((entry.probs.clone(), entry.predicted))
            }
            _ => None,
        };
        if hit.is_some() {
            self.touch(key);
        }
        hit
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
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
        self.map.insert(
            key,
            CacheEntry {
                input,
                probs,
                predicted,
            },
        );
        self.touch(key);
    }

    fn len(&self) -> usize {
        self.map.len()
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
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Micro-batched, cached, backpressured server around a [`ServableModel`].
///
/// Single-threaded control loop, parallel batch execution: callers drive
/// `submit`/`tick`/`drain` from one thread, and each tick dispatches the
/// cut batches across [`Executor`] workers. See the module docs for the
/// queue/batcher/cache picture and the determinism argument.
pub struct ServingEngine<'a> {
    model: &'a ServableModel,
    config: ServeConfig,
    clock: &'a dyn Clock,
    executor: Executor,
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
    /// `clock`. The concurrency knob is resolved through `TAGLETS_THREADS`
    /// exactly like [`crate::TagletsSystem::run`].
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
        let concurrency = config.concurrency.from_env();
        let workers = concurrency.workers(config.max_batch);
        Ok(ServingEngine {
            model,
            telemetry: ServeTelemetry::new(config.max_batch, workers),
            cache: PredictionCache::new(config.cache_capacity),
            executor: Executor::new(concurrency),
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

        if let Some((probs, predicted)) = self.cache.get(&input) {
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
    /// deadline, and executes all cut batches across the executor.
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

    /// Executes cut batches: one executor job per batch, reassembled in
    /// cut order so parallel dispatch is invisible in the output.
    // lint: root(hot)
    fn execute(&mut self, batches: Vec<(FlushCause, Vec<Pending>)>) {
        if batches.is_empty() {
            return;
        }
        let dim = self.model.input_dim();
        let tensors: Vec<Tensor> = batches
            .iter()
            .map(|(_, rows)| {
                // lint: alloc(batch assembly owns the flat row-major copy handed to the tensor)
                let mut flat = Vec::with_capacity(rows.len() * dim);
                for p in rows {
                    flat.extend_from_slice(&p.input);
                }
                Tensor::from_vec(flat).reshaped(&[rows.len(), dim])
            })
            .collect(); // lint: alloc(one owned input tensor per cut batch)

        let model = self.model;
        let probs: Vec<Tensor> = if tensors.len() == 1 {
            // Serial fast path: reuse the engine's preallocated scratch.
            // lint: alloc(one-element result list), panicfree(this branch checked len() == 1)
            vec![model.predict_proba_batched(&tensors[0], &mut self.scratch)]
        } else {
            let executor = self.executor;
            executor.map(tensors.len(), |i| {
                let mut scratch = InferScratch::new();
                // lint: panicfree(executor.map yields i < tensors.len())
                model.predict_proba_batched(&tensors[i], &mut scratch)
            })
        };

        let done = self.clock.now_nanos();
        for ((cause, rows), batch_probs) in batches.into_iter().zip(probs) {
            let n = rows.len();
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
                if self.cache.enabled() {
                    // lint: alloc(the cache keeps its own copy of the row)
                    self.cache.insert(p.input, row.clone(), predicted);
                }
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
    /// every admitted request. Seeded as a `taglets-lint` TL007 root: the
    /// whole reachable serve path must stay free of wall-clock reads.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] from engine construction,
    /// [`ServeError::InputDim`] or [`ServeError::NonFinite`] for a
    /// malformed row. Overload is *not* an
    /// error here: shed requests simply leave a `None` slot.
    // lint: root(determinism, hot)
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
        let t = ServeTelemetry::new(4, 1);
        assert_eq!(t.cache_hit_rate(), 0.0);
        assert_eq!(t.mean_batch_size(), 0.0);
    }
}
