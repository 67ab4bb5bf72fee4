//! Serving-engine throughput/latency sweep: batch size over the
//! micro-batched [`ServingEngine`], against one `predict_proba` call per
//! request as baseline, plus the cache-hit shortcut against a full forward pass.
//! Writes `results/serving.txt`.
//!
//! It times the end model alone (the paper's serving claim, challenge 3,
//! Sec. 1/3.3: the end model answers in fixed time); no ensemble is built.
//!
//! This binary lives in `benches/`, outside the lint determinism scope, so
//! wall-clock time is allowed: it implements [`Clock`] over
//! [`std::time::Instant`] and injects it, exactly as a production caller
//! would.

use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use taglets_bench::write_results;
use taglets_core::serve::Clock;
use taglets_core::{ServableModel, ServeConfig, ServingEngine};
use taglets_nn::{Classifier, InferScratch};
use taglets_tensor::Tensor;

/// Wall-clock [`Clock`] for real serving runs (bench-only; library code and
/// tests use `VirtualClock`).
struct WallClock {
    origin: Instant,
}

impl WallClock {
    fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

const INPUT_DIM: usize = 64;
const NUM_CLASSES: usize = 10;
const REQUESTS: usize = 2048;

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);
    let model = ServableModel::new(Classifier::from_dims(
        &[INPUT_DIM, 256, 128],
        NUM_CLASSES,
        0.0,
        &mut rng,
    ));
    let inputs: Vec<Vec<f32>> = (0..REQUESTS)
        .map(|_| Tensor::randn(&[1, INPUT_DIM], 1.0, &mut rng).into_vec())
        .collect();

    let mut out = String::from("Serving engine — micro-batch throughput sweep\n");
    out.push_str(&format!(
        "model [{INPUT_DIM}, 256, 128] -> {NUM_CLASSES}, {REQUESTS} requests per cell\n\n"
    ));

    // Baseline: one predict_proba call per request, the cost a
    // caller pays without the serving engine. Request payloads are owned
    // up-front (as a server would receive them), matching the engine cells.
    let owned: Vec<Vec<f32>> = inputs.clone();
    let t0 = Instant::now();
    for input in owned {
        let x = Tensor::from_vec(input).reshaped(&[1, INPUT_DIM]);
        std::hint::black_box(model.predict_proba(&x));
    }
    let single_rps = REQUESTS as f64 / t0.elapsed().as_secs_f64();
    out.push_str(&format!(
        "single-request baseline (no engine): {single_rps:>10.0} req/s\n\n"
    ));

    out.push_str("batch      req/s   speedup   p50(us)   p99(us)\n");
    out.push_str("----------------------------------------------\n");
    for &batch in &[1usize, 4, 16, 64] {
        let (rps, p50, p99) = sweep_cell(&model, &inputs, batch);
        let speedup = rps / single_rps;
        out.push_str(&format!(
            "{batch:>5}  {rps:>9.0}  {speedup:>7.2}x  {p50:>8.1}  {p99:>8.1}\n"
        ));
    }
    out.push_str("(pure micro-batching: unique inputs, cache off)\n\n");

    // End-to-end serving: the full engine (batch 16 + default LRU cache)
    // against the pre-engine serving path (one predict_proba per
    // request) on the same mixed stream. Real request streams repeat —
    // that is why the cache exists — so every third request re-asks one of
    // 64 hot inputs, the rest are unique. The acceptance speedup is
    // measured here: batching amortizes the per-call cost (fresh scratch
    // buffers, a one-row GEMM per layer) and the cache short-circuits
    // repeats, both of which single-request serving pays in full. (The
    // table above isolates batching alone.)
    let hot: Vec<Vec<f32>> = (0..64)
        .map(|_| Tensor::randn(&[1, INPUT_DIM], 1.0, &mut rng).into_vec())
        .collect();
    let mixed: Vec<Vec<f32>> = (0..REQUESTS)
        .map(|i| {
            if i % 3 == 2 {
                hot[(i / 3) % hot.len()].clone()
            } else {
                Tensor::randn(&[1, INPUT_DIM], 1.0, &mut rng).into_vec()
            }
        })
        .collect();

    // Best-of-3 on each side: this container is a shared single vCPU, so
    // any one timed region can absorb host jitter; the fastest round of
    // each is the closest estimate of true throughput.
    let mut single_mixed_rps = 0.0f64;
    for _ in 0..3 {
        let owned: Vec<Vec<f32>> = mixed.clone();
        let t0 = Instant::now();
        for input in owned {
            let x = Tensor::from_vec(input).reshaped(&[1, INPUT_DIM]);
            std::hint::black_box(model.predict_proba(&x));
        }
        single_mixed_rps = single_mixed_rps.max(REQUESTS as f64 / t0.elapsed().as_secs_f64());
    }

    let mut engine_mixed_rps = 0.0f64;
    let mut mixed_hits = 0;
    for _ in 0..3 {
        let clock = WallClock::new();
        let cfg = ServeConfig {
            max_batch: 16,
            max_delay_nanos: u64::MAX,
            queue_cap: REQUESTS,
            ..ServeConfig::default() // default cache_capacity
        };
        // A fresh engine per round: the cache must warm up inside the
        // timed region, exactly as it would in a fresh serving process.
        let mut engine = ServingEngine::new(&model, cfg, &clock).expect("engine config is valid");
        let owned: Vec<Vec<f32>> = mixed.clone();
        let t0 = Instant::now();
        for (i, input) in owned.into_iter().enumerate() {
            engine.submit(input).expect("queue_cap fits all");
            if (i + 1) % 16 == 0 {
                engine.tick();
            }
        }
        engine.drain();
        engine_mixed_rps = engine_mixed_rps.max(REQUESTS as f64 / t0.elapsed().as_secs_f64());
        assert_eq!(engine.take_responses().len(), REQUESTS);
        mixed_hits = engine.telemetry().cache_hits;
    }

    let end_to_end = engine_mixed_rps / single_mixed_rps;
    out.push_str(&format!(
        "end-to-end serving, mixed stream (1/3 repeats over 64 hot inputs), best of 3:\n\
         \x20 single-request (no engine): {single_mixed_rps:>10.0} req/s\n\
         \x20 engine, batch 16 + cache:   {engine_mixed_rps:>10.0} req/s  \
         ({mixed_hits} cache hits)\n\
         \x20 batch-16 speedup over single-request: {end_to_end:.2}x\n"
    ));

    // Cache-hit shortcut vs. a forward pass: answer the same request from
    // the LRU cache and compare per-request cost against the batch-1
    // fast-path forward.
    let hot = inputs[0].clone();
    let hot_x = Tensor::from_vec(hot.clone()).reshaped(&[1, INPUT_DIM]);
    let mut scratch = InferScratch::new();
    let t0 = Instant::now();
    for _ in 0..REQUESTS {
        std::hint::black_box(model.predict_proba_batched(&hot_x, &mut scratch));
    }
    let forward_nanos = t0.elapsed().as_nanos() as f64 / REQUESTS as f64;

    let clock = WallClock::new();
    let cfg = ServeConfig {
        max_batch: 1,
        queue_cap: REQUESTS,
        cache_capacity: 16,
        ..ServeConfig::default()
    };
    let mut engine = ServingEngine::new(&model, cfg, &clock).expect("engine config is valid");
    engine.submit(hot.clone()).expect("warm-up submit");
    engine.drain(); // warm the cache
    std::hint::black_box(engine.take_responses());
    let t0 = Instant::now();
    for _ in 0..REQUESTS {
        engine.submit(hot.clone()).expect("cache-hit submit");
    }
    let hit_nanos = t0.elapsed().as_nanos() as f64 / REQUESTS as f64;
    assert_eq!(
        engine.telemetry().cache_hits,
        REQUESTS as u64,
        "every hot-loop request must be a cache hit"
    );
    std::hint::black_box(engine.take_responses());

    let cache_speedup = forward_nanos / hit_nanos;
    out.push_str(&format!(
        "cache hit {hit_nanos:.0} ns vs forward pass {forward_nanos:.0} ns: {cache_speedup:.1}x faster\n"
    ));

    // Results land on disk first so a failed acceptance check still leaves
    // the full sweep table behind for diagnosis.
    write_results("serving", &out);
    assert!(
        end_to_end >= 2.0,
        "acceptance: engine throughput at batch 16 must be >= 2x single-request serving, got {end_to_end:.2}x"
    );
    assert!(
        cache_speedup >= 10.0,
        "acceptance: cache hit must be >= 10x faster than a forward pass, got {cache_speedup:.1}x"
    );
}

/// One sweep cell: serve every input through an engine at `batch`, ticking
/// once per `batch` submissions so each tick cuts one full batch. Returns
/// `(req/s, p50 us, p99 us)`, the percentiles exact by nearest rank over
/// every response's latency.
fn sweep_cell(model: &ServableModel, inputs: &[Vec<f32>], batch: usize) -> (f64, f64, f64) {
    let clock = WallClock::new();
    let cfg = ServeConfig {
        max_batch: batch,
        max_delay_nanos: u64::MAX, // flush on size only; drain handles the tail
        queue_cap: inputs.len(),
        cache_capacity: 0,
    };
    let mut engine = ServingEngine::new(model, cfg, &clock).expect("engine config is valid");

    // Owned request payloads, built outside the timed region like the
    // single-request baseline's.
    let owned: Vec<Vec<f32>> = inputs.to_vec();
    let total = owned.len();
    let t0 = Instant::now();
    for (i, input) in owned.into_iter().enumerate() {
        engine.submit(input).expect("queue_cap fits all");
        if (i + 1) % batch == 0 {
            engine.tick();
        }
    }
    engine.drain();
    let elapsed = t0.elapsed().as_secs_f64();

    let responses = engine.take_responses();
    assert_eq!(responses.len(), total, "every request answered");
    let mut latencies: Vec<u64> = responses.iter().map(|r| r.latency_nanos).collect();
    latencies.sort_unstable();
    let p50 = nearest_rank(&latencies, 0.5) as f64 / 1_000.0;
    let p99 = nearest_rank(&latencies, 0.99) as f64 / 1_000.0;
    (total as f64 / elapsed, p50, p99)
}

/// The `q` quantile of ascending, non-empty `sorted` by nearest rank: the
/// smallest value with at least a `q` share of the values at or below it.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
