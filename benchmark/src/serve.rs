//! `serve-unique` and `serve-zipf`: the grocery seed-0 end model behind a
//! `ServingEngine` with the default `ServeConfig`, on a wall clock the
//! benchmark supplies. The generator runs on the engine's own control
//! thread, in two phases:
//!
//! 1. open loop — a Poisson schedule at a fixed offered rate; each request
//!    is timed from its due time, and a shed request counts as infinite
//!    latency;
//! 2. saturation — a closed loop that keeps one `max_batch` of requests
//!    outstanding, so the backlog stays bounded.

use std::collections::HashMap;
use std::time::Instant;

use taglets_core::{Clock, ServeConfig, ServeError, ServingEngine};
use taglets_scads::PruneLevel;
use taglets_tensor::Tensor;

use crate::stats::{self, quantile, sorted, tail_supported};
use crate::tape::{Mix, Tape};
use crate::trace::Tracer;
use crate::world::Env;
use crate::{Outcome, Result};

/// The served model: the grocery end model of `train`'s first op.
pub const TASK: &str = crate::train::TASK;
/// Offered open-loop rate per mix, requests per second: about half the
/// saturation throughput each mix reached when the benchmark was defined
/// (200k/s and 380k–460k/s).
pub const UNIQUE_RATE: f64 = 100_000.0;
pub const ZIPF_RATE: f64 = 200_000.0;
/// The saturation phase's p90 must stay within this limit.
pub const LATENCY_LIMIT_MS: f64 = 1.0;
/// Requests through a throwaway engine before timing starts.
const WARMUP: usize = 4096;
/// Every this many answers, one is kept for the oracle check ...
const ORACLE_EVERY: u64 = 97;
/// ... up to this many per phase.
const ORACLE_MAX: usize = 1024;
/// One submit in this many gets a span, which keeps the trace of a run in
/// the megabytes.
const SUBMIT_SPAN_EVERY: u64 = 16;
/// Saturation requests per block. Throughput and the p90 are the values
/// nine blocks in ten meet, and the traced run alternates traced and
/// untraced blocks.
const BLOCK: usize = 4096;

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Bookkeeping of one phase.
#[derive(Default)]
struct Books {
    /// In flight: id → (time its latency counts from, tape index).
    outstanding: HashMap<u64, (u64, usize)>,
    submitted: u64,
    answered: u64,
    shed: u64,
    /// Answers for an id not in flight (a duplicate or a stray).
    unexpected: u64,
    /// Latency in ns of each request that needed a forward pass
    /// (`INFINITY` when shed; only a cache miss can be shed). Saturation
    /// empties it every block, so its memory does not grow with throughput
    /// and `peak_rss_mb` does not move with speed.
    miss_ns: Vec<f64>,
    /// Engine-measured admission-to-answer wait of misses (saturation
    /// empties it every block).
    queue_wait_ns: Vec<f64>,
    /// (tape index, answered probabilities) kept for the oracle check.
    oracle: Vec<(usize, Vec<f32>)>,
}

impl Books {
    fn submit(
        &mut self,
        engine: &mut ServingEngine<'_>,
        tape: &Tape,
        i: usize,
        from_ns: u64,
        tracer: &mut Tracer,
    ) -> Result<()> {
        let hits = engine.telemetry().cache_hits;
        let start = tracer.stamp();
        let result = engine.submit(tape.input(i).to_vec());
        let end = tracer.stamp();
        self.submitted += 1;
        match result {
            Ok(id) => {
                self.outstanding.insert(id, (from_ns, i));
                if id % SUBMIT_SPAN_EVERY == 0 {
                    let name = if engine.telemetry().cache_hits > hits {
                        "serve.submit_hit"
                    } else {
                        "serve.submit_miss"
                    };
                    tracer.record(name, start, end, None, id);
                }
                Ok(())
            }
            Err(ServeError::Overloaded { .. }) => {
                self.shed += 1;
                self.miss_ns.push(f64::INFINITY);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn tick(&mut self, engine: &mut ServingEngine<'_>, clock: &WallClock, tracer: &mut Tracer) {
        let batches = engine.telemetry().batches;
        let start = tracer.stamp();
        engine.tick();
        let end = tracer.stamp();
        if engine.telemetry().batches > batches {
            tracer.record("serve.tick_batch", start, end, None, batches);
        }
        self.collect(engine, clock);
    }

    /// Takes every ready answer and times it against `clock`.
    fn collect(&mut self, engine: &mut ServingEngine<'_>, clock: &WallClock) {
        let responses = engine.take_responses();
        if responses.is_empty() {
            return;
        }
        let now = clock.now_nanos();
        for r in responses {
            let Some((from_ns, i)) = self.outstanding.remove(&r.id) else {
                self.unexpected += 1;
                continue;
            };
            self.answered += 1;
            if !r.cache_hit {
                self.miss_ns.push(now.saturating_sub(from_ns) as f64);
                self.queue_wait_ns.push(r.latency_nanos as f64);
            }
            if r.id % ORACLE_EVERY == 0 && self.oracle.len() < ORACLE_MAX {
                self.oracle.push((i, r.probs));
            }
        }
    }
}

pub fn run(mix: Mix, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome> {
    let tracing = tracer.is_on();
    let setup = Instant::now();
    let env = Env::build(tracer)?;
    let task = env.task(TASK)?;
    let split = task.split(crate::train::SPLIT_SEED, crate::train::SHOTS);
    let (run, _) = tracer.span("core.end_model_run", None, 0, || {
        env.system()
            .run(task, &split, PruneLevel::NoPruning, crate::train::SEEDS[0])
    });
    let model = run?.end_model;
    let setup_s = setup.elapsed().as_secs_f64();

    let rate = match mix {
        Mix::Unique => UNIQUE_RATE,
        Mix::Zipf => ZIPF_RATE,
    };
    // A third of the window for the open loop, whose median is set by the
    // schedule and settles early; two thirds for saturation, whose figures
    // move with the host's spells and gain most from more blocks.
    let (open_s, saturation_s) = (seconds / 3.0, seconds * 2.0 / 3.0);
    let tape = Tape::generate(
        env.universe(),
        task,
        mix,
        seed,
        rate,
        (rate * open_s) as usize,
    );
    let config = ServeConfig::default();
    let mut out = Outcome::default();

    // Warm-up: fault in the tape, the model and the allocator's pools.
    {
        tracer.set_on(false);
        let clock = WallClock(Instant::now());
        let mut engine = ServingEngine::new(&model, config.clone(), &clock)?;
        let mut books = Books::default();
        for i in 0..WARMUP {
            books.submit(&mut engine, &tape, i, 0, tracer)?;
            if engine.pending_len() >= config.max_batch {
                books.tick(&mut engine, &clock, tracer);
            }
        }
        engine.drain();
        tracer.set_on(tracing);
    }

    // Phase 1: open loop.
    let clock = WallClock(Instant::now());
    let mut engine = ServingEngine::new(&model, config.clone(), &clock)?;
    let mut open = Books::default();
    let mut late_ns = Vec::with_capacity(tape.due_ns.len());
    let t0 = clock.now_nanos();
    let mut since_tick = 0;
    for i in 0..tape.due_ns.len() {
        let due = t0 + tape.due_ns[i];
        let mut now = clock.now_nanos();
        while now < due {
            if engine.next_deadline().is_some_and(|d| now >= d) {
                open.tick(&mut engine, &clock, tracer);
            }
            std::hint::spin_loop();
            now = clock.now_nanos();
        }
        late_ns.push((now - due) as f64);
        open.submit(&mut engine, &tape, i, due, tracer)?;
        open.collect(&mut engine, &clock);
        // Ticking every max_batch submissions cuts full batches even when
        // a stall has put the generator behind, so a stall drains into
        // batches instead of filling the queue and shedding.
        since_tick += 1;
        if since_tick == config.max_batch {
            open.tick(&mut engine, &clock, tracer);
            since_tick = 0;
        }
    }
    while engine.pending_len() > 0 {
        if engine
            .next_deadline()
            .is_some_and(|d| clock.now_nanos() >= d)
        {
            open.tick(&mut engine, &clock, tracer);
        }
        std::hint::spin_loop();
    }
    let open_tel = engine.telemetry().clone();

    // Phase 2: saturation, one max_batch outstanding.
    let clock = WallClock(Instant::now());
    let mut engine = ServingEngine::new(&model, config.clone(), &clock)?;
    let mut sat = Books::default();
    let (mut mode_s, mut mode_answers) = ([0.0f64; 2], [0u64; 2]);
    let (mut block_rates, mut block_p90s_ms) = (Vec::new(), Vec::new());
    let (mut sat_misses, mut fewest_block_misses) = (0, usize::MAX);
    let window = Instant::now();
    let mut i = 0;
    // At least one traced and one untraced block, however short the window.
    while window.elapsed().as_secs_f64() < saturation_s || i < 2 * BLOCK {
        let traced = tracing && (i / BLOCK).is_multiple_of(2);
        tracer.set_on(traced);
        let block_start = Instant::now();
        let answered = sat.answered;
        let block_end = i + BLOCK;
        while i < block_end {
            while engine.pending_len() < config.max_batch && i < block_end {
                let now = clock.now_nanos();
                sat.submit(&mut engine, &tape, i, now, tracer)?;
                sat.collect(&mut engine, &clock);
                i += 1;
            }
            sat.tick(&mut engine, &clock, tracer);
        }
        let block_s = block_start.elapsed().as_secs_f64();
        mode_s[traced as usize] += block_s;
        mode_answers[traced as usize] += sat.answered - answered;
        block_rates.push((sat.answered - answered) as f64 / block_s);
        let misses = sorted(std::mem::take(&mut sat.miss_ns));
        sat.queue_wait_ns.clear();
        sat_misses += misses.len();
        fewest_block_misses = fewest_block_misses.min(misses.len());
        block_p90s_ms.push(quantile(&misses, 0.9) / 1e6);
    }
    tracer.set_on(tracing);
    engine.drain();
    sat.collect(&mut engine, &clock);
    let sat_tel = engine.telemetry().clone();

    // Output checks.
    for (phase, books, tel) in [
        ("open loop", &open, &open_tel),
        ("saturation", &sat, &sat_tel),
    ] {
        out.attempted += books.submitted;
        out.failed += books.shed;
        out.check(
            &format!("{phase}: answered + shed = submitted, each id once"),
            books.answered + books.shed == books.submitted
                && books.unexpected == 0
                && books.outstanding.is_empty()
                && tel.answered + tel.shed == tel.submitted
                && tel.rejected == 0,
            format!(
                "{} answered, {} shed, {} submitted, {} unexpected",
                books.answered, books.shed, books.submitted, books.unexpected
            ),
        );
        let oracle_ok = books.oracle.iter().all(|(i, probs)| {
            let x = Tensor::from_vec(tape.input(*i).to_vec()).reshaped(&[1, tape.input(*i).len()]);
            let expect = model.predict_proba(&x);
            expect.data().len() == probs.len()
                && expect
                    .data()
                    .iter()
                    .zip(probs)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        out.check(
            &format!("{phase}: sampled answers equal predict_proba bitwise"),
            oracle_ok && !books.oracle.is_empty(),
            format!("{} sampled", books.oracle.len()),
        );
    }
    if mix == Mix::Unique {
        out.check(
            "serve-unique never hits the cache",
            open_tel.cache_hits + sat_tel.cache_hits == 0,
            format!("{} hits", open_tel.cache_hits + sat_tel.cache_hits),
        );
    }
    // End-to-end metrics. Latencies are over the requests that needed a
    // forward pass: every request of serve-unique, the misses of
    // serve-zipf. Over all of serve-zipf's requests the median is the
    // microsecond cache-hit path and the p90 sits on the hit/miss edge, and
    // both moved by tens of percent between identical runs; the hit path's
    // cost shows in throughput instead. The median comes from the open
    // loop. The p90 comes from saturation, where a host stall delays only
    // the requests in flight: in the open loop it delays every request due
    // during it, and one run in five read an open-loop p90 of 3 to 50 ms.
    out.metric("setup_s", setup_s);
    let block_rates = sorted(block_rates);
    out.note(stats::rate_spread(&block_rates));
    out.metric("throughput_per_s", stats::sustained_rate(&block_rates));
    let open_ms = sorted(open.miss_ns.iter().map(|ns| ns / 1e6).collect());
    let p50 = quantile(&open_ms, 0.5);
    let of = "open-loop forward-pass answers";
    out.percentile("latency_p50_ms", 0.5, p50, open_ms.len(), of, false);
    let p90 = stats::sustained_latency(&sorted(block_p90s_ms.clone()));
    let of = format!("blocks' p90s ({sat_misses} saturation forward-pass answers)");
    out.percentile("latency_p90_ms", 0.9, p90, block_p90s_ms.len(), &of, true);
    out.check(
        "ten samples beyond every block's p90",
        tail_supported(fewest_block_misses, 0.9),
        format!("fewest forward-pass answers in a block: {fewest_block_misses}"),
    );
    out.check(
        "saturation p90 within the latency limit",
        p90 <= LATENCY_LIMIT_MS,
        format!("{p90} ms vs {LATENCY_LIMIT_MS} ms"),
    );

    // Per-layer metrics.
    let acc = model.accuracy(&split.test_x, &split.test_y) as f64;
    out.metric("core.end_model_acc", acc);
    if tracing {
        let median_us = |v: Vec<f64>| {
            if v.is_empty() {
                0.0
            } else {
                quantile(&sorted(v), 0.5) / 1e3
            }
        };
        out.metric(
            "serve.batch_exec_us",
            median_us(tracer.durations_ns("serve.tick_batch")),
        );
        out.metric(
            "serve.submit_miss_us",
            median_us(tracer.durations_ns("serve.submit_miss")),
        );
        out.metric(
            "serve.submit_hit_us",
            median_us(tracer.durations_ns("serve.submit_hit")),
        );
        out.metric("serve.queue_wait_us", median_us(open.queue_wait_ns.clone()));
        out.metric("serve.mean_batch_size", open_tel.mean_batch_size());
        let batches = open_tel.batches.max(1) as f64;
        out.metric(
            "serve.deadline_flush_share",
            open_tel.deadline_flushes as f64 / batches,
        );
        out.metric("serve.cache_hit_share", open_tel.cache_hit_rate());
        out.metric("serve.shed", (open.shed + sat.shed) as f64);
        out.metric(
            "bench.gen_late_p90_us",
            quantile(&sorted(late_ns), 0.9) / 1e3,
        );
        let rate = |m: usize| mode_answers[m] as f64 / mode_s[m];
        out.metric("bench.trace_overhead_share", rate(0) / rate(1) - 1.0);
        let end_model_s = tracer.durations_ns("core.end_model_run");
        out.metric(
            "core.end_model_train_s",
            end_model_s.first().copied().unwrap_or(0.0) / 1e9,
        );
        out.setup_spans(tracer);
    }
    Ok(out)
}
