//! Property-based tests on the serving engine's contract (ISSUE 4):
//!
//! a. every admitted request is answered exactly once,
//! b. batched outputs are **bitwise** equal to one-at-a-time
//!    [`ServableModel::predict_proba`] — at 1, 2, and 4 workers,
//! c. caching on vs. off never changes any prediction,
//! d. `shed + answered == submitted` (no request silently lost),
//! e. rows holding NaN or ±Inf are refused and never disturb clean rows.
//!
//! Each property replays a randomized timed request stream (with injected
//! duplicates so the cache actually fires) through a randomized
//! [`ServeConfig`] via the deterministic [`ServingEngine::run`] driver.
//! The vendored proptest derives its seed from the test name, so runs are
//! reproducible without any environment setup.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use taglets::nn::Classifier;
use taglets::tensor::Tensor;
use taglets::{
    Concurrency, ServableModel, ServeConfig, ServeError, ServingEngine, TimedRequest, VirtualClock,
};

const INPUT_DIM: usize = 5;
const NUM_CLASSES: usize = 4;

fn model() -> ServableModel {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    ServableModel::new(Classifier::from_dims(
        &[INPUT_DIM, 12, 8],
        NUM_CLASSES,
        0.0,
        &mut rng,
    ))
}

/// A randomized timed stream: `n` requests at bursty arrival times, with
/// roughly `dup_pct`% of them replaying an earlier request's exact input
/// (so the prediction cache sees genuine hits).
fn stream(n: usize, seed: u64, dup_pct: u8) -> Vec<TimedRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fresh: Vec<Vec<f32>> = (0..n)
        .map(|_| Tensor::randn(&[1, INPUT_DIM], 1.0, &mut rng).into_vec())
        .collect();
    let gaps = Tensor::randn(&[1, n.max(1)], 1.0, &mut rng).into_vec();
    let mut t = 0u64;
    let mut out: Vec<TimedRequest> = Vec::with_capacity(n);
    for i in 0..n {
        // Bursts: ~half the gaps are zero, the rest up to ~300 ns.
        let g = (gaps[i].abs() * 100.0) as u64;
        t += if gaps[i] > 0.0 { g } else { 0 };
        let dup = i > 0 && (gaps[i] * 977.0).abs() as u64 % 100 < dup_pct as u64;
        let input = if dup {
            out[i / 2].input.clone()
        } else {
            fresh[i].clone()
        };
        out.push(TimedRequest::new(t, input));
    }
    out
}

fn config(
    max_batch: usize,
    max_delay_nanos: u64,
    queue_cap: usize,
    cache_capacity: usize,
    workers: usize,
) -> ServeConfig {
    ServeConfig {
        max_batch,
        max_delay_nanos,
        queue_cap,
        cache_capacity,
        concurrency: if workers <= 1 {
            Concurrency::Serial
        } else {
            Concurrency::threads(workers)
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    // Property (a): every admitted request answered exactly once — ids are
    // unique, cover exactly the non-shed stream slots, and ready responses
    // are never duplicated or dropped by drain.
    #[test]
    fn every_admitted_request_is_answered_exactly_once(
        n in 1usize..80,
        seed in 0u64..1_000_000,
        max_batch in 1usize..20,
        delay in 0u64..500,
        queue_cap in 1usize..32,
        cache_sel in 0usize..3,
    ) {
        let cache = [0usize, 8, 64][cache_sel];
        let m = model();
        let run = ServingEngine::run(
            &m,
            config(max_batch, delay, queue_cap, cache, 1),
            &stream(n, seed, 30),
        ).unwrap();

        prop_assert_eq!(run.responses.len(), n);
        let mut seen = BTreeSet::new();
        for (slot, r) in run.responses.iter().enumerate() {
            if let Some(r) = r {
                prop_assert_eq!(r.id as usize, slot, "id is the stream index");
                prop_assert!(seen.insert(r.id), "duplicate answer for id {}", r.id);
                prop_assert_eq!(r.probs.len(), NUM_CLASSES);
            }
        }
        prop_assert_eq!(seen.len() as u64, run.telemetry.answered);
        prop_assert_eq!(run.telemetry.answered + run.telemetry.shed,
            run.telemetry.submitted);
    }

    // Property (b): batched, parallel serving is bitwise identical to
    // calling predict_proba one row at a time — across 1, 2, and 4 workers.
    #[test]
    fn batched_parallel_output_is_bitwise_equal_to_serial_single_requests(
        n in 1usize..60,
        seed in 0u64..1_000_000,
        max_batch in 1usize..16,
        delay in 0u64..400,
    ) {
        let m = model();
        let requests = stream(n, seed, 20);
        // Queue wide open: every request admitted, so all are comparable.
        let mut baseline: Option<Vec<Vec<f32>>> = None;
        for workers in [1usize, 2, 4] {
            let run = ServingEngine::run(
                &m,
                config(max_batch, delay, 4096, 0, workers),
                &requests,
            ).unwrap();
            let probs: Vec<Vec<f32>> = run.responses.iter().map(|r| {
                r.as_ref().expect("queue_cap 4096 admits everything").probs.clone()
            }).collect();
            for (req, got) in requests.iter().zip(&probs) {
                let x = Tensor::from_vec(req.input.clone()).reshaped(&[1, INPUT_DIM]);
                let one = m.predict_proba(&x);
                prop_assert_eq!(got.as_slice(), one.row(0),
                    "workers={} differs from single-request path", workers);
            }
            match &baseline {
                None => baseline = Some(probs),
                Some(b) => prop_assert_eq!(b, &probs,
                    "worker count {} changed outputs", workers),
            }
        }
    }

    // Property (c): the prediction cache is an invisible optimization —
    // identical responses with caching on and off.
    #[test]
    fn cache_on_off_never_changes_predictions(
        n in 1usize..60,
        seed in 0u64..1_000_000,
        max_batch in 1usize..12,
        delay in 0u64..400,
        cache in 1usize..128,
    ) {
        let m = model();
        let requests = stream(n, seed, 50); // heavy duplication → real hits
        let cached = ServingEngine::run(
            &m, config(max_batch, delay, 4096, cache, 1), &requests,
        ).unwrap();
        let uncached = ServingEngine::run(
            &m, config(max_batch, delay, 4096, 0, 1), &requests,
        ).unwrap();

        prop_assert_eq!(uncached.telemetry.cache_hits, 0);
        for (slot, (c, u)) in cached.responses.iter().zip(&uncached.responses).enumerate() {
            let (c, u) = (c.as_ref().unwrap(), u.as_ref().unwrap());
            prop_assert_eq!(&c.probs, &u.probs, "slot {} diverges under caching", slot);
            prop_assert_eq!(c.predicted, u.predicted);
        }
    }

    // Property (d): under real backpressure nothing is silently lost —
    // shed + answered == submitted, and shed slots are exactly the Nones.
    #[test]
    fn shed_plus_answered_equals_submitted(
        n in 1usize..120,
        seed in 0u64..1_000_000,
        max_batch in 1usize..8,
        queue_cap in 1usize..6, // tiny queue: shedding actually happens
        cache_sel in 0usize..2,
    ) {
        let cache = [0usize, 16][cache_sel];
        let m = model();
        // Long deadline + bursty arrivals → the queue really fills up.
        let run = ServingEngine::run(
            &m,
            config(max_batch, 10_000, queue_cap, cache, 1),
            &stream(n, seed, 25),
        ).unwrap();

        let t = &run.telemetry;
        prop_assert_eq!(t.submitted, n as u64);
        prop_assert_eq!(t.shed + t.answered, t.submitted);
        prop_assert_eq!(t.answered, t.admitted);
        let none_slots = run.responses.iter().filter(|r| r.is_none()).count() as u64;
        prop_assert_eq!(none_slots, t.shed);
        prop_assert_eq!(t.cache_hits + t.cache_misses, t.answered);
    }

    // Property (e): poisoned rows at seeded positions are each refused with
    // `NonFinite`; every clean row is answered exactly once, with finite
    // probabilities bitwise equal to the replay of the clean-only stream.
    #[test]
    fn non_finite_rows_are_refused_and_clean_rows_are_unchanged(
        n in 1usize..60,
        seed in 0u64..1_000_000,
        max_batch in 1usize..12,
        poison_pct in 1u32..60,
        cache_sel in 0usize..2,
    ) {
        let cfg = config(max_batch, 200, 4096, [0usize, 16][cache_sel], 1);
        let m = model();
        let clean = stream(n, seed, 30);
        let reference = ServingEngine::run(&m, cfg.clone(), &clean).unwrap();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
        let clock = VirtualClock::new();
        let mut engine = ServingEngine::new(&m, cfg, &clock).unwrap();
        let mut clean_ids = Vec::with_capacity(n);
        let mut poisoned = 0u64;
        for req in &clean {
            clock.set_at_least(req.at_nanos);
            engine.tick();
            while rng.gen_range(0..100u32) < poison_pct {
                let mut row = req.input.clone();
                let index = rng.gen_range(0..INPUT_DIM);
                row[index] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
                prop_assert_eq!(engine.submit(row), Err(ServeError::NonFinite { index }));
                poisoned += 1;
            }
            clean_ids.push(engine.submit(req.input.clone()).unwrap());
        }
        engine.drain();

        let mut answers: Vec<Option<Vec<f32>>> = vec![None; engine.telemetry().submitted as usize];
        for r in engine.take_responses() {
            let slot = &mut answers[r.id as usize];
            prop_assert!(slot.is_none(), "id {} answered twice", r.id);
            *slot = Some(r.probs);
        }
        prop_assert_eq!(answers.iter().flatten().count(), n);
        for (i, id) in clean_ids.iter().enumerate() {
            let got = answers[*id as usize].as_ref().expect("clean row answered");
            let want = &reference.responses[i].as_ref().expect("reference answered").probs;
            prop_assert!(got.iter().all(|v| v.is_finite()));
            prop_assert!(
                got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "clean row {} differs from the clean-only replay", i
            );
        }
        let t = engine.telemetry();
        prop_assert_eq!(t.rejected, poisoned);
        prop_assert_eq!(t.admitted, n as u64);
        prop_assert_eq!(t.submitted, n as u64 + poisoned);
    }
}

/// Deterministic non-proptest check used by `scripts/check.sh serve`: one
/// fixed stream, asserted identical across 1/2/4 workers and cache on/off,
/// so the CI step has a stable, env-independent anchor.
#[test]
fn fixed_stream_is_identical_across_workers_and_cache() {
    let m = model();
    let requests = stream(48, 1234, 40);
    let runs: Vec<_> = [(1, 0), (2, 0), (4, 0), (1, 32), (4, 32)]
        .into_iter()
        .map(|(workers, cache)| {
            ServingEngine::run(&m, config(6, 150, 4096, cache, workers), &requests).unwrap()
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run.responses.len(), runs[0].responses.len());
        for (a, b) in runs[0].responses.iter().zip(&run.responses) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.probs, b.probs);
            assert_eq!(a.predicted, b.predicted);
        }
    }
    // The cached runs actually exercised the cache.
    assert!(runs[4].telemetry.cache_hits > 0);
}

/// `pending_len()` — the admission-queue depth — rises one per admitted
/// request, is untouched by shed submissions, and returns to zero once the
/// engine drains.
#[test]
fn load_tracks_queue_depth_through_submit_and_drain() {
    let m = model();
    let clock = VirtualClock::new();
    let mut engine = ServingEngine::new(
        &m,
        config(16, 10_000, 3, 0, 1), // cap 3: the 4th submit sheds
        &clock,
    )
    .unwrap();
    assert_eq!(engine.pending_len(), 0);
    let requests = stream(4, 77, 0);
    for (i, r) in requests.iter().take(3).enumerate() {
        engine.submit(r.input.clone()).unwrap();
        assert_eq!(
            engine.pending_len(),
            i + 1,
            "load rises one per admitted request"
        );
    }
    // Queue full: the shed submission must not move the load signal.
    assert!(engine.submit(requests[3].input.clone()).is_err());
    assert_eq!(
        engine.pending_len(),
        3,
        "a shed request never counts as load"
    );
    engine.drain();
    assert_eq!(engine.pending_len(), 0, "drain empties the queue");
    assert_eq!(engine.take_responses().len(), 3);
}
