//! Property-based tests on the multi-replica router's contract (ISSUE 9):
//!
//! a. every submitted request is answered exactly once or accounted shed —
//!    ids are slot indices, answers never duplicate, per-tenant and global
//!    counters balance, and the same stream replays byte-identically,
//! b. a 1-replica router with no quota is **bitwise** identical to the bare
//!    [`ServingEngine`] — responses and telemetry both,
//! c. consistent-hash dispatch is a pure function of the input row —
//!    stable across router instances and across whole runs,
//! d. a tenant that stays within its quota is fully isolated from a
//!    flooding neighbor: never quota-shed, never capacity-shed,
//! e. every answered response carries probabilities bitwise equal to the
//!    single-request [`ServableModel::predict_proba`] path.
//!
//! Each property replays a randomized multi-tenant stream through a
//! randomized [`RouteConfig`] via the deterministic [`Router::run`] driver.
//! The vendored proptest derives its seed from the test name, so runs are
//! reproducible without any environment setup. `scripts/check.sh` runs the
//! suite twice — serially and under `TAGLETS_THREADS=4` — to pin the
//! replica engines' worker-count independence.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use taglets::nn::Classifier;
use taglets::tensor::Tensor;
use taglets::{
    Concurrency, DispatchPolicy, RouteConfig, RoutedRequest, Router, ServableModel, ServeConfig,
    ServingEngine, TimedRequest, VirtualClock,
};

const INPUT_DIM: usize = 5;
const NUM_CLASSES: usize = 4;

fn model() -> ServableModel {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    ServableModel::new(Classifier::from_dims(
        &[INPUT_DIM, 12, 8],
        NUM_CLASSES,
        0.0,
        &mut rng,
    ))
}

/// A randomized multi-tenant stream: `n` requests at bursty arrival times
/// over `tenants` tenants, with roughly `dup_pct`% of them replaying an
/// earlier request's exact input (so replica caches see genuine hits and
/// consistent-hash affinity matters).
fn stream(n: usize, tenants: u32, seed: u64, dup_pct: u8) -> Vec<RoutedRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fresh: Vec<Vec<f32>> = (0..n)
        .map(|_| Tensor::randn(&[1, INPUT_DIM], 1.0, &mut rng).into_vec())
        .collect();
    let gaps = Tensor::randn(&[1, n.max(1)], 1.0, &mut rng).into_vec();
    let mut t = 0u64;
    let mut out: Vec<RoutedRequest> = Vec::with_capacity(n);
    for i in 0..n {
        let g = (gaps[i].abs() * 100.0) as u64;
        t += if gaps[i] > 0.0 { g } else { 0 };
        let dup = i > 0 && (gaps[i] * 977.0).abs() as u64 % 100 < dup_pct as u64;
        let input = if dup {
            out[i / 2].input.clone()
        } else {
            fresh[i].clone()
        };
        let tenant = (gaps[i] * 31.0).abs() as u32 % tenants.max(1);
        out.push(RoutedRequest::new(t, tenant, input));
    }
    out
}

fn route_config(
    replicas: usize,
    policy: DispatchPolicy,
    quota: Option<usize>,
    max_batch: usize,
    max_delay_nanos: u64,
    queue_cap: usize,
    cache_capacity: usize,
) -> RouteConfig {
    RouteConfig {
        replicas,
        policy,
        tenant_quota: quota,
        serve: ServeConfig {
            max_batch,
            max_delay_nanos,
            queue_cap,
            cache_capacity,
            concurrency: Concurrency::Serial,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    // Property (a): answered exactly once, counters balance at both the
    // fleet and per-tenant level, and the replay is deterministic.
    #[test]
    fn every_request_is_answered_once_or_accounted_shed(
        n in 1usize..80,
        tenants in 1u32..5,
        seed in 0u64..1_000_000,
        replicas in 1usize..5,
        policy_sel in 0usize..2,
        quota_sel in 0usize..3,
        max_batch in 1usize..12,
        delay in 0u64..400,
        queue_cap in 1usize..16,
    ) {
        let policy = [DispatchPolicy::ConsistentHash, DispatchPolicy::LeastLoaded][policy_sel];
        let quota = [None, Some(2), Some(6)][quota_sel];
        let m = model();
        let requests = stream(n, tenants, seed, 30);
        let cfg = route_config(replicas, policy, quota, max_batch, delay, queue_cap, 16);
        let run = Router::run(&m, cfg.clone(), &requests).unwrap();

        prop_assert_eq!(run.responses.len(), n);
        let mut seen = BTreeSet::new();
        for (slot, r) in run.responses.iter().enumerate() {
            if let Some(r) = r {
                prop_assert_eq!(r.id as usize, slot, "id is the stream index");
                prop_assert!(seen.insert(r.id), "duplicate answer for id {}", r.id);
                prop_assert_eq!(r.tenant, requests[slot].tenant);
                prop_assert!(r.replica < replicas);
                prop_assert_eq!(r.probs.len(), NUM_CLASSES);
            }
        }
        let t = &run.telemetry;
        prop_assert_eq!(seen.len() as u64, t.answered());
        prop_assert_eq!(t.submitted(), n as u64);
        prop_assert_eq!(t.answered() + t.shed(), t.submitted());
        prop_assert_eq!(t.rejected, 0);
        let none_slots = run.responses.iter().filter(|r| r.is_none()).count() as u64;
        prop_assert_eq!(none_slots, t.quota_shed + t.capacity_shed);
        // Per-tenant books balance, and sum back to the fleet totals.
        for (id, tenant) in &t.tenants {
            prop_assert_eq!(
                tenant.answered + tenant.quota_shed + tenant.capacity_shed,
                tenant.submitted,
                "tenant {} books do not balance", id
            );
            prop_assert_eq!(tenant.rejected, 0);
        }
        prop_assert_eq!(t.tenants.values().map(|x| x.quota_shed).sum::<u64>(), t.quota_shed);
        prop_assert_eq!(t.tenants.values().map(|x| x.capacity_shed).sum::<u64>(), t.capacity_shed);
        // Dispatch totals count exactly the admitted requests — which,
        // after a full run with its final drain, is exactly the answered.
        prop_assert_eq!(t.dispatched.iter().sum::<u64>(), t.answered());

        // Same stream, same config: byte-identical replay.
        let again = Router::run(&m, cfg, &requests).unwrap();
        prop_assert_eq!(&run.responses, &again.responses);
        prop_assert_eq!(&run.telemetry, &again.telemetry);
    }

    // Property (b): one replica, no quota — the router is a transparent
    // wrapper. Responses AND telemetry are bitwise those of the bare engine.
    #[test]
    fn single_replica_router_is_bitwise_the_bare_engine(
        n in 1usize..80,
        seed in 0u64..1_000_000,
        max_batch in 1usize..12,
        delay in 0u64..400,
        queue_cap in 1usize..16,
        cache_sel in 0usize..3,
    ) {
        let cache = [0usize, 8, 64][cache_sel];
        let m = model();
        let routed_stream = stream(n, 3, seed, 30);
        let timed_stream: Vec<TimedRequest> = routed_stream
            .iter()
            .map(|r| TimedRequest::new(r.at_nanos, r.input.clone()))
            .collect();
        let serve = ServeConfig {
            max_batch,
            max_delay_nanos: delay,
            queue_cap,
            cache_capacity: cache,
            concurrency: Concurrency::Serial,
        };
        let bare = ServingEngine::run(&m, serve.clone(), &timed_stream).unwrap();
        let routed = Router::run(
            &m,
            RouteConfig {
                replicas: 1,
                policy: DispatchPolicy::ConsistentHash,
                tenant_quota: None,
                serve,
            },
            &routed_stream,
        ).unwrap();

        prop_assert_eq!(routed.responses.len(), bare.responses.len());
        for (slot, (r, b)) in routed.responses.iter().zip(&bare.responses).enumerate() {
            match (r, b) {
                (None, None) => {}
                (Some(r), Some(b)) => {
                    prop_assert_eq!(r.id, b.id);
                    prop_assert_eq!(r.replica, 0usize);
                    prop_assert_eq!(&r.probs, &b.probs, "slot {} probs diverge", slot);
                    prop_assert_eq!(r.predicted, b.predicted);
                    prop_assert_eq!(r.latency_nanos, b.latency_nanos);
                    prop_assert_eq!(r.batch_size, b.batch_size);
                    prop_assert_eq!(r.cache_hit, b.cache_hit);
                }
                _ => prop_assert!(false, "slot {} shed on one side only", slot),
            }
        }
        prop_assert_eq!(routed.telemetry.replicas.len(), 1);
        prop_assert_eq!(&routed.telemetry.replicas[0], &bare.telemetry,
            "replica telemetry must be the bare engine's, field for field");
        prop_assert_eq!(routed.telemetry.quota_shed, 0);
    }

    // Property (c): consistent-hash dispatch is a pure function of the
    // input bits — the same row lands on the same replica across router
    // instances, across calls, and inside whole runs.
    #[test]
    fn consistent_hash_dispatch_is_stable(
        n in 1usize..60,
        seed in 0u64..1_000_000,
        replicas in 1usize..5,
    ) {
        let m = model();
        let requests = stream(n, 2, seed, 40);
        let cfg = route_config(replicas, DispatchPolicy::ConsistentHash, None, 4, 200, 4096, 16);
        let clock = VirtualClock::new();
        let router_a = Router::new(&m, cfg.clone(), &clock).unwrap();
        let router_b = Router::new(&m, cfg.clone(), &clock).unwrap();
        let mut by_bits: std::collections::BTreeMap<Vec<u32>, usize> = std::collections::BTreeMap::new();
        for r in &requests {
            let target = router_a.dispatch(&r.input);
            prop_assert!(target < replicas);
            prop_assert_eq!(target, router_a.dispatch(&r.input), "dispatch must be pure");
            prop_assert_eq!(target, router_b.dispatch(&r.input),
                "dispatch must not depend on router identity");
            let bits: Vec<u32> = r.input.iter().map(|v| v.to_bits()).collect();
            if let Some(&prev) = by_bits.get(&bits) {
                prop_assert_eq!(prev, target, "same bits, different replica");
            }
            by_bits.insert(bits, target);
        }
        // A whole run honors the same mapping: every answered response sits
        // on the replica `dispatch` predicts for its input.
        let run = Router::run(&m, cfg, &requests).unwrap();
        for (slot, r) in run.responses.iter().enumerate() {
            if let Some(r) = r {
                prop_assert_eq!(r.replica, router_a.dispatch(&requests[slot].input),
                    "slot {} answered off its hash replica", slot);
            }
        }
    }

    // Property (d): quota isolation. Tenant 0 floods same-instant bursts;
    // tenant 1 sends sparse singletons with gaps longer than the batch
    // deadline, so it never holds more than one request in flight. With
    // queue_cap >= tenants * quota the fleet can always absorb every
    // within-quota request, so tenant 1 must come through untouched.
    #[test]
    fn within_quota_tenant_is_isolated_from_a_flooding_neighbor(
        bursts in 1usize..10,
        burst_size in 4usize..12,
        seed in 0u64..1_000_000,
        replicas in 1usize..5,
        quota in 1usize..4,
        max_batch in 1usize..6,
    ) {
        let m = model();
        let mut rng = StdRng::seed_from_u64(seed);
        let max_delay = 200u64;
        let mut requests: Vec<RoutedRequest> = Vec::new();
        for b in 0..bursts {
            // Tenant 1 first at this instant, then the flood: admission is
            // order-sensitive, so this is the adversarial arrangement where
            // the flood could otherwise evict the sparse tenant's slot.
            let t = b as u64 * (max_delay * 3);
            requests.push(RoutedRequest::new(
                t,
                1,
                Tensor::randn(&[1, INPUT_DIM], 1.0, &mut rng).into_vec(),
            ));
            for _ in 0..burst_size {
                requests.push(RoutedRequest::new(
                    t,
                    0,
                    Tensor::randn(&[1, INPUT_DIM], 1.0, &mut rng).into_vec(),
                ));
            }
        }
        let cfg = route_config(
            replicas,
            DispatchPolicy::ConsistentHash,
            Some(quota),
            max_batch,
            max_delay,
            2 * quota, // per-replica queues jointly cover both quotas
            0,
        );
        let run = Router::run(&m, cfg, &requests).unwrap();
        let t = &run.telemetry;
        let sparse = t.tenants.get(&1).expect("tenant 1 submitted");
        prop_assert_eq!(sparse.submitted, bursts as u64);
        prop_assert_eq!(sparse.quota_shed, 0, "tenant 1 stayed within quota");
        prop_assert_eq!(sparse.capacity_shed, 0,
            "within-quota tenant must never be capacity-shed");
        prop_assert_eq!(sparse.answered, sparse.submitted);
        // The flood really was a flood — otherwise this proves nothing.
        if burst_size > quota {
            let flood = t.tenants.get(&0).expect("tenant 0 submitted");
            prop_assert!(flood.quota_shed > 0, "flood must trip the quota gate");
        }
    }

    // Property (e): routing, batching, caching, and replica placement are
    // all invisible to the answer — probabilities are bitwise the
    // single-request path's.
    #[test]
    fn answered_probs_match_single_request_predictions(
        n in 1usize..50,
        tenants in 1u32..4,
        seed in 0u64..1_000_000,
        replicas in 1usize..5,
        policy_sel in 0usize..2,
        max_batch in 1usize..10,
        delay in 0u64..300,
    ) {
        let policy = [DispatchPolicy::ConsistentHash, DispatchPolicy::LeastLoaded][policy_sel];
        let m = model();
        let requests = stream(n, tenants, seed, 40);
        let cfg = route_config(replicas, policy, None, max_batch, delay, 4096, 32);
        let run = Router::run(&m, cfg, &requests).unwrap();
        for (slot, r) in run.responses.iter().enumerate() {
            let r = r.as_ref().expect("queue_cap 4096 admits everything");
            let x = Tensor::from_vec(requests[slot].input.clone()).reshaped(&[1, INPUT_DIM]);
            let one = m.predict_proba(&x);
            prop_assert_eq!(r.probs.as_slice(), one.row(0),
                "slot {} diverges from the single-request path", slot);
        }
    }
}

/// Deterministic non-proptest anchor used by `scripts/check.sh router`:
/// one fixed multi-tenant stream at 3 replicas, asserted identical across
/// serial and threaded replica engines (the step runs this file twice,
/// with and without `TAGLETS_THREADS=4`), with all three shed causes
/// accounted.
#[test]
fn fixed_stream_routes_identically_at_any_worker_count() {
    let m = model();
    let requests = stream(72, 3, 4321, 40);
    let cfg = route_config(3, DispatchPolicy::ConsistentHash, Some(4), 4, 150, 4, 32);
    let a = Router::run(&m, cfg.clone(), &requests).unwrap();
    let b = Router::run(&m, cfg, &requests).unwrap();
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.telemetry, b.telemetry);
    assert_eq!(a.telemetry.submitted(), 72);
    assert_eq!(
        a.telemetry.answered() + a.telemetry.shed(),
        a.telemetry.submitted()
    );
    assert!(
        a.telemetry.replicas.iter().any(|r| r.cache_hits > 0),
        "fixture must exercise a replica cache"
    );
}
