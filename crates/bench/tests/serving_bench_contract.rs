//! Contract tests for the serving-router baseline.
//!
//! Two promises are pinned here:
//!
//! 1. **Schema shape** — the checked-in `BENCH_serving.json` at the
//!    workspace root carries exactly the keys downstream tooling diffs,
//!    with a row for every (shape, replica-count) the bench sweeps. A
//!    bench refactor that drops a field or a row fails here, not in
//!    whatever script consumes the file next.
//! 2. **Byte-identical replay** — the determinism claim printed in the
//!    baseline ("sustained_qps is exact, replayable") is asserted: the
//!    same seeded tape replayed twice through [`Router::run`] renders to
//!    byte-identical telemetry JSON, for every shape and replica count
//!    the bench times.

use rand::{rngs::StdRng, SeedableRng};
use taglets_bench::{generate_traffic, TrafficConfig, TrafficShape};
use taglets_core::{DispatchPolicy, RouteConfig, Router, ServableModel};
use taglets_eval::render_route_json;

fn baseline() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "BENCH_serving.json missing at {} ({e}) — regenerate with \
             `cargo bench -p taglets-bench --bench serving_router -- --json`",
            path.display()
        )
    })
}

#[test]
fn baseline_has_the_pinned_top_level_shape() {
    let json = baseline();
    assert!(json.contains("\"bench\": \"serving\""));
    assert!(json.contains("\"unit\""));
    assert!(json.contains("\"results\""));
}

#[test]
fn baseline_rows_carry_every_diffed_key() {
    let json = baseline();
    // Count keys only inside the results array — `unit` mentions a couple
    // of them too, documenting their semantics.
    let results = json
        .split_once("\"results\"")
        .map(|(_, rest)| rest)
        .expect("baseline has a results array");
    for key in [
        "\"shape\"",
        "\"replicas\"",
        "\"path\"",
        "\"policy\"",
        "\"requests\"",
        "\"offered_qps\"",
        "\"sustained_qps\"",
        "\"p50_upper_nanos\"",
        "\"p99_upper_nanos\"",
        "\"shed_rate\"",
        "\"quota_shed\"",
        "\"capacity_shed\"",
        "\"wall_ns_per_request\"",
    ] {
        let rows = results.matches(key).count();
        assert_eq!(
            rows, 12,
            "expected {key} on all 12 rows (4 shapes x 3 replica counts), found {rows}"
        );
    }
}

#[test]
fn baseline_covers_every_shape_at_every_replica_count() {
    let json = baseline();
    for shape in TrafficShape::ALL {
        for replicas in [1usize, 2, 4] {
            let row = format!(
                "\"shape\": \"{}\", \"replicas\": {}, \"path\": \"f32\"",
                shape.name(),
                replicas
            );
            assert!(
                json.contains(&row),
                "BENCH_serving.json missing the ({}, {replicas}-replica, f32) row",
                shape.name()
            );
        }
    }
}

#[test]
fn same_seed_replays_to_byte_identical_telemetry() {
    let mut rng = StdRng::seed_from_u64(0x5E21);
    let model = ServableModel::new(taglets_nn::Classifier::from_dims(
        &[8, 16, 8],
        4,
        0.0,
        &mut rng,
    ));
    for shape in TrafficShape::ALL {
        let tape = generate_traffic(&TrafficConfig {
            shape,
            requests: 240,
            tenants: 3,
            mean_gap_nanos: 120,
            input_dim: 8,
            unique_inputs: 32,
            seed: 0xD00D + shape as u64,
        });
        for replicas in [1usize, 2, 4] {
            let cfg = RouteConfig {
                replicas,
                policy: DispatchPolicy::ConsistentHash,
                tenant_quota: Some(4),
                ..RouteConfig::default()
            };
            let a = Router::run(&model, cfg.clone(), &tape).expect("replay succeeds");
            let b = Router::run(&model, cfg, &tape).expect("replay succeeds");
            assert_eq!(
                render_route_json(&a.telemetry),
                render_route_json(&b.telemetry),
                "{} tape at {replicas} replicas must replay byte-identically",
                shape.name()
            );
            assert_eq!(a.responses, b.responses);
        }
    }
}
