//! Multi-replica serving-router baseline: deterministic load-generator
//! tapes replayed at 1, 2, and 4 replicas under every [`TrafficShape`].
//!
//! Default mode prints a table and writes `results/serving_router.txt`;
//! with `--json` it additionally writes the machine-readable baseline
//! `BENCH_serving.json` at the workspace root, one record per
//! (shape, replicas) with virtual-time sustained QPS, p50/p99 latency
//! bounds, the shed-rate split, and a wall-clock ns/request figure.
//!
//! Two kinds of numbers live in each record, and only one of them is
//! machine-dependent:
//!
//! * **Virtual-time metrics** (sustained QPS, p50/p99, shed rate, shed
//!   split) come from replaying the tape through the `VirtualClock` driver
//!   in [`Router::run`]. They are exact, reproducible integers/ratios —
//!   the same on every box — and the bench asserts so by replaying every
//!   configuration twice and requiring byte-identical telemetry JSON
//!   before timing anything. CI diffs these fields.
//! * **Wall-clock ns/request** is real machine time, measured min-of-9
//!   with the 1-replica run of the same shape interleaved in the same
//!   window (the `BENCH_kernels.json` pairing trick), so the
//!   replicas-vs-baseline ratio survives clock drift. CI does not diff
//!   these fields.

use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use taglets_bench::{
    generate_traffic, tape_span_nanos, write_results, TrafficConfig, TrafficShape,
};
use taglets_core::{
    Concurrency, DispatchPolicy, RouteConfig, RouteTelemetry, RoutedRequest, Router, ServableModel,
    ServeConfig,
};
use taglets_eval::render_route_json;

/// One replayed-and-timed configuration.
struct Record {
    shape: &'static str,
    replicas: usize,
    policy: &'static str,
    requests: usize,
    offered_qps: f64,
    sustained_qps: f64,
    p50_upper_nanos: u64,
    p99_upper_nanos: u64,
    shed_rate: f64,
    quota_shed: u64,
    capacity_shed: u64,
    wall_ns_per_request: u128,
}

/// The router config a tape is replayed under at `replicas` replicas. One
/// deliberately tight queue (`queue_cap` < burst size) so the bursty and
/// tenant-skewed tapes shed for real at low replica counts, plus a tenant
/// quota on the skewed tape so both shed causes appear in the baseline.
fn route_config(shape: TrafficShape, replicas: usize) -> RouteConfig {
    RouteConfig {
        replicas,
        policy: DispatchPolicy::ConsistentHash,
        tenant_quota: match shape {
            TrafficShape::TenantSkewed => Some(3),
            _ => None,
        },
        serve: ServeConfig {
            max_batch: 4,
            max_delay_nanos: 400,
            queue_cap: 4,
            cache_capacity: 64,
            concurrency: Concurrency::Serial,
        },
    }
}

fn traffic_config(shape: TrafficShape) -> TrafficConfig {
    TrafficConfig {
        shape,
        requests: 600,
        tenants: 4,
        mean_gap_nanos: 120,
        input_dim: 8,
        unique_inputs: 48,
        seed: 0x5E21 + shape as u64,
    }
}

/// Replays one configuration and returns its telemetry, after asserting
/// the replay is deterministic: run twice, require the rendered JSON to be
/// byte-identical. This is the gate half of the bench — it runs in every
/// mode, so `scripts/check.sh bench-serving` fails on a determinism
/// regression even without `--json`.
fn replay(model: &ServableModel, cfg: &RouteConfig, tape: &[RoutedRequest]) -> RouteTelemetry {
    let a = Router::run(model, cfg.clone(), tape)
        .expect("bench replay succeeds")
        .telemetry;
    let b = Router::run(model, cfg.clone(), tape)
        .expect("bench replay succeeds")
        .telemetry;
    assert_eq!(
        render_route_json(&a),
        render_route_json(&b),
        "same tape, same config must replay to byte-identical telemetry"
    );
    a
}

/// Paired min-of-9 wall-clock timing (same interleaving as the kernels
/// bench): samples of the baseline and the candidate alternate inside one
/// window so shared-box clock drift cancels out of the ratio.
fn time_pair(mut fa: impl FnMut(), mut fb: impl FnMut()) -> (u128, u128) {
    let calibrate = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let once = start.elapsed().as_nanos().max(1);
        (25_000_000 / once).clamp(1, 50) as u32
    };
    let ia = calibrate(&mut fa);
    let ib = calibrate(&mut fb);
    let sample = |f: &mut dyn FnMut(), iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() / iters as u128
    };
    let (mut best_a, mut best_b) = (u128::MAX, u128::MAX);
    for _ in 0..9 {
        best_a = best_a.min(sample(&mut fa, ia));
        best_b = best_b.min(sample(&mut fb, ib));
    }
    (best_a, best_b)
}

fn record(
    shape: TrafficShape,
    replicas: usize,
    tape: &[RoutedRequest],
    telemetry: &RouteTelemetry,
    wall_ns: u128,
) -> Record {
    let span = tape_span_nanos(tape).max(1) as f64;
    let merged = telemetry.merged_latency();
    Record {
        shape: shape.name(),
        replicas,
        policy: telemetry.policy.name(),
        requests: tape.len(),
        offered_qps: tape.len() as f64 * 1e9 / span,
        sustained_qps: telemetry.answered() as f64 * 1e9 / span,
        p50_upper_nanos: merged.quantile_upper_nanos(0.5),
        p99_upper_nanos: merged.quantile_upper_nanos(0.99),
        shed_rate: telemetry.shed_rate(),
        quota_shed: telemetry.quota_shed,
        capacity_shed: telemetry.capacity_shed,
        wall_ns_per_request: wall_ns / tape.len().max(1) as u128,
    }
}

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    let mut rng = StdRng::seed_from_u64(0x5E21);
    let model = ServableModel::new(taglets_nn::Classifier::from_dims(
        &[8, 16, 8],
        4,
        0.0,
        &mut rng,
    ));

    let mut records: Vec<Record> = Vec::new();
    for shape in TrafficShape::ALL {
        let tape = generate_traffic(&traffic_config(shape));
        let base_cfg = route_config(shape, 1);
        let base_telemetry = replay(&model, &base_cfg, &tape);

        // Wall-clock: each scaled replica count shares a timing window with
        // the 1-replica baseline of the same shape/tape.
        let mut base_ns = u128::MAX;
        let mut scaled: Vec<(usize, RouteTelemetry, u128)> = Vec::new();
        for replicas in [2usize, 4] {
            let cfg = route_config(shape, replicas);
            let telemetry = replay(&model, &cfg, &tape);
            let (a, b) = time_pair(
                || {
                    std::hint::black_box(
                        Router::run(&model, base_cfg.clone(), &tape)
                            .expect("bench replay succeeds"),
                    );
                },
                || {
                    std::hint::black_box(
                        Router::run(&model, cfg.clone(), &tape).expect("bench replay succeeds"),
                    );
                },
            );
            base_ns = base_ns.min(a);
            scaled.push((replicas, telemetry, b));
        }
        records.push(record(shape, 1, &tape, &base_telemetry, base_ns));
        for (replicas, telemetry, ns) in scaled {
            records.push(record(shape, replicas, &tape, &telemetry, ns));
        }
    }

    let mut out = String::from(
        "Serving router — deterministic tapes at 1/2/4 replicas (virtual-time \
         metrics are exact; wall ns/req is machine time)\n\n",
    );
    out.push_str(&format!(
        "{:<14} {:>8} {:>6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9} {:>12}\n",
        "shape",
        "replicas",
        "reqs",
        "offered/s",
        "sustained/s",
        "p50 (ns)",
        "p99 (ns)",
        "shed-rate",
        "quota",
        "capacity",
        "wall ns/req"
    ));
    for r in &records {
        out.push_str(&format!(
            "{:<14} {:>8} {:>6} {:>12.0} {:>12.0} {:>10} {:>10} {:>10.4} {:>9} {:>9} {:>12}\n",
            r.shape,
            r.replicas,
            r.requests,
            r.offered_qps,
            r.sustained_qps,
            r.p50_upper_nanos,
            r.p99_upper_nanos,
            r.shed_rate,
            r.quota_shed,
            r.capacity_shed,
            r.wall_ns_per_request
        ));
    }
    // Headline: how much shed the fleet absorbs going 1 -> 4 replicas on
    // the bursty tape, the capacity-pressure story in one ratio.
    let shed_at = |shape: &str, replicas: usize| -> f64 {
        records
            .iter()
            .find(|r| r.shape == shape && r.replicas == replicas)
            .map_or(0.0, |r| r.shed_rate)
    };
    out.push_str(&format!(
        "\nbursty shed-rate by replica count: 1x {:.4}, 2x {:.4}, 4x {:.4}\n",
        shed_at("bursty", 1),
        shed_at("bursty", 2),
        shed_at("bursty", 4)
    ));
    out.push_str(&format!(
        "tenant-skewed shed-rate by replica count: 1x {:.4}, 2x {:.4}, 4x {:.4}\n",
        shed_at("tenant-skewed", 1),
        shed_at("tenant-skewed", 2),
        shed_at("tenant-skewed", 4)
    ));
    write_results("serving_router", &out);

    if json_mode {
        let mut json = String::from(
            "{\n  \"bench\": \"serving\",\n  \"unit\": {\"sustained_qps\": \"answered per \
             virtual second (exact, replayable)\", \"wall_ns_per_request\": \"min of 9 \
             interleaved samples (machine time, not diffed)\"},\n  \"results\": [\n",
        );
        for (i, r) in records.iter().enumerate() {
            // Every replica serves the f32 forward pass; the `path` key keeps
            // the row schema of earlier baselines so rows stay diffable.
            json.push_str(&format!(
                "    {{\"shape\": \"{}\", \"replicas\": {}, \"path\": \"f32\", \"policy\": \"{}\", \
                 \"requests\": {}, \
                 \"offered_qps\": {:.2}, \"sustained_qps\": {:.2}, \"p50_upper_nanos\": {}, \
                 \"p99_upper_nanos\": {}, \"shed_rate\": {:.4}, \"quota_shed\": {}, \
                 \"capacity_shed\": {}, \"wall_ns_per_request\": {}}}{}\n",
                r.shape,
                r.replicas,
                r.policy,
                r.requests,
                r.offered_qps,
                r.sustained_qps,
                r.p50_upper_nanos,
                r.p99_upper_nanos,
                r.shed_rate,
                r.quota_shed,
                r.capacity_shed,
                r.wall_ns_per_request,
                if i + 1 == records.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|m| std::path::Path::new(&m).join("../.."))
            .unwrap_or_else(|_| std::path::Path::new(".").to_path_buf());
        let path = root.join("BENCH_serving.json");
        std::fs::write(&path, &json).expect("write BENCH_serving.json");
        eprintln!("[written to {}]", path.display());
        println!("{json}");
    }
}
