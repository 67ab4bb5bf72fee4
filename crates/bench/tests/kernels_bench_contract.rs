//! Contract tests for the kernel baseline.
//!
//! The checked-in `BENCH_kernels.json` at the workspace root is the file
//! downstream tooling diffs PR-over-PR, so its schema is pinned here: a
//! bench refactor that drops a key or a row family fails this test, not
//! whatever script consumes the file next. Every row carries `epilogue`
//! ("none" / "bias_relu") and `dtype` (always "f32"), and the header
//! records the host's core count and the timing protocol. Beyond the
//! blocked-vs-reference sweep, five row families are pinned: post-ReLU
//! products at the system's training shapes, prepacked vs per-call-packed
//! weight panels, fused-vs-unfused linear forwards at serving micro-batch
//! shapes, sparse-vs-dense neighbour aggregation at the smoke SCADS
//! adjacency, and `taglets_tensor::math` against the host libm at the
//! shapes the system evaluates transcendentals at.
//!
//! The perf *ratios* themselves are asserted inside the bench binary
//! (`scripts/check.sh bench-kernels`), which also re-verifies bitwise
//! identity before timing — this file only pins what the baseline
//! artifact must contain.

fn baseline() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "BENCH_kernels.json missing at {} ({e}) — regenerate with \
             `cargo bench -p taglets-bench --bench kernels -- --json`",
            path.display()
        )
    })
}

#[test]
fn baseline_has_the_pinned_top_level_shape() {
    let json = baseline();
    assert!(json.contains("\"bench\": \"kernels\""));
    assert!(json.contains("\"unit\""));
    assert!(json.contains("\"results\""));
}

#[test]
fn header_records_cores_and_protocol() {
    let json = baseline();
    let header = json
        .split_once("\"results\"")
        .map(|(head, _)| head)
        .expect("baseline has a results array");
    let cores = header
        .split_once("\"cores\": ")
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|v| v.trim().parse::<usize>().ok())
        .expect("header records \"cores\" as a count");
    assert!(cores >= 1, "core count {cores}");
    assert!(
        header.contains("\"protocol\": \""),
        "header records the timing \"protocol\""
    );
}

#[test]
fn post_relu_rows_cover_the_training_shapes() {
    let json = baseline();
    for (op, m, k, n) in [
        ("matmul_post_relu", 128usize, 96usize, 64usize),
        ("matmul_tn_post_relu", 96, 128, 64),
        ("matmul_post_relu", 64, 64, 64),
        ("matmul_tn_post_relu", 64, 64, 64),
    ] {
        for imp in ["reference", "blocked", "blocked_skip"] {
            let row = format!(
                "\"op\": \"{op}\", \"impl\": \"{imp}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
                 \"epilogue\": \"none\", \"dtype\": \"f32\""
            );
            assert!(
                json.contains(&row),
                "BENCH_kernels.json missing the {imp} {op} row at {m}x{k}x{n}"
            );
        }
    }
}

#[test]
fn every_row_carries_every_diffed_key() {
    let json = baseline();
    let results = json
        .split_once("\"results\"")
        .map(|(_, rest)| rest)
        .expect("baseline has a results array");
    let rows = results.matches("\"op\"").count();
    assert!(rows > 0, "baseline has at least one result row");
    for key in [
        "\"impl\"",
        "\"m\"",
        "\"k\"",
        "\"n\"",
        "\"epilogue\"",
        "\"dtype\"",
        "\"ns_per_iter\"",
        "\"gflops\"",
    ] {
        assert_eq!(
            results.matches(key).count(),
            rows,
            "expected {key} on all {rows} rows"
        );
    }
}

#[test]
fn fused_epilogue_rows_cover_the_micro_batch_shapes() {
    let json = baseline();
    for (m, k, n) in [
        (4usize, 8usize, 64usize),
        (8, 8, 64),
        (8, 8, 512),
        (64, 8, 256),
        (8, 64, 64),
        (8, 256, 256),
    ] {
        for imp in ["unfused", "fused"] {
            let row = format!(
                "\"op\": \"linear\", \"impl\": \"{imp}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
                 \"epilogue\": \"bias_relu\", \"dtype\": \"f32\""
            );
            assert!(
                json.contains(&row),
                "BENCH_kernels.json missing the {imp} epilogue row at {m}x{k}x{n}"
            );
        }
    }
}

#[test]
fn prepacked_rows_cover_the_serving_sweep() {
    let json = baseline();
    for m in [8usize, 64, 256] {
        for imp in ["repack", "prepacked"] {
            let row = format!(
                "\"op\": \"matmul\", \"impl\": \"{imp}\", \"m\": {m}, \"k\": 256, \"n\": 256, \
                 \"epilogue\": \"none\", \"dtype\": \"f32\""
            );
            assert!(
                json.contains(&row),
                "BENCH_kernels.json missing the {imp} row at {m}x256x256"
            );
        }
    }
}

#[test]
fn every_row_is_f32() {
    let json = baseline();
    let rows = json.matches("\"op\"").count();
    assert_eq!(json.matches("\"dtype\": \"f32\"").count(), rows);
}

#[test]
fn aggregation_rows_cover_the_smoke_scads_shape() {
    let json = baseline();
    for op in ["aggregate", "aggregate_tn"] {
        for width in [28usize, 128] {
            for imp in ["dense", "sparse"] {
                let row = format!(
                    "\"op\": \"{op}\", \"impl\": \"{imp}\", \"m\": 350, \"k\": 350, \
                     \"n\": {width}, \"epilogue\": \"none\", \"dtype\": \"f32\""
                );
                assert!(
                    json.contains(&row),
                    "BENCH_kernels.json missing the {imp} {op} row at width {width}"
                );
            }
        }
    }
}

#[test]
fn math_rows_cover_the_system_shapes() {
    let json = baseline();
    for (op, m, n) in [
        ("tanh", 350usize, 128usize),
        ("log_softmax", 128, 350),
        ("log_softmax", 64, 42),
        ("randn", 1, 48),
    ] {
        for imp in ["std", "math"] {
            let row = format!(
                "\"op\": \"{op}\", \"impl\": \"{imp}\", \"m\": {m}, \"k\": 1, \"n\": {n}, \
                 \"epilogue\": \"none\", \"dtype\": \"f32\""
            );
            assert!(
                json.contains(&row),
                "BENCH_kernels.json missing the {imp} {op} row at {m}x{n}"
            );
        }
    }
}
