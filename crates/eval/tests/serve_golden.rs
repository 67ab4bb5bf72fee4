//! Golden-file tests for the serving-telemetry renderings: a fixed replay
//! through [`ServingEngine::run`] produces one deterministic
//! [`ServeTelemetry`], whose text and JSON renderings are compared against
//! checked-in expectations.
//!
//! Regenerate after an intentional rendering change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p taglets-eval --test serve_golden
//! ```

use std::fs;
use std::path::PathBuf;

use rand::{rngs::StdRng, SeedableRng};

use taglets_core::serve::{ServeConfig, ServingEngine, TimedRequest};
use taglets_core::{ServableModel, ServeTelemetry};
use taglets_eval::{render_serve_json, render_serve_text};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// One deterministic serving run: a bursty 40-request stream with repeats
/// (cache hits), a tiny queue (real shedding), and partial final batches.
fn fixed_telemetry() -> ServeTelemetry {
    let mut rng = StdRng::seed_from_u64(20_220_813);
    let model = ServableModel::new(taglets_nn::Classifier::from_dims(
        &[4, 10, 6],
        3,
        0.0,
        &mut rng,
    ));

    let base: Vec<Vec<f32>> = (0..20)
        .map(|_| taglets_tensor::Tensor::randn(&[1, 4], 1.0, &mut rng).into_vec())
        .collect();
    let stream: Vec<TimedRequest> = (0..40)
        .map(|i| {
            // Bursts of 10 at the same instant — more than the queue holds,
            // so some requests shed — with inputs cycling over 20 rows so
            // the second half hits the cache.
            TimedRequest::new((i / 10) as u64 * 90, base[i % 20].clone())
        })
        .collect();

    let cfg = ServeConfig {
        max_batch: 4,
        max_delay_nanos: 200,
        queue_cap: 6,
        cache_capacity: 32,
    };
    ServingEngine::run(&model, cfg, &stream)
        .expect("fixed replay succeeds")
        .telemetry
}

fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden_dir()).expect("golden dir is creatable");
        fs::write(&path, actual).expect("golden file is writable");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} diverged from its golden file — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn serve_text_rendering_matches_golden() {
    check(
        "serve_telemetry.txt",
        &render_serve_text(&fixed_telemetry()),
    );
}

#[test]
fn serve_json_rendering_matches_golden() {
    check(
        "serve_telemetry.json",
        &render_serve_json(&fixed_telemetry()),
    );
}

#[test]
fn fixed_replay_telemetry_is_stable() {
    // The goldens pin the *rendering*; this pins the underlying replay, so
    // a determinism regression is reported here rather than as a confusing
    // text diff.
    let a = fixed_telemetry();
    let b = fixed_telemetry();
    assert_eq!(a, b);
    assert_eq!(a.submitted, 40);
    assert!(a.cache_hits > 0, "fixture must exercise the cache");
    assert!(a.shed > 0, "fixture must exercise backpressure");
}
