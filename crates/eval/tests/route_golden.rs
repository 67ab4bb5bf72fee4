//! Golden-file tests for the routing-telemetry renderings: a fixed
//! multi-tenant replay through [`Router::run`] produces one deterministic
//! [`RouteTelemetry`], whose text and JSON renderings are compared against
//! checked-in expectations.
//!
//! Regenerate after an intentional rendering change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p taglets-eval --test route_golden
//! ```

use std::fs;
use std::path::PathBuf;

use rand::{rngs::StdRng, SeedableRng};

use taglets_core::{
    Concurrency, DispatchPolicy, RouteConfig, RouteTelemetry, RoutedRequest, Router, ServableModel,
    ServeConfig,
};
use taglets_eval::{render_route_json, render_route_text};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// One deterministic routing run: three tenants over three replicas, with
/// tenant 0 flooding in bursts (real quota shedding), repeated inputs (real
/// cache hits on the hash-affine replica), and a queue small enough that
/// capacity shedding fires too.
fn fixed_telemetry() -> RouteTelemetry {
    let mut rng = StdRng::seed_from_u64(20_220_813);
    let model = ServableModel::new(taglets_nn::Classifier::from_dims(
        &[4, 10, 6],
        3,
        0.0,
        &mut rng,
    ));

    let base: Vec<Vec<f32>> = (0..16)
        .map(|_| taglets_tensor::Tensor::randn(&[1, 4], 1.0, &mut rng).into_vec())
        .collect();
    let stream: Vec<RoutedRequest> = (0..60)
        .map(|i| {
            // Tenant 0 sends two of every three requests (the flood);
            // tenants 1 and 2 alternate on the remainder. Bursts of 12 at
            // one instant overwhelm both the quota and the queues.
            let tenant = match i % 3 {
                0 | 1 => 0,
                _ => 1 + ((i / 3) % 2) as u32,
            };
            RoutedRequest::new((i / 12) as u64 * 90, tenant, base[i % 16].clone())
        })
        .collect();

    let cfg = RouteConfig {
        replicas: 3,
        policy: DispatchPolicy::ConsistentHash,
        tenant_quota: Some(5),
        serve: ServeConfig {
            max_batch: 4,
            max_delay_nanos: 200,
            queue_cap: 4,
            cache_capacity: 32,
            concurrency: Concurrency::Serial,
        },
    };
    Router::run(&model, cfg, &stream)
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
fn route_text_rendering_matches_golden() {
    check(
        "route_telemetry.txt",
        &render_route_text(&fixed_telemetry()),
    );
}

#[test]
fn route_json_rendering_matches_golden() {
    check(
        "route_telemetry.json",
        &render_route_json(&fixed_telemetry()),
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
    assert_eq!(a.submitted(), 60);
    assert!(a.quota_shed > 0, "fixture must exercise the quota gate");
    assert!(a.capacity_shed > 0, "fixture must exercise queue pressure");
    assert!(
        a.replicas.iter().any(|r| r.cache_hits > 0),
        "fixture must exercise a replica cache"
    );
    assert_eq!(
        a.answered() + a.shed(),
        a.submitted(),
        "no request silently lost"
    );
}
