//! Rendering of serving telemetry ([`ServeTelemetry`]) as text and JSON.
//!
//! Both renderings are deterministic functions of the telemetry — no
//! timestamps, no map iteration — so they are pinned by golden files
//! (`tests/serve_golden.rs`, regenerate with `UPDATE_GOLDEN=1`).

use taglets_core::serve::{LatencyHistogram, LATENCY_BUCKETS};
use taglets_core::ServeTelemetry;

use crate::TextTable;

/// Renders a human-readable serving report: counter summary, batch-size
/// distribution, and the non-empty latency buckets.
pub fn render_serve_text(t: &ServeTelemetry) -> String {
    let mut out = String::new();
    out.push_str("serving telemetry\n");
    out.push_str("=================\n");
    out.push_str(&format!(
        "requests   submitted {}  admitted {}  answered {}  shed {}  rejected {}\n",
        t.submitted, t.admitted, t.answered, t.shed, t.rejected
    ));
    out.push_str(&format!(
        "cache      hits {}  misses {}  hit-rate {:.3}\n",
        t.cache_hits,
        t.cache_misses,
        t.cache_hit_rate()
    ));
    out.push_str(&format!(
        "batches    executed {}  mean-size {:.2}  full {}  deadline {}  drain {}\n",
        t.batches,
        t.mean_batch_size(),
        t.full_flushes,
        t.deadline_flushes,
        t.drain_flushes
    ));
    out.push_str(&format!(
        "latency    p50 <= {} ns  p99 <= {} ns\n",
        t.latency.quantile_upper_nanos(0.5),
        t.latency.quantile_upper_nanos(0.99)
    ));

    let sizes: Vec<(usize, u64)> = t
        .batch_sizes
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(n, &c)| (n, c))
        .collect();
    if !sizes.is_empty() {
        out.push('\n');
        let mut table = TextTable::new(vec!["batch size".into(), "count".into()]);
        for (n, c) in sizes {
            table.row(vec![n.to_string(), c.to_string()]);
        }
        out.push_str(&table.render());
    }

    let buckets = nonzero_buckets(&t.latency);
    if !buckets.is_empty() {
        out.push('\n');
        let mut table = TextTable::new(vec!["latency bucket (ns)".into(), "count".into()]);
        for (i, c) in buckets {
            table.row(vec![bucket_label(i), c.to_string()]);
        }
        out.push_str(&table.render());
    }
    out
}

/// Renders serving telemetry as a single JSON object (std-only writer, keys
/// in fixed order). Latency buckets are emitted sparsely as
/// `[[bucket_index, count], ...]`.
pub fn render_serve_json(t: &ServeTelemetry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let mut field = |key: &str, value: String, last: bool| {
        out.push_str(&format!("  \"{key}\": {value}"));
        out.push_str(if last { "\n" } else { ",\n" });
    };
    field("submitted", t.submitted.to_string(), false);
    field("admitted", t.admitted.to_string(), false);
    field("answered", t.answered.to_string(), false);
    field("shed", t.shed.to_string(), false);
    field("rejected", t.rejected.to_string(), false);
    field("cache_hits", t.cache_hits.to_string(), false);
    field("cache_misses", t.cache_misses.to_string(), false);
    field(
        "cache_hit_rate",
        format!("{:.4}", t.cache_hit_rate()),
        false,
    );
    field("batches", t.batches.to_string(), false);
    field(
        "mean_batch_size",
        format!("{:.4}", t.mean_batch_size()),
        false,
    );
    field("full_flushes", t.full_flushes.to_string(), false);
    field("deadline_flushes", t.deadline_flushes.to_string(), false);
    field("drain_flushes", t.drain_flushes.to_string(), false);
    field(
        "latency_p50_upper_nanos",
        t.latency.quantile_upper_nanos(0.5).to_string(),
        false,
    );
    field(
        "latency_p99_upper_nanos",
        t.latency.quantile_upper_nanos(0.99).to_string(),
        false,
    );
    let sizes: Vec<String> = t
        .batch_sizes
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(n, &c)| format!("[{n}, {c}]"))
        .collect();
    field("batch_sizes", format!("[{}]", sizes.join(", ")), false);
    let buckets: Vec<String> = nonzero_buckets(&t.latency)
        .into_iter()
        .map(|(i, c)| format!("[{i}, {c}]"))
        .collect();
    field("latency_buckets", format!("[{}]", buckets.join(", ")), true);
    out.push_str("}\n");
    out
}

fn nonzero_buckets(h: &LatencyHistogram) -> Vec<(usize, u64)> {
    (0..LATENCY_BUCKETS)
        .filter(|&i| h.count(i) > 0)
        .map(|i| (i, h.count(i)))
        .collect()
}

/// `[lo, hi)` label for bucket `i`, with the saturated top bucket rendered
/// open-ended.
fn bucket_label(i: usize) -> String {
    let (lo, hi) = LatencyHistogram::bucket_range(i);
    if hi == u64::MAX {
        format!("[{lo}, inf)")
    } else {
        format!("[{lo}, {hi})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taglets_core::serve::{ServeConfig, ServingEngine, TimedRequest};
    use taglets_core::ServableModel;

    fn sample_telemetry() -> ServeTelemetry {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let clf = taglets_nn::Classifier::from_dims(&[3, 6], 2, 0.0, &mut rng);
        let model = ServableModel::new(clf);
        let stream: Vec<TimedRequest> = (0..10)
            .map(|i| {
                TimedRequest::new(
                    i as u64 * 40,
                    vec![i as f32 % 3.0, 1.0, -0.5], // some repeats → cache hits
                )
            })
            .collect();
        let cfg = ServeConfig {
            max_batch: 3,
            max_delay_nanos: 100,
            ..ServeConfig::default()
        };
        ServingEngine::run(&model, cfg, &stream).unwrap().telemetry
    }

    #[test]
    fn text_rendering_covers_counters_and_distributions() {
        let t = sample_telemetry();
        let text = render_serve_text(&t);
        assert!(text.contains("serving telemetry"));
        assert!(text.contains(&format!("submitted {}", t.submitted)));
        assert!(text.contains("batch size"));
        assert!(text.contains("latency bucket (ns)"));
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let t = sample_telemetry();
        let json = render_serve_json(&t);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        for key in [
            "\"submitted\"",
            "\"cache_hit_rate\"",
            "\"batch_sizes\"",
            "\"latency_buckets\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn bucket_labels_are_half_open_ranges() {
        assert_eq!(bucket_label(0), "[0, 1)");
        assert_eq!(bucket_label(4), "[8, 16)");
        assert_eq!(bucket_label(31), "[1073741824, inf)");
    }
}
