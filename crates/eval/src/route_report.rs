//! Rendering of routing telemetry ([`RouteTelemetry`]) as text and JSON.
//!
//! Both renderings are deterministic functions of the telemetry — no
//! timestamps, no unordered-map iteration (tenants live in a `BTreeMap`,
//! replicas in a `Vec`) — so they are pinned by golden files
//! (`tests/route_golden.rs`, regenerate with `UPDATE_GOLDEN=1`).

use taglets_core::RouteTelemetry;

use crate::TextTable;

/// Renders a human-readable routing report: fleet-wide counter summary,
/// the per-replica dispatch/latency table, and the per-tenant accounting
/// table (quota shed split from capacity shed).
pub fn render_route_text(t: &RouteTelemetry) -> String {
    let mut out = String::new();
    out.push_str("routing telemetry\n");
    out.push_str("=================\n");
    out.push_str(&format!(
        "policy     {}  replicas {}\n",
        t.policy.name(),
        t.replicas.len()
    ));
    out.push_str(&format!(
        "requests   submitted {}  answered {}  quota-shed {}  capacity-shed {}  rejected {}\n",
        t.submitted(),
        t.answered(),
        t.quota_shed,
        t.capacity_shed,
        t.rejected
    ));
    let merged = t.merged_latency();
    out.push_str(&format!(
        "latency    p50 <= {} ns  p99 <= {} ns  (merged across replicas)\n",
        merged.quantile_upper_nanos(0.5),
        merged.quantile_upper_nanos(0.99)
    ));
    out.push_str(&format!(
        "dispatch   shed-rate {:.3}  imbalance {:.2}\n",
        t.shed_rate(),
        t.dispatch_imbalance()
    ));

    if !t.replicas.is_empty() {
        out.push('\n');
        let mut table = TextTable::new(vec![
            "replica".into(),
            "dispatched".into(),
            "answered".into(),
            "shed".into(),
            "batches".into(),
            "p50 (ns)".into(),
            "p99 (ns)".into(),
        ]);
        for (k, replica) in t.replicas.iter().enumerate() {
            table.row(vec![
                k.to_string(),
                t.dispatched.get(k).copied().unwrap_or(0).to_string(),
                replica.answered.to_string(),
                replica.shed.to_string(),
                replica.batches.to_string(),
                replica.latency.quantile_upper_nanos(0.5).to_string(),
                replica.latency.quantile_upper_nanos(0.99).to_string(),
            ]);
        }
        out.push_str(&table.render());
    }

    if !t.tenants.is_empty() {
        out.push('\n');
        let mut table = TextTable::new(vec![
            "tenant".into(),
            "submitted".into(),
            "answered".into(),
            "quota-shed".into(),
            "capacity-shed".into(),
            "rejected".into(),
        ]);
        for (id, tenant) in &t.tenants {
            table.row(vec![
                id.to_string(),
                tenant.submitted.to_string(),
                tenant.answered.to_string(),
                tenant.quota_shed.to_string(),
                tenant.capacity_shed.to_string(),
                tenant.rejected.to_string(),
            ]);
        }
        out.push_str(&table.render());
    }
    out
}

/// Renders routing telemetry as a single JSON object (std-only writer, keys
/// in fixed order). Per-replica rows nest the replica's own serving JSON
/// keys; tenants are emitted in ascending id order.
pub fn render_route_json(t: &RouteTelemetry) -> String {
    let merged = t.merged_latency();
    let mut out = String::new();
    out.push_str("{\n");
    let mut field = |key: &str, value: String, last: bool| {
        out.push_str(&format!("  \"{key}\": {value}"));
        out.push_str(if last { "\n" } else { ",\n" });
    };
    field("policy", format!("\"{}\"", t.policy.name()), false);
    field("replicas", t.replicas.len().to_string(), false);
    field("submitted", t.submitted().to_string(), false);
    field("answered", t.answered().to_string(), false);
    field("quota_shed", t.quota_shed.to_string(), false);
    field("capacity_shed", t.capacity_shed.to_string(), false);
    field("rejected", t.rejected.to_string(), false);
    field("shed_rate", format!("{:.4}", t.shed_rate()), false);
    field(
        "dispatch_imbalance",
        format!("{:.4}", t.dispatch_imbalance()),
        false,
    );
    field(
        "latency_p50_upper_nanos",
        merged.quantile_upper_nanos(0.5).to_string(),
        false,
    );
    field(
        "latency_p99_upper_nanos",
        merged.quantile_upper_nanos(0.99).to_string(),
        false,
    );
    let dispatched: Vec<String> = t.dispatched.iter().map(u64::to_string).collect();
    field("dispatched", format!("[{}]", dispatched.join(", ")), false);
    let replica_rows: Vec<String> = t
        .replicas
        .iter()
        .map(|r| {
            format!(
                "    {{\"answered\": {}, \"shed\": {}, \"batches\": {}, \"cache_hits\": {}, \
                 \"p50_upper_nanos\": {}, \"p99_upper_nanos\": {}}}",
                r.answered,
                r.shed,
                r.batches,
                r.cache_hits,
                r.latency.quantile_upper_nanos(0.5),
                r.latency.quantile_upper_nanos(0.99)
            )
        })
        .collect();
    field(
        "replica_telemetry",
        if replica_rows.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n  ]", replica_rows.join(",\n"))
        },
        false,
    );
    let tenant_rows: Vec<String> = t
        .tenants
        .iter()
        .map(|(id, tenant)| {
            format!(
                "    {{\"tenant\": {}, \"submitted\": {}, \"answered\": {}, \"quota_shed\": {}, \
                 \"capacity_shed\": {}, \"rejected\": {}}}",
                id,
                tenant.submitted,
                tenant.answered,
                tenant.quota_shed,
                tenant.capacity_shed,
                tenant.rejected
            )
        })
        .collect();
    field(
        "tenants",
        if tenant_rows.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n  ]", tenant_rows.join(",\n"))
        },
        true,
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use taglets_core::{DispatchPolicy, RouteConfig, RoutedRequest, Router, ServableModel};

    fn sample_telemetry() -> RouteTelemetry {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let clf = taglets_nn::Classifier::from_dims(&[3, 6], 2, 0.0, &mut rng);
        let model = ServableModel::new(clf);
        let stream: Vec<RoutedRequest> = (0..12)
            .map(|i| {
                RoutedRequest::new(
                    i as u64 * 40,
                    (i % 2) as u32,
                    vec![i as f32 % 3.0, 1.0, -0.5],
                )
            })
            .collect();
        let cfg = RouteConfig {
            replicas: 2,
            policy: DispatchPolicy::ConsistentHash,
            tenant_quota: Some(3),
            ..RouteConfig::default()
        };
        Router::run(&model, cfg, &stream).unwrap().telemetry
    }

    #[test]
    fn text_rendering_covers_counters_and_tables() {
        let t = sample_telemetry();
        let text = render_route_text(&t);
        assert!(text.contains("routing telemetry"));
        assert!(text.contains("consistent-hash"));
        assert!(text.contains(&format!("submitted {}", t.submitted())));
        assert!(text.contains("replica"));
        assert!(text.contains("tenant"));
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let t = sample_telemetry();
        let json = render_route_json(&t);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        for key in [
            "\"policy\"",
            "\"quota_shed\"",
            "\"capacity_shed\"",
            "\"dispatched\"",
            "\"replica_telemetry\"",
            "\"tenants\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",\n}"));
    }
}
