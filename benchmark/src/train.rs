//! `train`: repeated `TagletsSystem::run` on one task at one shot count, so
//! every op does the same amount of work; only the training seed changes.

use std::time::Instant;

use taglets_scads::PruneLevel;

use crate::stats::{mean, sorted};
use crate::trace::Tracer;
use crate::world::Env;
use crate::{Outcome, Result};

/// The only standard task with out-of-vocabulary classes, so the select
/// stage also takes the SCADS write path (clone plus `add_concept`).
pub const TASK: &str = "grocery_store";
pub const SHOTS: usize = 1;
pub const SPLIT_SEED: u64 = 0;
/// Training seeds, one per op, cycled in this order.
pub const SEEDS: [u64; 4] = [0, 1, 2, 3];
/// Lowest acceptable mean end-model test accuracy over [`SEEDS`]: the
/// value measured when the benchmark was defined (0.7150) less five
/// points, so a speed-up that damages learning fails the run.
pub const ACC_FLOOR: f64 = 0.665;
/// (telemetry name, span name, metric name) of each module.
const MODULES: [(&str, &str, &str); 4] = [
    ("transfer", "nn.fit.transfer", "core.module.transfer_ms"),
    ("multitask", "nn.fit.multitask", "core.module.multitask_ms"),
    ("fixmatch", "nn.fit.fixmatch", "core.module.fixmatch_ms"),
    ("zsl-kg", "nn.fit.zsl-kg", "core.module.zsl-kg_ms"),
];
/// (telemetry name, span name, metric name) of each stage, in run order.
const STAGES: [(&str, &str, &str); 4] = [
    ("select", "core.select", "core.select_ms"),
    (
        "train_modules",
        "core.train_modules",
        "core.train_modules_ms",
    ),
    ("ensemble", "core.ensemble", "core.ensemble_ms"),
    ("distill", "core.distill", "core.distill_ms"),
];

struct Op {
    seed: u64,
    traced: bool,
    latency_s: f64,
    acc: f32,
    steps: usize,
    stage_s: Vec<f64>,
    module_s: Vec<f64>,
    fit_s: f64,
}

pub fn run(seconds: f64, tracer: &mut Tracer) -> Result<Outcome> {
    let tracing = tracer.is_on();
    let setup = Instant::now();
    let env = Env::build(tracer)?;
    let system = env.system();
    let task = env.task(TASK)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let split = task.split(SPLIT_SEED, SHOTS);

    let mut out = Outcome::default();
    // An untimed warm-up op, which the timed op with the same seed must
    // reproduce bitwise.
    tracer.set_on(false);
    let warm_acc = system
        .run(task, &split, PruneLevel::NoPruning, SEEDS[0])?
        .end_model
        .accuracy(&split.test_x, &split.test_y);
    let mut ops: Vec<Op> = Vec::new();
    let mut first_error = None;
    let window = Instant::now();
    // Whole passes over the seed list, so every run weighs the seeds
    // (whose runs differ in length by up to 10%) equally; at least two, so
    // the traced run times every seed traced and untraced.
    while window.elapsed().as_secs_f64() < seconds
        || !(out.attempted as usize).is_multiple_of(SEEDS.len())
        || (out.attempted as usize) < 2 * SEEDS.len()
    {
        let i = out.attempted as usize;
        let seed = SEEDS[i % SEEDS.len()];
        // The traced run alternates whole passes over the seed list between
        // traced and untraced, so each seed is timed both ways.
        let traced = tracing && (i / SEEDS.len()).is_multiple_of(2);
        tracer.set_on(traced);
        let start_ns = tracer.stamp();
        let start = Instant::now();
        let result = system.run(task, &split, PruneLevel::NoPruning, seed);
        let latency_s = start.elapsed().as_secs_f64();
        out.attempted += 1;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                out.failed += 1;
                first_error.get_or_insert(format!("seed {seed}: {e}"));
                continue;
            }
        };
        let t = &run.telemetry;
        let stage_s: Vec<f64> = STAGES
            .iter()
            .map(|(name, ..)| t.stage_seconds(name).unwrap_or(0.0) as f64)
            .collect();
        let module_s: Vec<f64> = MODULES
            .iter()
            .map(|(name, ..)| {
                t.modules
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or(0.0, |m| m.seconds as f64)
            })
            .collect();
        let steps =
            t.modules.iter().map(|m| m.report.steps).sum::<usize>() + t.end_model.report.steps;
        let fit_s =
            t.modules.iter().map(|m| m.seconds as f64).sum::<f64>() + t.end_model.seconds as f64;
        if traced {
            record_spans(tracer, i as u64, start_ns, latency_s, &stage_s, &module_s);
        }
        ops.push(Op {
            seed,
            traced,
            latency_s,
            acc: run.end_model.accuracy(&split.test_x, &split.test_y),
            steps,
            stage_s,
            module_s,
            fit_s,
        });
    }
    tracer.set_on(tracing);
    out.check(
        "every run returns Ok",
        out.failed == 0,
        first_error.unwrap_or_default(),
    );

    let mut repeat_ok = ops.iter().any(|o| o.seed == SEEDS[0]);
    for a in &ops {
        let first = if a.seed == SEEDS[0] {
            warm_acc
        } else {
            ops.iter()
                .find(|b| b.seed == a.seed)
                .map_or(a.acc, |b| b.acc)
        };
        repeat_ok &= a.acc.to_bits() == first.to_bits();
    }
    out.check(
        "same seed gives bitwise-equal end-model accuracy",
        repeat_ok,
        String::new(),
    );
    let acc = mean(
        &SEEDS
            .iter()
            .filter_map(|s| ops.iter().find(|o| o.seed == *s).map(|o| o.acc as f64))
            .collect::<Vec<_>>(),
    );
    out.check(
        "mean end-model accuracy above floor",
        acc >= ACC_FLOOR,
        format!("{acc:.4} vs floor {ACC_FLOOR}"),
    );

    let lat_ms = sorted(ops.iter().map(|o| o.latency_s * 1e3).collect());
    let busy_s: f64 = ops.iter().map(|o| o.latency_s).sum();
    out.metric("setup_s", setup_s);
    out.metric("throughput_per_s", ops.len() as f64 / busy_s);
    // A run holds about a dozen ops, too few for ten beyond its p90.
    out.percentiles(&lat_ms, "runs", false);
    out.metric("core.end_model_acc", acc);

    if tracing {
        let traced: Vec<&Op> = ops.iter().filter(|o| o.traced).collect();
        let per_op =
            |f: &dyn Fn(&Op) -> f64| mean(&traced.iter().map(|o| f(o)).collect::<Vec<_>>());
        for (k, (.., name)) in STAGES.iter().enumerate() {
            out.metric(name, per_op(&|o| o.stage_s[k] * 1e3));
        }
        for (k, (.., name)) in MODULES.iter().enumerate() {
            out.metric(name, per_op(&|o| o.module_s[k] * 1e3));
        }
        let steps: usize = traced.iter().map(|o| o.steps).sum();
        let fit_s: f64 = traced.iter().map(|o| o.fit_s).sum();
        out.metric("nn.steps", ops.first().map_or(0, |o| o.steps) as f64);
        out.metric("nn.step_us", fit_s / steps as f64 * 1e6);
        let coverage = per_op(&|o| o.stage_s.iter().sum::<f64>() / o.latency_s);
        out.metric("bench.stage_coverage_share", coverage);
        out.check(
            "stage spans cover at least 95% of the op span",
            coverage >= 0.95,
            format!("{coverage:.4}"),
        );
        out.metric("bench.trace_overhead_share", matched_overhead(&ops));
        out.setup_spans(tracer);
    }
    Ok(out)
}

/// The op span and, laid end to end inside it, the stage spans the run's
/// own telemetry timed, with module spans inside `train_modules`.
fn record_spans(
    tracer: &mut Tracer,
    op: u64,
    start_ns: u64,
    latency_s: f64,
    stage_s: &[f64],
    module_s: &[f64],
) {
    let ns = |s: f64| (s * 1e9) as u64;
    let root = tracer.record("core.run", start_ns, start_ns + ns(latency_s), None, op);
    let mut t = start_ns;
    for (k, (name, span, _)) in STAGES.iter().enumerate() {
        let stage = tracer.record(span, t, t + ns(stage_s[k]), root, op);
        if *name == "train_modules" {
            let mut m = t;
            for (j, (_, module_span, _)) in MODULES.iter().enumerate() {
                tracer.record(module_span, m, m + ns(module_s[j]), stage, op);
                m += ns(module_s[j]);
            }
        }
        t += ns(stage_s[k]);
    }
}

/// Tracing overhead: for each seed timed both traced and untraced, the
/// ratio of mean latencies, averaged over seeds, less one.
fn matched_overhead(ops: &[Op]) -> f64 {
    let ratios: Vec<f64> = SEEDS
        .iter()
        .filter_map(|s| {
            let by = |traced: bool| {
                let v: Vec<f64> = ops
                    .iter()
                    .filter(|o| o.seed == *s && o.traced == traced)
                    .map(|o| o.latency_s)
                    .collect();
                (!v.is_empty()).then(|| mean(&v))
            };
            Some(by(true)? / by(false)?)
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        mean(&ratios) - 1.0
    }
}
