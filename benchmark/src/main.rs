//! The repository benchmark: one workload per run, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <train|serve-unique|serve-zipf|retrieve> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each metric by name and unit, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an output
//! check fails and 2 on a usage or set-up error.

mod retrieve;
mod serve;
mod stats;
mod tape;
mod trace;
mod train;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::{beyond, quantile, tail_supported};
use trace::Tracer;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Metrics a user of the system sees, reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Metrics of single layers, from the traced run. A workload reports 0 for
/// a layer it does not exercise.
const PER_LAYER: [(&str, &str); 29] = [
    ("nn.steps", "count"),
    ("nn.step_us", "us"),
    ("core.train_modules_ms", "ms"),
    ("core.distill_ms", "ms"),
    ("core.module.transfer_ms", "ms"),
    ("core.module.multitask_ms", "ms"),
    ("core.module.fixmatch_ms", "ms"),
    ("core.module.zsl-kg_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.ensemble_ms", "ms"),
    ("core.end_model_acc", "share"),
    ("serve.batch_exec_us", "us"),
    ("serve.submit_miss_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.deadline_flush_share", "share"),
    ("serve.submit_hit_us", "us"),
    ("serve.cache_hit_share", "share"),
    ("serve.shed", "count"),
    ("scads.related_concepts_us", "us"),
    ("scads.gather_us", "us"),
    ("scads.selected_examples", "count"),
    ("data.world_ms", "ms"),
    ("data.zoo_pretrain_s", "s"),
    ("core.zslkg_pretrain_s", "s"),
    ("core.end_model_train_s", "s"),
    ("bench.gen_late_p90_us", "us"),
    ("bench.trace_overhead_share", "share"),
    ("bench.stage_coverage_share", "share"),
];

const WORKLOADS: [&str; 4] = ["train", "serve-unique", "serve-zipf", "retrieve"];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (check, passed, detail), in the order made.
    checks: Vec<(String, bool, String)>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Sets the latency metric `name`, the `q`-quantile `value_ms` of
    /// `samples` samples (described by `of`), and notes the count behind
    /// it. With `require_tail` the run fails unless ten samples lie beyond.
    pub fn percentile(
        &mut self,
        name: &'static str,
        q: f64,
        value_ms: f64,
        samples: usize,
        of: &str,
        require_tail: bool,
    ) {
        self.metric(name, value_ms);
        let beyond = beyond(samples, q);
        self.note(format!("{name} over {samples} {of}, {beyond} beyond"));
        if require_tail {
            self.check(
                &format!("ten samples beyond {name}"),
                tail_supported(samples, q),
                format!("{beyond} beyond"),
            );
        }
    }

    /// Sets `latency_p50_ms` and `latency_p90_ms` from ascending op
    /// latencies.
    pub fn percentiles(&mut self, sorted_ms: &[f64], of: &str, require_tail: bool) {
        let n = sorted_ms.len();
        self.percentile(
            "latency_p50_ms",
            0.5,
            quantile(sorted_ms, 0.5),
            n,
            of,
            false,
        );
        let p90 = quantile(sorted_ms, 0.9);
        self.percentile("latency_p90_ms", 0.9, p90, n, of, require_tail);
    }

    /// Per-layer set-up times from the traced set-up's spans.
    pub fn setup_spans(&mut self, tracer: &Tracer) {
        let first = |name| tracer.durations_ns(name).first().copied().unwrap_or(0.0);
        self.metric("data.world_ms", first("data.world") / 1e6);
        self.metric("data.zoo_pretrain_s", first("data.zoo_pretrain") / 1e9);
        self.metric("core.zslkg_pretrain_s", first("core.zslkg_pretrain") / 1e9);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| flags.get(name).ok_or(format!("missing {name}"));
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome> {
    let mut out = match args.workload.as_str() {
        "train" => train::run(args.seconds, tracer)?,
        "serve-unique" => serve::run(tape::Mix::Unique, args.seed, args.seconds, tracer)?,
        "serve-zipf" => serve::run(tape::Mix::Zipf, args.seed, args.seconds, tracer)?,
        _ => retrieve::run(args.seed, args.seconds, tracer)?,
    };
    out.metric(
        "peak_rss_mb",
        stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let out = match run(&args, &mut tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    let mut finite = true;
    for (name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: {} did not measure {name}", args.workload);
                return ExitCode::from(2);
            }
        };
        finite &= value.is_finite();
        println!("metric {name} = {value} {unit}");
        json.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    for note in &out.notes {
        println!("note {note}");
    }
    for (name, passed, detail) in &out.checks {
        let verdict = if *passed { "ok" } else { "FAILED" };
        println!("check {verdict}: {name} {detail}");
    }
    if args.trace {
        println!("spans: name count total_ms self_ms");
        for (name, count, total, self_ns) in tracer.summary() {
            println!(
                "span {name} {count} {:.3} {:.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !finite {
        eprintln!("error: a metric is not a finite number");
        return ExitCode::from(2);
    }
    let correct = out.correct();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.attempted,
        out.failed,
        json.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
