//! `retrieve`: `Scads::select_related` for a full task's target set. SCADS
//! selection is well under 1% of a `train` op, so without this workload
//! the `scads` layer would go unmeasured.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use taglets_core::TagletsConfig;
use taglets_graph::ConceptId;
use taglets_scads::{AuxiliarySelection, PruneLevel};

use crate::stats::{self, mean, quantile, sorted, tail_supported};
use crate::trace::Tracer;
use crate::world::{find_task, World};
use crate::{Outcome, Result};

/// 65 classes, every one in the graph.
pub const TASK: &str = "office_home_product";
/// World builds per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Calls per block. Throughput and the median are the values nine blocks
/// in ten meet, and the traced run alternates traced and untraced blocks.
const BLOCK: usize = 32;

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome> {
    let tracing = tracer.is_on();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut world = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (built, _) = tracer.span("data.world", None, 0, World::build);
        setup_s.push(start.elapsed().as_secs_f64());
        world = Some(built?);
    }
    let world = world.ok_or("no world built")?;
    let scads = &world.scads;
    let task = find_task(&world.tasks, TASK)?;
    let config = TagletsConfig::default();
    let (n, k) = (config.related_concepts_per_class, config.images_per_concept);
    let mut targets: Vec<ConceptId> = task
        .classes
        .iter()
        .map(|c| scads.graph().require(&c.name))
        .collect::<std::result::Result<_, _>>()?;
    targets.shuffle(&mut StdRng::seed_from_u64(seed));

    let mut out = Outcome::default();
    let mut first: Option<AuxiliarySelection<Vec<f32>>> = None;
    let mut same = true;
    let mut op_ms = Vec::new();
    let (mut related_us, mut gather_us) = (Vec::new(), Vec::new());
    let window = Instant::now();
    // At least one traced and one untraced block, however short the window.
    while window.elapsed().as_secs_f64() < seconds || op_ms.len() < 2 * BLOCK {
        let op = out.attempted;
        let traced = tracing && (op as usize / BLOCK).is_multiple_of(2);
        tracer.set_on(traced);
        let start_ns = tracer.stamp();
        let start = Instant::now();
        let selection = scads.select_related(&targets, n, k, PruneLevel::NoPruning);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        op_ms.push(ms);
        let root = tracer.record("scads.select_related", start_ns, tracer.stamp(), None, op);
        if traced {
            // Per-target queries, timed after the call they decompose so
            // that call runs with the same cache state as an untraced one.
            let mut related_ns = 0.0;
            for &t in &targets {
                let (_, idx) = tracer.span("scads.related_concepts", root, op, || {
                    scads.related_concepts(t, n, PruneLevel::NoPruning, &targets)
                });
                let d = idx.map_or(0, |i| tracer.spans()[i].duration_ns()) as f64;
                related_us.push(d / 1e3);
                related_ns += d;
            }
            gather_us.push(ms * 1e3 - related_ns / 1e3);
        }
        match &first {
            None => first = Some(selection),
            Some(f) => same &= same_selection(f, &selection),
        }
    }
    tracer.set_on(tracing);
    out.check("every selection equals the first", same, String::new());

    let setup_median_s = quantile(&sorted(setup_s), 0.5);
    out.metric("setup_s", setup_median_s);
    // Per whole block of calls: total time, calls per second and median.
    let blocks: Vec<f64> = op_ms.chunks_exact(BLOCK).map(|b| b.iter().sum()).collect();
    let rates = sorted(blocks.iter().map(|ms| BLOCK as f64 / (ms / 1e3)).collect());
    out.note(stats::rate_spread(&rates));
    out.metric("throughput_per_s", stats::sustained_rate(&rates));
    let medians: Vec<f64> = op_ms
        .chunks_exact(BLOCK)
        .map(|b| quantile(&sorted(b.to_vec()), 0.5))
        .collect();
    // The median call flipped between the host's fast and slow spells from
    // run to run (1.5 or 2.7 ms); the median nine blocks in ten stay within
    // does not.
    let p50 = stats::sustained_latency(&sorted(medians));
    let n_blocks = rates.len();
    out.percentile(
        "latency_p50_ms",
        0.5,
        p50,
        n_blocks,
        "blocks' medians",
        false,
    );
    out.check(
        "ten blocks beyond the blocks' p90",
        tail_supported(n_blocks, 0.9),
        format!("{n_blocks} blocks"),
    );
    if tracing {
        out.metric(
            "scads.related_concepts_us",
            quantile(&sorted(related_us), 0.5),
        );
        out.metric("scads.gather_us", quantile(&sorted(gather_us), 0.5));
        let selected = first.as_ref().map_or(0, |f| f.len());
        out.metric("scads.selected_examples", selected as f64);
        // Even blocks ran traced, odd ones untraced.
        let parity = |p: usize| {
            mean(
                &blocks
                    .iter()
                    .skip(p)
                    .step_by(2)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        };
        out.metric("bench.trace_overhead_share", parity(0) / parity(1) - 1.0);
        out.metric("data.world_ms", setup_median_s * 1e3);
    }
    let all_ms = sorted(op_ms);
    let p90 = quantile(&all_ms, 0.9);
    out.percentile("latency_p90_ms", 0.9, p90, all_ms.len(), "calls", true);
    Ok(out)
}

/// Same concepts in the same order, bitwise-equal per-target scores, and
/// the same number of selected examples.
fn same_selection(a: &AuxiliarySelection<Vec<f32>>, b: &AuxiliarySelection<Vec<f32>>) -> bool {
    let scores_eq = a.per_target.len() == b.per_target.len()
        && a.per_target.iter().zip(&b.per_target).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((c1, s1), (c2, s2))| c1 == c2 && s1.to_bits() == s2.to_bits())
        });
    a.concepts == b.concepts && scores_eq && a.len() == b.len()
}
