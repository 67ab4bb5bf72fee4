//! The central guarantee of the staged execution engine: parallel module
//! training is **bitwise identical** to serial execution.
//!
//! Every module derives its RNG from `seed ^ name_hash(name)` — never from
//! scheduling order — and the executor reassembles results in module order,
//! so the concurrency knob may only change wall-clock, never outputs.
//!
//! The serial run is also bitwise pinned: checksums of every training
//! curve, the pseudo labels and the end model's test-set probabilities
//! were recorded from the implementation in which each training loop wrote
//! out its own step. Any change to a loop, a kernel or the pipeline that
//! moves one bit fails here.

mod common;

use taglets::{BackboneKind, Concurrency, PruneLevel, TagletsConfig, TagletsRun, TagletsSystem};

/// FNV-1a over a sequence of `f32` bit patterns.
fn checksum<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(component, epoch-loss checksum, optimizer steps)` of the serial run,
/// in module order with the end model last.
const PINNED_REPORTS: [(&str, u64, usize); 5] = [
    ("transfer", 0x0ea2_c47d_295c_3a02, 1685),
    ("multitask", 0xe7f9_f9f2_b4d4_5599, 656),
    ("fixmatch", 0xc8e9_9a9e_67a3_3f42, 525),
    // ZSL-KG's GNN pretraining is shared setup; its module trains nothing.
    ("zsl-kg", 0xcbf2_9ce4_8422_2325, 0),
    ("end-model", 0x9fda_631c_5203_77aa, 440),
];
const PINNED_PSEUDO_LABELS: u64 = 0x61a0_243c_e44b_14d0;
const PINNED_END_MODEL_PROBA: u64 = 0x89f8_f025_6972_e554;

fn assert_pinned(run: &TagletsRun, split: &taglets::TaskSplit) {
    let reports = run
        .telemetry
        .modules
        .iter()
        .chain(std::iter::once(&run.telemetry.end_model));
    let got: Vec<(&str, u64, usize)> = reports
        .map(|m| {
            (
                m.name.as_str(),
                checksum(&m.report.epoch_losses),
                m.report.steps,
            )
        })
        .collect();
    let pseudo = checksum(run.pseudo_labels.data());
    let proba = checksum(run.end_model.predict_proba(&split.test_x).data());
    println!("reports {got:#x?} pseudo {pseudo:#018x} proba {proba:#018x}");
    assert_eq!(got, PINNED_REPORTS, "training-curve bits moved");
    assert_eq!(pseudo, PINNED_PSEUDO_LABELS, "pseudo-label bits moved");
    assert_eq!(
        proba, PINNED_END_MODEL_PROBA,
        "end-model probability bits moved"
    );
}

fn run_with(concurrency: Concurrency) -> (TagletsRun, &'static taglets::TaskSplit) {
    static SPLIT: std::sync::OnceLock<taglets::TaskSplit> = std::sync::OnceLock::new();
    let world = common::world();
    let task = common::task("office_home_product");
    let split = SPLIT.get_or_init(|| task.split(0, 1));
    let mut config = TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k);
    config.concurrency = concurrency;
    let system = TagletsSystem::prepare(&world.scads, &world.zoo, config);
    let run = system
        .run(task, split, PruneLevel::NoPruning, 7)
        .expect("pipeline runs");
    (run, split)
}

#[test]
fn parallel_run_is_bitwise_identical_to_serial() {
    // TAGLETS_THREADS would override both knobs and collapse the comparison.
    std::env::remove_var("TAGLETS_THREADS");
    let (serial, split) = run_with(Concurrency::Serial);
    let (parallel, _) = run_with(Concurrency::Threads(4));

    assert_eq!(serial.telemetry.concurrency, Concurrency::Serial);
    assert_eq!(parallel.telemetry.concurrency, Concurrency::Threads(4));
    assert!(parallel.telemetry.workers >= 2, "parallel run must fan out");
    assert_pinned(&serial, split);

    // Identical pseudo labels, bit for bit.
    assert_eq!(
        serial.pseudo_labels.data(),
        parallel.pseudo_labels.data(),
        "pseudo labels must not depend on concurrency"
    );

    // Identical module telemetry names, in identical (module) order.
    let names = |run: &TagletsRun| run.telemetry.module_seconds().into_iter().map(|(n, _)| n);
    assert!(
        names(&serial).eq(names(&parallel)),
        "module telemetry order must not depend on concurrency"
    );
    assert!(
        serial
            .taglets
            .iter()
            .map(|t| t.name())
            .eq(parallel.taglets.iter().map(|t| t.name())),
        "taglet order must not depend on concurrency"
    );

    // Identical per-module training curves (the RNG-derivation guarantee).
    for (s, p) in serial
        .telemetry
        .modules
        .iter()
        .zip(&parallel.telemetry.modules)
    {
        assert_eq!(
            s.report, p.report,
            "module `{}` training telemetry must not depend on concurrency",
            s.name
        );
    }

    // Identical end-model predictions on the test set.
    assert_eq!(
        serial.end_model.predict(&split.test_x),
        parallel.end_model.predict(&split.test_x),
        "end-model predictions must not depend on concurrency"
    );

    // And the stages of both runs carry the same pipeline shape.
    let stage_names =
        |run: &TagletsRun| -> Vec<&str> { run.telemetry.stages.iter().map(|s| s.name).collect() };
    assert_eq!(
        stage_names(&serial),
        vec!["select", "train_modules", "ensemble", "distill"]
    );
    assert_eq!(stage_names(&serial), stage_names(&parallel));
}
