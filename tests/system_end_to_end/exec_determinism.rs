//! The central guarantee of the staged execution engine: module training
//! fanned out over worker threads is **bitwise identical** to serial
//! execution.
//!
//! Every module derives its RNG from `seed ^ name_hash(name)` — never from
//! scheduling order — and the executor reassembles results in module order,
//! so the worker count may only change wall-clock, never outputs.
//!
//! The check is one run at the host default (one worker per available
//! core, at most one per module) against bit pins: checksums of every
//! training curve, the pseudo labels and the end model's test-set
//! probabilities, recorded from a serial run of the implementation in which
//! each training loop wrote out its own step. A threaded run that matches
//! them is therefore identical to serial bit for bit, and any change to a
//! loop, a kernel or the pipeline that moves one bit fails here.
//!
//! On a 1-core host the run is serial and this test exercises no threads.
//! The executor's unit tests (`taglets_tensor::exec`) still force 2 and 4
//! workers there, and `taglets-core`'s
//! `context_and_results_cross_thread_boundaries` checks that what the
//! workers share and return is `Sync`/`Send`.

use taglets::{BackboneKind, PruneLevel, TagletsConfig, TagletsRun, TagletsSystem};

use crate::common::{self, checksum};

/// `(component, epoch-loss checksum, optimizer steps)` of the serial run,
/// in module order with the end model last.
const PINNED_REPORTS: [(&str, u64, usize); 5] = [
    ("transfer", 0x8203_bb4d_42d4_7c27, 1685),
    ("multitask", 0x7d0a_30f6_95d1_d466, 656),
    ("fixmatch", 0x6bdd_987f_697a_65d7, 525),
    // ZSL-KG's GNN pretraining is shared setup; its module trains nothing.
    ("zsl-kg", 0xcbf2_9ce4_8422_2325, 0),
    ("end-model", 0x17a4_d9d5_3e52_cba5, 440),
];
const PINNED_PSEUDO_LABELS: u64 = 0x50ba_3f93_bfdb_5242;
const PINNED_END_MODEL_PROBA: u64 = 0x109c_a114_de4a_0bc8;

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

#[test]
fn parallel_run_is_bitwise_identical_to_serial() {
    let world = common::world();
    let task = common::task("office_home_product");
    let split = task.split(0, 1);
    let config = TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k);
    let system = TagletsSystem::prepare(&world.scads, &world.zoo, config);
    let run = system
        .run(task, &split, PruneLevel::NoPruning, 7)
        .expect("pipeline runs");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        run.telemetry.workers,
        cores.min(4),
        "one worker per core, at most one per module"
    );
    assert_pinned(&run, &split);

    let stage_names: Vec<&str> = run.telemetry.stages.iter().map(|s| s.name).collect();
    assert_eq!(
        stage_names,
        vec!["select", "train_modules", "ensemble", "distill"]
    );
}
