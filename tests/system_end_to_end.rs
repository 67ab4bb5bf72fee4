//! End-to-end integration tests of the TAGLETS system against the paper's
//! headline claims, on a reduced synthetic world.
//!
//! The execution engine's determinism pins and the baselines' sanity checks
//! and bit pins run in this binary too, as modules, so a test run builds
//! the world and pretrains its zoo once. `scripts/check.sh` runs each
//! module on its own with a name filter (`exec_determinism::`,
//! `baselines_sanity::`).

mod common;

#[path = "system_end_to_end/baselines_sanity.rs"]
mod baselines_sanity;
#[path = "system_end_to_end/exec_determinism.rs"]
mod exec_determinism;

use std::sync::OnceLock;

use taglets::nn::Module as _;
use taglets::tensor::Tensor;
use taglets::{
    BackboneKind, CoreError, DatasetId, PruneLevel, TagletsConfig, TagletsSystem, TaskSplit,
    TransferModule, ZslKgModule,
};
use taglets_core::SelectionStrategy;

fn system(backbone: BackboneKind) -> TagletsSystem<'static> {
    let w = common::world();
    TagletsSystem::prepare(&w.scads, &w.zoo, TagletsConfig::for_backbone(backbone))
}

#[test]
fn taglets_beats_fine_tuning_at_one_shot_under_domain_shift() {
    // The paper's headline: with one labeled example per class, exploiting
    // auxiliary + unlabeled data beats plain fine-tuning by a wide margin.
    let w = common::world();
    let task = common::task("office_home_clipart");
    let split = task.split(0, 1);
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    let run = sys
        .run(task, &split, PruneLevel::NoPruning, 0)
        .expect("run");
    let taglets_acc = run.end_model.accuracy(&split.test_x, &split.test_y);

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let baseline = taglets::baselines::fine_tune(
        &w.zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        task.num_classes(),
        &Default::default(),
        &mut rng,
    );
    let baseline_acc = baseline.accuracy(&split.test_x, &split.test_y);
    assert!(
        taglets_acc > baseline_acc + 0.10,
        "TAGLETS ({taglets_acc}) must clearly beat fine-tuning ({baseline_acc}) at 1-shot"
    );
}

#[test]
fn run_produces_four_taglets_and_simplex_pseudo_labels() {
    let task = common::task("flickr_materials");
    let split = task.split(0, 5);
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    let run = sys
        .run(task, &split, PruneLevel::NoPruning, 0)
        .expect("run");
    assert_eq!(run.taglets.len(), 4);
    let names: Vec<&str> = run.taglets.iter().map(|t| t.name()).collect();
    assert_eq!(names, ["transfer", "multitask", "fixmatch", "zsl-kg"]);
    assert!(run.num_auxiliary_examples > 0, "SCADS must select data");
    let acc = run.end_model.accuracy(&split.test_x, &split.test_y);
    let chance = 1.0 / task.num_classes() as f32;
    assert!(acc > 2.0 * chance, "end model must beat chance: {acc}");
    assert_eq!(run.pseudo_labels.rows(), run.unlabeled_used.rows());
    for row in run.pseudo_labels.rows_iter() {
        let sum: f32 = row.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-4,
            "pseudo labels must stay on the simplex"
        );
    }
}

#[test]
fn pruning_does_not_improve_the_selected_data_similarity() {
    // Selection must degrade monotonically in graph similarity terms.
    let w = common::world();
    let task = common::task("grocery_store");
    let concepts: Vec<_> = task
        .aligned_concepts()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let mean_sim = |prune| {
        let mut total = 0.0;
        let mut n = 0;
        for &c in &concepts {
            for (_, s) in w.scads.related_concepts(c, 3, prune, &concepts) {
                total += s;
                n += 1;
            }
        }
        total / n as f32
    };
    let none = mean_sim(PruneLevel::NoPruning);
    let l0 = mean_sim(PruneLevel::Level0);
    let l1 = mean_sim(PruneLevel::Level1);
    assert!(
        none >= l0,
        "prune-0 must not increase similarity ({none} vs {l0})"
    );
    assert!(
        l0 >= l1,
        "prune-1 must not increase similarity ({l0} vs {l1})"
    );
}

#[test]
fn end_model_is_servable_and_single_network() {
    let task = common::task("flickr_materials");
    let split = task.split(0, 5);
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    let run = sys
        .run(task, &split, PruneLevel::NoPruning, 0)
        .expect("run");
    let model = &run.end_model;
    assert_eq!(model.num_classes(), task.num_classes());
    assert_eq!(model.input_dim(), common::world().universe.image_dim());
    // The servable model is exactly one backbone + head — the same
    // parameter count as a fine-tuned classifier, independent of how many
    // taglets produced it.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let ft = taglets::baselines::fine_tune(
        &common::world().zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        task.num_classes(),
        &Default::default(),
        &mut rng,
    );
    assert_eq!(model.num_parameters(), ft.num_scalars());
}

#[test]
fn module_ablation_changes_the_ensemble() {
    let task = common::task("flickr_materials");
    let split = task.split(0, 1);
    let w = common::world();
    let full = system(BackboneKind::ResNet50ImageNet1k);
    let zslkg = full.zslkg().clone();
    let ablated = TagletsSystem::prepare_with_zslkg(
        &w.scads,
        &w.zoo,
        TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k),
        zslkg,
    )
    .without_module(TransferModule::NAME);
    assert_eq!(ablated.active_module_names().len(), 3);
    let run = ablated
        .run(task, &split, PruneLevel::NoPruning, 0)
        .expect("run");
    assert_eq!(run.taglets.len(), 3);
    assert!(run.taglet(TransferModule::NAME).is_none());
    assert!(run.taglet(ZslKgModule::NAME).is_some());
}

#[test]
fn zsl_kg_taglet_is_invariant_to_shots() {
    // The ZSL module never sees labeled data, so its predictions cannot
    // depend on the shot count (Fig. 4's flat lines).
    let task = common::task("flickr_materials");
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    let split1 = task.split(0, 1);
    let split5 = task.split(0, 5);
    let run1 = sys
        .run(task, &split1, PruneLevel::NoPruning, 0)
        .expect("run");
    let run5 = sys
        .run(task, &split5, PruneLevel::NoPruning, 0)
        .expect("run");
    let acc1 = run1
        .taglet("zsl-kg")
        .unwrap()
        .accuracy(&split1.test_x, &split1.test_y);
    let acc5 = run5
        .taglet("zsl-kg")
        .unwrap()
        .accuracy(&split5.test_x, &split5.test_y);
    // Same predetermined? test sets differ only through the split shots; the
    // grocery test is fixed but FMD's test depends only on split seed, which
    // is equal here, so the test sets are identical.
    assert_eq!(split1.test_x, split5.test_x);
    assert!(
        (acc1 - acc5).abs() < 1e-6,
        "zsl-kg must be shot-invariant: {acc1} vs {acc5}"
    );
}

#[test]
fn runs_are_deterministic_given_the_same_seed() {
    let task = common::task("flickr_materials");
    let split = task.split(0, 1);
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    let a = sys
        .run(task, &split, PruneLevel::NoPruning, 7)
        .expect("run");
    let b = sys
        .run(task, &split, PruneLevel::NoPruning, 7)
        .expect("run");
    assert_eq!(
        a.end_model.predict(&split.test_x),
        b.end_model.predict(&split.test_x),
        "same training seed must reproduce the same end model"
    );
    let c = sys
        .run(task, &split, PruneLevel::NoPruning, 8)
        .expect("run");
    // Different seed: same API, (almost surely) different model.
    assert_ne!(
        a.end_model.predict_proba(&split.test_x).data(),
        c.end_model.predict_proba(&split.test_x).data()
    );
}

#[test]
fn grocery_extension_is_isolated_to_the_run() {
    let w = common::world();
    let task = common::task("grocery_store");
    let split = task.split(0, 1);
    assert!(w.scads.graph().find("oatghurt").is_none());
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    let run = sys
        .run(task, &split, PruneLevel::NoPruning, 0)
        .expect("run");
    assert!(
        w.scads.graph().find("oatghurt").is_none(),
        "shared SCADS must stay clean"
    );
    assert_eq!(run.end_model.num_classes(), 42);
    // The out-of-vocabulary classes, added to the run's own SCADS copy,
    // still learn: the end model clears twice chance.
    let acc = run.end_model.accuracy(&split.test_x, &split.test_y);
    assert!(acc > 2.0 / 42.0, "must beat chance on grocery: {acc}");
}

#[test]
fn malformed_splits_are_refused_and_degenerate_tasks_fall_back() {
    // Malformed splits end in `CoreError::InvalidSplit` naming the field
    // and first offending row, and out-of-range hyperparameters in
    // `CoreError::InvalidConfig` naming the field, before any stage runs;
    // degenerate but well-formed tasks end in their documented outcome.
    enum Expect {
        Invalid(&'static str, usize),
        InvalidConfig(&'static str),
        NoLabeledData,
        Runs,
    }
    let task = common::task("grocery_store");
    let clean = task.split(0, 1);
    let dim = clean.labeled_x.cols();
    let classes = task.num_classes();
    let last_label = clean.labeled_y.len() - 1;
    type Edit = Box<dyn Fn(&mut TaskSplit, &mut TagletsConfig)>;
    let cases: Vec<(&str, Edit, PruneLevel, Expect)> = vec![
        (
            "label out of range",
            Box::new(move |s, _| s.labeled_y[2] = classes),
            PruneLevel::NoPruning,
            Expect::Invalid("labeled_y", 2),
        ),
        (
            "one label short",
            Box::new(|s, _| {
                s.labeled_y.pop();
            }),
            PruneLevel::NoPruning,
            Expect::Invalid("labeled_y", last_label),
        ),
        (
            "labeled rows one column too wide",
            Box::new(|s, _| {
                let wide: Vec<Vec<f32>> = s
                    .labeled_x
                    .rows_iter()
                    .map(|r| r.iter().copied().chain([0.0]).collect())
                    .collect();
                let refs: Vec<&[f32]> = wide.iter().map(Vec::as_slice).collect();
                s.labeled_x = Tensor::from_rows(&refs);
            }),
            PruneLevel::NoPruning,
            Expect::Invalid("labeled_x", 0),
        ),
        (
            "NaN labeled feature",
            Box::new(move |s, _| s.labeled_x.data_mut()[3 * dim + 5] = f32::NAN),
            PruneLevel::NoPruning,
            Expect::Invalid("labeled_x", 3),
        ),
        (
            "infinite unlabeled feature",
            Box::new(move |s, _| s.unlabeled_x.data_mut()[7 * dim] = f32::INFINITY),
            PruneLevel::NoPruning,
            Expect::Invalid("unlabeled_x", 7),
        ),
        (
            "empty unlabeled pool",
            Box::new(move |s, _| {
                s.unlabeled_x = Tensor::zeros(&[0, dim]);
                s.unlabeled_y.clear();
            }),
            PruneLevel::NoPruning,
            Expect::Runs,
        ),
        (
            "no labeled examples",
            Box::new(move |s, _| {
                s.labeled_x = Tensor::zeros(&[0, dim]);
                s.labeled_y.clear();
            }),
            PruneLevel::NoPruning,
            Expect::NoLabeledData,
        ),
        (
            "prune level 1",
            Box::new(|_, _| {}),
            PruneLevel::Level1,
            Expect::Runs,
        ),
        (
            "zero FixMatch batch size",
            Box::new(|_, c| c.fixmatch.batch_size = 0),
            PruneLevel::NoPruning,
            Expect::InvalidConfig("fixmatch.batch_size"),
        ),
        (
            "zero multi-task batch size",
            Box::new(|_, c| c.multitask.batch_size = 0),
            PruneLevel::NoPruning,
            Expect::InvalidConfig("multitask.batch_size"),
        ),
        (
            "zero end-model batch size",
            Box::new(|_, c| c.end_model.batch_size = 0),
            PruneLevel::NoPruning,
            Expect::InvalidConfig("end_model.batch_size"),
        ),
        (
            "NaN transfer learning rate",
            Box::new(|_, c| c.transfer.lr = f32::NAN),
            PruneLevel::NoPruning,
            Expect::InvalidConfig("transfer.lr"),
        ),
        (
            "infinite FixMatch pretraining rate",
            Box::new(|_, c| c.fixmatch.pretrain_lr = f32::INFINITY),
            PruneLevel::NoPruning,
            Expect::InvalidConfig("fixmatch.pretrain_lr"),
        ),
        (
            "zero end-model learning rate",
            Box::new(|_, c| c.end_model.lr = 0.0),
            PruneLevel::NoPruning,
            Expect::InvalidConfig("end_model.lr"),
        ),
    ];
    let w = common::world();
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    for (name, edit, prune, expect) in cases {
        let mut split = clean.clone();
        let mut config = sys.config().clone();
        edit(&mut split, &mut config);
        let sys = TagletsSystem::prepare_with_zslkg(&w.scads, &w.zoo, config, sys.zslkg().clone());
        let result = sys.run(task, &split, prune, 0);
        match (expect, result) {
            (
                Expect::Invalid(field, row),
                Err(CoreError::InvalidSplit {
                    field: f, row: r, ..
                }),
            ) => {
                assert_eq!((f, r), (field, row), "{name}: wrong field or row");
            }
            (Expect::InvalidConfig(field), Err(CoreError::InvalidConfig { field: f, .. })) => {
                assert_eq!(f, field, "{name}: wrong field");
            }
            (Expect::NoLabeledData, Err(CoreError::NoLabeledData { .. })) => {}
            (Expect::Runs, Ok(run)) => {
                assert!(run.num_auxiliary_examples > 0, "{name}: no auxiliary data");
                let probs = run.end_model.predict_proba(&split.test_x);
                assert!(
                    probs.data().iter().all(|p| p.is_finite()),
                    "{name}: non-finite probabilities"
                );
            }
            (_, Err(e)) => panic!("{name}: unexpected error {e}"),
            (_, Ok(_)) => panic!("{name}: run succeeded where an error was expected"),
        }
    }
}

#[test]
fn one_class_task_runs_and_answers_that_class() {
    // A one-class task is not refused: the documented fallback is an
    // ordinary run whose end model puts all mass on the one class.
    let mut task = common::task("office_home_product").clone();
    task.classes.truncate(1);
    let split = task.split(0, 1);
    let run = system(BackboneKind::ResNet50ImageNet1k)
        .run(&task, &split, PruneLevel::NoPruning, 0)
        .expect("a one-class task runs");
    let probs = run.end_model.predict_proba(&split.test_x);
    assert_eq!(probs.shape(), &[split.test_x.rows(), 1]);
    assert!(
        probs.data().iter().all(|p| p.is_finite()),
        "non-finite probabilities"
    );
    assert_eq!(run.end_model.accuracy(&split.test_x, &split.test_y), 1.0);
}

#[test]
fn empty_selection_runs_as_plain_fine_tuning() {
    // With its one dataset removed, SCADS answers `select_related` with an
    // empty selection, exactly as for a fully pruned set. The documented
    // fallback ("Fully pruned SCADS: ... plain fine-tuning") is an ordinary
    // run of all four modules on zero auxiliary examples.
    let w = common::world();
    let mut scads = w.scads.clone();
    scads
        .remove_dataset(DatasetId(0))
        .expect("the test world installs one dataset");
    let task = common::task("office_home_product");
    let split = task.split(0, 1);
    let config = TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k);
    let run = TagletsSystem::prepare(&scads, &w.zoo, config)
        .run(task, &split, PruneLevel::NoPruning, 0)
        .expect("an empty selection runs");
    assert_eq!(run.taglets.len(), 4);
    assert_eq!(run.num_auxiliary_examples, 0);
    let probs = run.end_model.predict_proba(&split.test_x);
    assert_eq!(probs.shape(), &[split.test_x.rows(), task.num_classes()]);
    for row in probs.rows_iter() {
        assert!(
            row.iter().all(|p| p.is_finite()),
            "non-finite probabilities"
        );
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "probabilities off the simplex");
    }
}

#[test]
fn ensemble_beats_module_mean_and_end_model_tracks_it() {
    // Fig. 5 on OfficeHome-Product, 1-shot, ResNet-50: the Eq. 6 ensemble
    // improves the mean module accuracy by >= 7 points, and the distilled
    // end model lands within -5..+4 points of the ensemble. At this
    // world's scale training seeds 0-2 measure ensemble gains of +11.7,
    // +12.2 and +14.4 points and end-model gaps of -2.5, -0.3 and -2.8, so
    // the paper's bounds hold with a margin of at least 2.2 points.
    let task = common::task("office_home_product");
    let split = task.split(0, 1);
    let sys = system(BackboneKind::ResNet50ImageNet1k);
    for seed in 0..3 {
        let run = sys
            .run(task, &split, PruneLevel::NoPruning, seed)
            .expect("run");
        let accs: Vec<f32> = run
            .taglets
            .iter()
            .map(|t| t.accuracy(&split.test_x, &split.test_y))
            .collect();
        let module_mean = accs.iter().sum::<f32>() / accs.len() as f32;
        let ensemble = run.ensemble().accuracy(&split.test_x, &split.test_y);
        let end = run.end_model.accuracy(&split.test_x, &split.test_y);
        assert!(
            ensemble - module_mean >= 0.07,
            "seed {seed}: ensemble {ensemble} must beat the module mean {module_mean} \
             (modules {accs:?}) by >= 7 points"
        );
        assert!(
            (-0.05..=0.04).contains(&(end - ensemble)),
            "seed {seed}: end model {end} must track the ensemble {ensemble} within -5..+4 points"
        );
    }
}

/// Training seeds of the two Grocery claims below.
const GROCERY_SEEDS: [u64; 3] = [0, 1, 2];

/// Mean end-model test accuracy on Grocery, 1-shot, split 0, ResNet-50,
/// over [`GROCERY_SEEDS`]. The graph-selected, unpruned mean is shared by
/// both claims, so it is computed once per test binary.
fn grocery_mean_accuracy(prune: PruneLevel, selection: SelectionStrategy) -> f32 {
    static GRAPH_UNPRUNED: OnceLock<f32> = OnceLock::new();
    let mean = || {
        let w = common::world();
        let task = common::task("grocery_store");
        let split = task.split(0, 1);
        let mut config = TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k);
        config.selection = selection;
        let sys = TagletsSystem::prepare(&w.scads, &w.zoo, config);
        let total: f32 = GROCERY_SEEDS
            .iter()
            .map(|&seed| {
                let run = sys.run(task, &split, prune, seed).expect("run");
                run.end_model.accuracy(&split.test_x, &split.test_y)
            })
            .sum();
        total / GROCERY_SEEDS.len() as f32
    };
    if prune == PruneLevel::NoPruning && selection == SelectionStrategy::GraphRelated {
        *GRAPH_UNPRUNED.get_or_init(mean)
    } else {
        mean()
    }
}

#[test]
fn system_level_pruning_is_monotone_on_grocery() {
    // Table 2, Grocery 1-shot, ResNet-50: pruning removes the fine-grained
    // siblings Grocery needs, so accuracy falls with each level (paper
    // 75.1 -> 73.6 -> 72.5 in results/table2.txt). At this world's scale
    // seeds 0-2 measure means of 71.63 (no pruning), 70.63 (level 0) and
    // 66.37 (level 1): steps of +0.99 and +4.27 points. The bounds keep a
    // margin of about 2 points below each: level 0 may not beat no pruning by
    // more than 1 point, and level 1 must lose at least 2 to level 0.
    let none = grocery_mean_accuracy(PruneLevel::NoPruning, SelectionStrategy::GraphRelated);
    let l0 = grocery_mean_accuracy(PruneLevel::Level0, SelectionStrategy::GraphRelated);
    let l1 = grocery_mean_accuracy(PruneLevel::Level1, SelectionStrategy::GraphRelated);
    assert!(
        none - l0 >= -0.01,
        "pruning level 0 ({l0}) must not beat no pruning ({none}) by more than 1 point"
    );
    assert!(
        l0 - l1 >= 0.02,
        "pruning level 1 ({l1}) must lose at least 2 points to level 0 ({l0})"
    );
}

#[test]
fn graph_selection_beats_or_ties_random_selection_on_grocery() {
    // The SCADS ablation (results/ablation_scads.txt, Grocery 1-shot,
    // ResNet-50): graph-selected auxiliary data 69.2 vs the same volume
    // of randomly selected concepts 66.2. At this world's scale seeds 0-2
    // measure means of 71.63 (graph) and 70.44 (random), +1.19 points; the
    // bound keeps a margin of 2 points below that, so random selection
    // may not win by more than 1 point.
    let graph = grocery_mean_accuracy(PruneLevel::NoPruning, SelectionStrategy::GraphRelated);
    let random = grocery_mean_accuracy(PruneLevel::NoPruning, SelectionStrategy::RandomConcepts);
    assert!(
        graph - random >= -0.01,
        "graph selection ({graph}) must beat or tie random selection ({random}) within 1 point"
    );
}
