//! Sanity tests for the evaluation baselines: each must clearly beat chance
//! under the shared protocol, and SimCLR-lite must reproduce the small-data
//! degradation that led the paper to exclude it from the result tables.
//!
//! SimCLR-lite's contrastive losses and the MPL student's test-set
//! probabilities are also bitwise pinned. The constants were recorded from
//! the implementation in which each baseline wrote out its own training
//! step; any change that moves one bit of either fails here.

mod common;

use rand::SeedableRng;

use taglets::baselines::{
    fine_tune, fine_tune_distilled, fixmatch_baseline, meta_pseudo_labels, simclr_lite, MplConfig,
    SimclrConfig,
};
use taglets::BackboneKind;

/// FNV-1a over a sequence of `f32` bit patterns.
fn checksum<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const PINNED_MPL_STUDENT_PROBA: u64 = 0x7401_994c_b76e_a3fa;
const PINNED_SIMCLR_LOSSES: u64 = 0xb66f_9551_841c_47b5;

#[test]
fn all_table_baselines_beat_chance_at_five_shot() {
    let w = common::world();
    let task = common::task("flickr_materials");
    let split = task.split(0, 5);
    let chance = 1.0 / task.num_classes() as f32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);

    let ft = fine_tune(
        &w.zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        task.num_classes(),
        &Default::default(),
        &mut rng,
    );
    assert!(ft.accuracy(&split.test_x, &split.test_y) > 3.0 * chance);

    let ftd = fine_tune_distilled(
        &w.zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        &split.unlabeled_x,
        task.num_classes(),
        &Default::default(),
        &Default::default(),
        &mut rng,
    );
    assert!(ftd.accuracy(&split.test_x, &split.test_y) > 3.0 * chance);

    let fm = fixmatch_baseline(
        &w.zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        &split.unlabeled_x,
        task.num_classes(),
        &Default::default(),
        &mut rng,
    );
    assert!(fm.accuracy(&split.test_x, &split.test_y) > 3.0 * chance);

    let mpl = meta_pseudo_labels(
        &w.zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        &split.unlabeled_x,
        task.num_classes(),
        &MplConfig::default(),
        &mut rng,
    );
    assert!(mpl.accuracy(&split.test_x, &split.test_y) > 3.0 * chance);
    let proba = checksum(mpl.predict_proba(&split.test_x).data());
    println!("mpl student proba {proba:#018x}");
    assert_eq!(proba, PINNED_MPL_STUDENT_PROBA, "MPL student bits moved");
}

#[test]
fn simclr_degrades_on_small_data_as_the_paper_reports() {
    // Sec. 4.2: "the performance of SimCLRv2 deteriorates significantly when
    // trained on smaller datasets. Consequently, we do not include this
    // method in our results."
    //
    // The claim is about *small* data, so the unlabeled pool is capped here.
    // On the full synthetic pool (hundreds of rows over a 32-dim world)
    // from-scratch contrastive learning is too easy: SimCLR-lite matches or
    // even beats pretrained fine-tuning on most seeds, and this test used to
    // hinge on a dead tie. With a small pool the degradation is robust
    // (probed at caps of 16/32/64 rows across 5 seeds: SimCLR lands at
    // ~0.62–0.72 vs fine-tuning's ~0.80–0.84).
    let w = common::world();
    let task = common::task("flickr_materials");
    let split = task.split(0, 5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);

    let small_pool_rows: Vec<usize> = (0..32.min(split.unlabeled_x.rows())).collect();
    let small_pool = split.unlabeled_x.gather_rows(&small_pool_rows);
    let (simclr, report) = simclr_lite(
        &w.zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        &small_pool,
        task.num_classes(),
        &SimclrConfig::default(),
        &mut rng,
    );
    assert!(!report.contrastive_losses.is_empty(), "pretraining ran");
    let losses = checksum(&report.contrastive_losses);
    println!("simclr losses {losses:#018x}");
    assert_eq!(losses, PINNED_SIMCLR_LOSSES, "SimCLR-lite loss bits moved");
    let simclr_acc = simclr.accuracy(&split.test_x, &split.test_y);

    let ft = fine_tune(
        &w.zoo,
        BackboneKind::ResNet50ImageNet1k,
        &split,
        task.num_classes(),
        &Default::default(),
        &mut rng,
    );
    let ft_acc = ft.accuracy(&split.test_x, &split.test_y);
    assert!(
        simclr_acc < ft_acc,
        "SimCLR-lite ({simclr_acc}) should underperform pretrained fine-tuning ({ft_acc}) \
         on a small unlabeled pool"
    );
}

#[test]
fn bit_backbone_dominates_resnet_for_fine_tuning_at_one_shot() {
    // The backbone axis of Tables 1–2: pretraining on all the auxiliary
    // data (BiT stand-in) gives better 1-shot transfer than the coarse
    // partial view (ResNet-50 stand-in).
    let w = common::world();
    let task = common::task("office_home_product");
    let split = task.split(0, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut acc = |backbone| {
        fine_tune(
            &w.zoo,
            backbone,
            &split,
            task.num_classes(),
            &Default::default(),
            &mut rng,
        )
        .accuracy(&split.test_x, &split.test_y)
    };
    let resnet = acc(BackboneKind::ResNet50ImageNet1k);
    let bit = acc(BackboneKind::BitImageNet21k);
    assert!(
        bit > resnet,
        "BiT ({bit}) should beat ResNet-50 ({resnet}) at 1-shot fine-tuning"
    );
}
