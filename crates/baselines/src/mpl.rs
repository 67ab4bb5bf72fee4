//! The Meta Pseudo Labels baseline (Pham et al. 2021; paper Sec. 4.2).
//!
//! A teacher pseudo-labels unlabeled data for a student; the student's
//! post-update performance on labeled data feeds back into the teacher
//! (the practical first-order approximation of the MPL objective). After
//! teacher-student training the student is fine-tuned on the labeled data
//! to reduce confirmation bias.
//!
//! Per Appendix A.5, the teacher uses the experiment's backbone while the
//! student always uses the ResNet-50 (ImageNet-1k) stand-in.

use rand::rngs::StdRng;
use rand::Rng;

use taglets_data::{BackboneKind, ModelZoo, TaskSplit};
use taglets_nn::{fit_hard, train_step, Classifier, FitConfig, Module};
use taglets_tensor::{GradScratch, LrSchedule, Optimizer, Sgd, SgdConfig, Tape, Tensor};

/// Hyperparameters of the Meta Pseudo Labels baseline (Appendix A.5).
#[derive(Debug, Clone, PartialEq)]
pub struct MplConfig {
    /// Teacher-student training steps (paper: 500).
    pub steps: usize,
    /// Mini-batch size (paper: 128; scaled down).
    pub batch_size: usize,
    /// Teacher learning rate (paper: 5e-4).
    pub teacher_lr: f32,
    /// Student learning rate (paper: 1e-3; 1e-4 on Grocery).
    pub student_lr: f32,
    /// Student fine-tuning epochs on labeled data afterwards (paper: 30).
    pub finetune_epochs: usize,
    /// Student fine-tuning learning rate (paper: 3e-3).
    pub finetune_lr: f32,
}

impl Default for MplConfig {
    fn default() -> Self {
        MplConfig {
            steps: 300,
            batch_size: 64,
            teacher_lr: 5e-4,
            student_lr: 1e-3,
            finetune_epochs: 40,
            finetune_lr: 3e-3,
        }
    }
}

fn labeled_loss(clf: &Classifier, x: &Tensor, y: &[usize]) -> f32 {
    let mut tape = Tape::new();
    let vars = clf.bind_frozen(&mut tape);
    let xv = tape.constant(x.clone());
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let logits = clf.forward_logits(&mut tape, &vars, xv, false, &mut rng);
    let loss = tape.softmax_cross_entropy(logits, y);
    tape.value(loss).item()
}

/// One step of `clf` on weakly-augmented `(x, y)`, plus `coeff ×` the
/// unaugmented cross-entropy on `extra = (x, y, coeff)` when `coeff ≠ 0`.
fn supervised_step(
    clf: &mut Classifier,
    opt: &mut dyn Optimizer,
    lr: f32,
    (x, y): (&Tensor, &[usize]),
    extra: Option<(&Tensor, &[usize], f32)>,
    scratch: &mut GradScratch,
    rng: &mut StdRng,
) {
    let augmenter = taglets_nn::Augmenter::default();
    train_step(clf, opt, Some(lr), scratch, |clf, tape, vars| {
        let xv = tape.constant(augmenter.weak_batch(x, rng));
        let logits = clf.forward_logits(tape, vars, xv, true, rng);
        let mut loss = tape.softmax_cross_entropy(logits, y);
        if let Some((ex, ey, coeff)) = extra {
            // Exact-zero means "no feedback term was computed" — a sentinel, not
            // an arithmetic result. lint: allow(TL004)
            if coeff != 0.0 {
                let exv = tape.constant(ex.clone());
                let elogits = clf.forward_logits(tape, vars, exv, true, rng);
                let eloss = tape.softmax_cross_entropy(elogits, ey);
                let scaled = tape.scale(eloss, coeff);
                loss = tape.add(loss, scaled);
            }
        }
        loss
    });
}

/// Runs Meta Pseudo Labels and returns the trained *student*.
///
/// A degenerate run (no unlabeled data) skips teacher-student training and
/// reduces to fine-tuning the student on the labeled set.
pub fn meta_pseudo_labels(
    zoo: &ModelZoo,
    teacher_backbone: BackboneKind,
    split: &TaskSplit,
    unlabeled: &Tensor,
    num_classes: usize,
    cfg: &MplConfig,
    rng: &mut StdRng,
) -> Classifier {
    let mut teacher = Classifier::new(zoo.get(teacher_backbone).backbone(), num_classes, rng);
    let mut student = Classifier::new(
        zoo.get(BackboneKind::ResNet50ImageNet1k).backbone(),
        num_classes,
        rng,
    );

    // Teacher warm start so its pseudo labels carry signal from step one.
    {
        let mut opt = Sgd::with_momentum(cfg.finetune_lr, 0.9);
        let fit = FitConfig::new(12, cfg.batch_size, cfg.finetune_lr);
        fit_hard(
            &mut teacher,
            &split.labeled_x,
            &split.labeled_y,
            &fit,
            &mut opt,
            rng,
        );
    }

    if unlabeled.rows() > 0 {
        let mut t_opt = Sgd::new(SgdConfig {
            lr: cfg.teacher_lr,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        let mut s_opt = Sgd::new(SgdConfig {
            lr: cfg.student_lr,
            momentum: 0.9,
            ..SgdConfig::default()
        });
        let t_schedule = LrSchedule::half_cosine(cfg.teacher_lr, cfg.steps);
        let s_schedule = LrSchedule::half_cosine(cfg.student_lr, cfg.steps);
        let labeled_n = split.labeled_x.rows();
        let l_batch_size = cfg.batch_size.min(labeled_n);
        let mut scratch = GradScratch::new();

        for step in 0..cfg.steps {
            let u_idx: Vec<usize> = (0..cfg.batch_size.min(unlabeled.rows()))
                .map(|_| rng.gen_range(0..unlabeled.rows()))
                .collect();
            let u = unlabeled.gather_rows(&u_idx);
            let pseudo = teacher.predict(&u);

            let l_idx: Vec<usize> = (0..l_batch_size)
                .map(|_| rng.gen_range(0..labeled_n))
                .collect();
            let lx = split.labeled_x.gather_rows(&l_idx);
            let ly: Vec<usize> = l_idx.iter().map(|&i| split.labeled_y[i]).collect();

            // Student step on the teacher's pseudo labels, bracketed by its
            // labeled loss — the teacher's feedback signal.
            let loss_before = labeled_loss(&student, &lx, &ly);
            supervised_step(
                &mut student,
                &mut s_opt,
                s_schedule.lr_at(step),
                (&u, &pseudo),
                None,
                &mut scratch,
                rng,
            );
            let loss_after = labeled_loss(&student, &lx, &ly);
            let h = (loss_before - loss_after).clamp(-1.0, 1.0);

            // Teacher step: supervised CE plus the feedback-weighted pseudo
            // objective (reinforce pseudo labels that helped the student).
            supervised_step(
                &mut teacher,
                &mut t_opt,
                t_schedule.lr_at(step),
                (&lx, &ly),
                Some((&u, &pseudo, h)),
                &mut scratch,
                rng,
            );
        }
    }

    // Final student fine-tuning on labeled data (paper: fixed 3e-3).
    let mut opt = Sgd::with_momentum(cfg.finetune_lr, 0.9);
    let fit = FitConfig::new(cfg.finetune_epochs, cfg.batch_size, cfg.finetune_lr);
    fit_hard(
        &mut student,
        &split.labeled_x,
        &split.labeled_y,
        &fit,
        &mut opt,
        rng,
    );
    student
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use taglets_data::{standard_tasks, ConceptUniverse, UniverseConfig, ZooConfig};
    use taglets_graph::SyntheticGraphConfig;

    #[test]
    fn mpl_student_beats_chance() {
        let mut universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: 400,
                ..SyntheticGraphConfig::default()
            },
            ..UniverseConfig::default()
        })
        .expect("universe builds");
        let tasks = standard_tasks(&mut universe).expect("standard tasks build");
        let corpus = universe.build_corpus(12, 0);
        let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())
            .expect("corpus is non-empty");
        let fmd = &tasks[0];
        let split = fmd.split(0, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let student = meta_pseudo_labels(
            &zoo,
            BackboneKind::ResNet50ImageNet1k,
            &split,
            &split.unlabeled_x,
            fmd.num_classes(),
            &MplConfig::default(),
            &mut rng,
        );
        let acc = student.accuracy(&split.test_x, &split.test_y);
        assert!(acc > 0.2, "MPL should beat chance clearly: {acc}");
    }
}
