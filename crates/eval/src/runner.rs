//! The experiment runner: builds the shared environment (universe, corpus,
//! SCADS, model zoo, pretrained ZSL-KG) once, then evaluates any method on
//! any task/split/shot/backbone combination with the protocol of Sec. 4.3.

use rand::rngs::StdRng;
use rand::SeedableRng;

use taglets_baselines::{
    fine_tune, fine_tune_distilled, fixmatch_baseline, meta_pseudo_labels, MplConfig,
};
use taglets_core::{RunTelemetry, TagletsConfig, TagletsSystem, ZslKgModule};
use taglets_data::{
    standard_tasks, AuxiliaryCorpus, BackboneKind, ConceptUniverse, Image, ModelZoo, Task,
    TaskSplit, UniverseConfig, ZooConfig,
};
use taglets_graph::SyntheticGraphConfig;
use taglets_scads::{PruneLevel, Scads};
use taglets_tensor::Tensor;

use crate::error::EvalError;

/// How big an experiment to run. `Paper` matches the shapes reported in
/// EXPERIMENTS.md; `Smoke` is for quick iteration and CI.
///
/// Benches honour the `TAGLETS_SCALE` environment variable
/// (`smoke` / `paper`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Reduced universe, 2 seeds — minutes-scale sanity runs.
    Smoke,
    /// Full synthetic universe, 3 seeds — the default for benches.
    Paper,
}

impl ExperimentScale {
    /// Reads `TAGLETS_SCALE` (default: `Paper`).
    pub fn from_env() -> Self {
        match std::env::var("TAGLETS_SCALE").as_deref() {
            Ok("smoke") | Ok("SMOKE") => ExperimentScale::Smoke,
            _ => ExperimentScale::Paper,
        }
    }

    /// Universe size for this scale.
    pub fn num_concepts(self) -> usize {
        match self {
            ExperimentScale::Smoke => 350,
            ExperimentScale::Paper => 600,
        }
    }

    /// Auxiliary images per concept.
    pub fn corpus_per_concept(self) -> usize {
        match self {
            ExperimentScale::Smoke => 15,
            ExperimentScale::Paper => 25,
        }
    }

    /// The training seeds each cell is averaged over (paper: 3).
    pub fn training_seeds(self) -> Vec<u64> {
        match self {
            ExperimentScale::Smoke => vec![0, 1],
            ExperimentScale::Paper => vec![0, 1, 2],
        }
    }
}

/// The shared evaluation environment: everything methods read but never
/// mutate.
pub struct Experiment {
    universe: ConceptUniverse,
    tasks: Vec<Task>,
    corpus: AuxiliaryCorpus,
    scads: Scads<Image>,
    zoo: ModelZoo,
    zslkg: ZslKgModule,
    scale: ExperimentScale,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Experiment {{ scale: {:?}, concepts: {}, corpus: {} }}",
            self.scale,
            self.universe.graph().len(),
            self.corpus.len()
        )
    }
}

impl Experiment {
    /// Builds the standard evaluation environment at the given scale
    /// (deterministic: the same scale always produces the same world).
    ///
    /// # Errors
    ///
    /// [`EvalError::Data`] if the synthetic world cannot be generated (too
    /// few concepts for the tasks, a rename collision, an empty corpus).
    pub fn standard(scale: ExperimentScale) -> Result<Self, EvalError> {
        let mut universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: scale.num_concepts(),
                ..SyntheticGraphConfig::default()
            },
            ..UniverseConfig::default()
        })?;
        let tasks = standard_tasks(&mut universe)?;
        let corpus = universe.build_corpus(scale.corpus_per_concept(), 0);
        let scads = universe.build_scads(&corpus)?;
        let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())?;
        let zslkg = ZslKgModule::pretrain(&scads, &zoo, &taglets_core::ZslKgConfig::default(), 0);
        Ok(Experiment {
            universe,
            tasks,
            corpus,
            scads,
            zoo,
            zslkg,
            scale,
        })
    }

    /// The evaluation tasks (FMD, OfficeHome-Product, OfficeHome-Clipart,
    /// Grocery Store).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks a task up by name.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownTask`] if no task carries the name; the error
    /// lists the names that do exist.
    pub fn task(&self, name: &str) -> Result<&Task, EvalError> {
        self.tasks
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| EvalError::UnknownTask {
                name: name.to_string(),
                available: self.tasks.iter().map(|t| t.name.clone()).collect(),
            })
    }

    /// The SCADS shared by all runs.
    pub fn scads(&self) -> &Scads<Image> {
        &self.scads
    }

    /// The pretrained model zoo.
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// The synthetic universe.
    pub fn universe(&self) -> &ConceptUniverse {
        &self.universe
    }

    /// The experiment scale.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// A TAGLETS system for the given configuration, reusing the
    /// environment's pretrained ZSL-KG encoder.
    pub fn system(&self, config: TagletsConfig) -> TagletsSystem<'_> {
        TagletsSystem::prepare_with_zslkg(&self.scads, &self.zoo, config, self.zslkg.clone())
    }

    /// The capped unlabeled pool a method consumes, mirroring
    /// `TagletsSystem`'s budget so baselines see the same data volume.
    pub fn capped_unlabeled(&self, split: &TaskSplit, seed: u64) -> Tensor {
        let cap = TagletsConfig::default().max_unlabeled;
        match cap {
            Some(cap) if split.unlabeled_x.rows() > cap => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xcab);
                let mut idx: Vec<usize> = (0..split.unlabeled_x.rows()).collect();
                use rand::seq::SliceRandom;
                idx.shuffle(&mut rng);
                idx.truncate(cap);
                split.unlabeled_x.gather_rows(&idx)
            }
            _ => split.unlabeled_x.clone(),
        }
    }
}

/// A method under evaluation — one row block of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Plain fine-tuning of a pretrained encoder.
    FineTuning,
    /// Fine-tuning followed by pseudo-label distillation.
    FineTuningDistilled,
    /// FixMatch with a pretrained encoder (no SCADS).
    FixMatch,
    /// Meta Pseudo Labels.
    MetaPseudoLabels,
    /// The full TAGLETS system at a pruning level.
    Taglets(PruneLevel),
}

impl Method {
    /// The row blocks of Tables 1–6, in paper order.
    pub fn table_rows() -> Vec<Method> {
        vec![
            Method::FineTuning,
            Method::FineTuningDistilled,
            Method::FixMatch,
            Method::MetaPseudoLabels,
            Method::Taglets(PruneLevel::NoPruning),
        ]
    }

    /// The extra TAGLETS pruning rows (ResNet-50 block only in the paper).
    pub fn pruning_rows() -> Vec<Method> {
        vec![
            Method::Taglets(PruneLevel::Level0),
            Method::Taglets(PruneLevel::Level1),
        ]
    }

    /// The method's display name as printed in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Method::FineTuning => "Fine-tuning",
            Method::FineTuningDistilled => "Fine-tuning (Distilled)",
            Method::FixMatch => "FixMatch",
            Method::MetaPseudoLabels => "Meta Pseudo Label",
            Method::Taglets(PruneLevel::NoPruning) => "TAGLETS",
            Method::Taglets(PruneLevel::Level0) => "TAGLETS prune-level 0",
            Method::Taglets(PruneLevel::Level1) => "TAGLETS prune-level 1",
        }
    }

    /// Evaluates the method on one task split with one training seed,
    /// returning test accuracy in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`EvalError::System`] when the TAGLETS pipeline fails (e.g. an
    /// invalid split or a SCADS extension error); the pure baselines are
    /// infallible.
    pub fn evaluate(
        self,
        env: &Experiment,
        task: &Task,
        split: &TaskSplit,
        backbone: BackboneKind,
        seed: u64,
    ) -> Result<f32, EvalError> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let num_classes = task.num_classes();
        let unlabeled = env.capped_unlabeled(split, seed);
        match self {
            Method::FineTuning => {
                let clf = fine_tune(
                    env.zoo(),
                    backbone,
                    split,
                    num_classes,
                    &taglets_core::TransferConfig::default(),
                    &mut rng,
                );
                Ok(clf.accuracy(&split.test_x, &split.test_y))
            }
            Method::FineTuningDistilled => {
                let model = fine_tune_distilled(
                    env.zoo(),
                    backbone,
                    split,
                    &unlabeled,
                    num_classes,
                    &taglets_core::TransferConfig::default(),
                    &taglets_core::EndModelConfig::default(),
                    &mut rng,
                );
                Ok(model.accuracy(&split.test_x, &split.test_y))
            }
            Method::FixMatch => {
                let clf = fixmatch_baseline(
                    env.zoo(),
                    backbone,
                    split,
                    &unlabeled,
                    num_classes,
                    &taglets_core::FixMatchConfig::default(),
                    &mut rng,
                );
                Ok(clf.accuracy(&split.test_x, &split.test_y))
            }
            Method::MetaPseudoLabels => {
                let student = meta_pseudo_labels(
                    env.zoo(),
                    backbone,
                    split,
                    &unlabeled,
                    num_classes,
                    &MplConfig::default(),
                    &mut rng,
                );
                Ok(student.accuracy(&split.test_x, &split.test_y))
            }
            Method::Taglets(prune) => {
                let system = env.system(TagletsConfig::for_backbone(backbone));
                let run = system.run(task, split, prune, seed)?;
                Ok(run.end_model.accuracy(&split.test_x, &split.test_y))
            }
        }
    }
}

/// Detailed TAGLETS diagnostics for the figure benches.
#[derive(Debug, Clone)]
pub struct TagletsDetail {
    /// `(module name, test accuracy)` for each taglet.
    pub module_accuracies: Vec<(String, f32)>,
    /// Test accuracy of the taglet ensemble (Eq. 6 votes, argmax).
    pub ensemble_accuracy: f32,
    /// Test accuracy of the distilled end model.
    pub end_model_accuracy: f32,
    /// The run's structured execution telemetry (stage/module timings,
    /// per-module training curves, worker count).
    pub telemetry: RunTelemetry,
}

impl TagletsDetail {
    /// Mean accuracy over the training modules (the baseline of Fig. 5).
    pub fn module_mean(&self) -> f32 {
        crate::mean(
            &self
                .module_accuracies
                .iter()
                .map(|(_, a)| *a)
                .collect::<Vec<_>>(),
        )
    }

    /// Accuracy of the best single module.
    pub fn best_module(&self) -> f32 {
        self.module_accuracies
            .iter()
            .map(|(_, a)| *a)
            .fold(0.0, f32::max)
    }
}

/// Runs TAGLETS and reports per-module, ensemble, and end-model test
/// accuracies (Figures 4, 5, 8–13).
///
/// # Errors
///
/// [`EvalError::System`] when the pipeline fails (e.g. every module was
/// disabled, or SCADS could not be extended for the task).
pub fn run_taglets_detailed(
    env: &Experiment,
    task: &Task,
    split: &TaskSplit,
    backbone: BackboneKind,
    prune: PruneLevel,
    seed: u64,
    disabled_module: Option<&str>,
) -> Result<TagletsDetail, EvalError> {
    let mut system = env.system(TagletsConfig::for_backbone(backbone));
    if let Some(name) = disabled_module {
        system = system.without_module(name);
    }
    let run = system.run(task, split, prune, seed)?;
    let module_accuracies = run
        .taglets
        .iter()
        .map(|t| {
            (
                t.name().to_string(),
                t.accuracy(&split.test_x, &split.test_y),
            )
        })
        .collect();
    Ok(TagletsDetail {
        module_accuracies,
        ensemble_accuracy: run.ensemble().accuracy(&split.test_x, &split.test_y),
        end_model_accuracy: run.end_model.accuracy(&split.test_x, &split.test_y),
        telemetry: run.telemetry,
    })
}

/// One independent cell of an evaluation sweep: a `(task, split, shots,
/// training-seed)` coordinate. Cells share nothing but the read-only
/// environment, so a sweep over them parallelizes without changing results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Task name (resolved against the environment when the cell runs).
    pub task: String,
    /// Split seed (which labeled/unlabeled partition).
    pub split_seed: u64,
    /// Shots per class.
    pub shots: usize,
    /// Training seed (Appendix A.3).
    pub seed: u64,
}

impl SweepCell {
    /// A cell at the given sweep coordinate.
    pub fn new(task: impl Into<String>, split_seed: u64, shots: usize, seed: u64) -> Self {
        SweepCell {
            task: task.into(),
            split_seed,
            shots,
            seed,
        }
    }
}

/// Evaluates `method` on every cell, in cell order, returning accuracies
/// in that order.
///
/// Cells run one after another: a TAGLETS cell already fans its modules out
/// over the available cores, and a second fan-out across cells would only
/// oversubscribe them. Every cell derives all of its randomness from its
/// own coordinates, so a cell's result does not depend on its neighbours.
///
/// # Errors
///
/// The first (by cell order) [`EvalError`] any cell produced; later cells
/// are not run.
pub fn sweep_method(
    env: &Experiment,
    method: Method,
    backbone: BackboneKind,
    cells: &[SweepCell],
) -> Result<Vec<f32>, EvalError> {
    cells
        .iter()
        .map(|cell| {
            let task = env.task(&cell.task)?;
            let split = task.split(cell.split_seed, cell.shots);
            method.evaluate(env, task, &split, backbone, cell.seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels_match_the_papers_rows() {
        let labels: Vec<&str> = Method::table_rows().iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Fine-tuning",
                "Fine-tuning (Distilled)",
                "FixMatch",
                "Meta Pseudo Label",
                "TAGLETS"
            ]
        );
        let pruning: Vec<&str> = Method::pruning_rows().iter().map(|m| m.label()).collect();
        assert_eq!(
            pruning,
            vec!["TAGLETS prune-level 0", "TAGLETS prune-level 1"]
        );
    }

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(ExperimentScale::Smoke.num_concepts() < ExperimentScale::Paper.num_concepts());
        assert!(
            ExperimentScale::Smoke.corpus_per_concept()
                < ExperimentScale::Paper.corpus_per_concept()
        );
        assert_eq!(ExperimentScale::Paper.training_seeds(), vec![0, 1, 2]);
    }

    #[test]
    fn taglets_detail_summaries() {
        let d = TagletsDetail {
            module_accuracies: vec![("a".into(), 0.2), ("b".into(), 0.6), ("c".into(), 0.4)],
            ensemble_accuracy: 0.7,
            end_model_accuracy: 0.65,
            telemetry: RunTelemetry {
                workers: 1,
                stages: vec![],
                modules: vec![],
                end_model: taglets_core::ModuleTelemetry {
                    name: "end-model".into(),
                    seconds: 0.0,
                    report: taglets_nn::FitReport::default(),
                },
            },
        };
        assert!((d.module_mean() - 0.4).abs() < 1e-6);
        assert!((d.best_module() - 0.6).abs() < 1e-6);
    }
}
