//! Taglets: the trained pseudo-labelers produced by modules (Sec. 3.2).
//!
//! A *module* is a training method; its output — a classifier
//! `t_m : x ↦ y ∈ [0,1]^C` with `Σ_c y_c = 1` — is a *taglet*. Taglets are
//! only ever consulted for probability vectors; the distillation stage
//! combines them into pseudo labels.

use std::fmt;

use rand::rngs::StdRng;

use taglets_data::Image;
use taglets_nn::{Classifier, FitReport};
use taglets_scads::{AuxiliarySelection, PruneLevel, Scads};
use taglets_tensor::Tensor;

use taglets_data::{BackboneKind, ModelZoo, Task, TaskSplit};
use taglets_graph::ConceptId;

use crate::{CoreError, TagletsConfig};

/// A trained pseudo-labeler over the target label space.
pub trait Taglet: Send + Sync {
    /// The taglet's display name (its module of origin).
    fn name(&self) -> &str;

    /// Class-probability rows for a batch (`[n, C]`, each row on the
    /// simplex).
    fn predict_proba(&self, x: &Tensor) -> Tensor;

    /// Predicted class per row (argmax of [`Taglet::predict_proba`]).
    fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }

    /// Accuracy against ground-truth labels.
    fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f32 {
        taglets_nn::accuracy(&self.predict(x), labels)
    }
}

impl fmt::Debug for dyn Taglet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Taglet({})", self.name())
    }
}

/// A taglet backed by an ordinary classifier (Transfer, Multi-task,
/// FixMatch, and ZSL-KG all produce these).
#[derive(Debug, Clone)]
pub struct ClassifierTaglet {
    name: String,
    classifier: Classifier,
}

impl ClassifierTaglet {
    /// Wraps a trained classifier as a named taglet.
    pub fn new(name: impl Into<String>, classifier: Classifier) -> Self {
        ClassifierTaglet {
            name: name.into(),
            classifier,
        }
    }

    /// The underlying classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }
}

impl Taglet for ClassifierTaglet {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_proba(&self, x: &Tensor) -> Tensor {
        self.classifier.predict_proba(x)
    }
}

/// Everything a module may consume while training (Sec. 3.2: a module takes
/// input data among `X`, `U`, and `R`).
///
/// The hidden labels of the unlabeled pool are deliberately absent.
pub struct ModuleContext<'a> {
    /// The target task definition (class names, graph alignment).
    pub task: &'a Task,
    /// The labeled/unlabeled/test split for this run.
    pub split: &'a TaskSplit,
    /// The SCADS (already extended with any out-of-vocabulary target
    /// classes).
    pub scads: &'a Scads<Image>,
    /// The pretrained-backbone zoo.
    pub zoo: &'a ModelZoo,
    /// Which backbone trainable modules should start from.
    pub backbone: BackboneKind,
    /// Pruning level applied to SCADS selection for this run.
    pub prune: PruneLevel,
    /// System configuration.
    pub config: &'a TagletsConfig,
    /// Resolved concept id of every target class, in label order.
    pub target_concepts: &'a [ConceptId],
    /// The selected auxiliary data `R`, computed once and shared by all
    /// modules.
    pub selection: &'a AuxiliarySelection<Image>,
    /// Unlabeled training images `U` (possibly capped per
    /// [`TagletsConfig::max_unlabeled`]).
    pub unlabeled: &'a Tensor,
}

impl ModuleContext<'_> {
    /// Number of target classes `C`.
    pub fn num_classes(&self) -> usize {
        self.task.num_classes()
    }

    /// The selected auxiliary data as a training matrix and labels; `None`
    /// when the selection is empty (e.g. a fully pruned SCADS).
    pub fn auxiliary_training_set(&self) -> Option<(Tensor, Vec<usize>)> {
        if self.selection.is_empty() {
            return None;
        }
        let rows: Vec<Vec<f32>> = self
            .selection
            .examples
            .iter()
            .map(|(img, _)| img.clone())
            .collect();
        let labels: Vec<usize> = self.selection.examples.iter().map(|(_, l)| *l).collect();
        Some((Tensor::stack_rows(&rows), labels))
    }
}

/// A trained taglet together with the training telemetry that produced it.
///
/// Modules used to return the bare `Box<dyn Taglet>` and drop the
/// [`FitReport`]s their training loops computed; the staged execution engine
/// keeps both, so per-module epoch losses and optimizer steps survive into
/// [`crate::RunTelemetry`].
#[derive(Debug)]
pub struct TrainedTaglet {
    /// The trained pseudo-labeler.
    pub taglet: Box<dyn Taglet>,
    /// Merged telemetry of every training phase the module ran (empty for
    /// training-free modules such as ZSL-KG).
    pub report: FitReport,
}

impl TrainedTaglet {
    /// Pairs a taglet with its training report.
    pub fn new(taglet: Box<dyn Taglet>, report: FitReport) -> Self {
        TrainedTaglet { taglet, report }
    }

    /// A taglet that performed no gradient training (empty report).
    pub fn untrained(taglet: Box<dyn Taglet>) -> Self {
        TrainedTaglet {
            taglet,
            report: FitReport::default(),
        }
    }
}

/// A training method that can be plugged into the system (Sec. 3.2's
/// "modular framework is extensible").
///
/// Implementations must be `Send + Sync`: the execution engine
/// ([`taglets_tensor::exec::Executor`]) trains independent modules on scoped
/// worker threads, one per available core, each holding a shared reference
/// to the module and the context.
pub trait TagletModule: Send + Sync {
    /// The module's display name (used in reports and figures).
    fn name(&self) -> &str;

    /// Trains the module on the context's data and returns its taglet plus
    /// the telemetry of every training phase.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError`] when required inputs are missing
    /// (e.g. no labeled data for a supervised module).
    fn train(&self, ctx: &ModuleContext<'_>, rng: &mut StdRng) -> Result<TrainedTaglet, CoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn classifier_taglet_rows_are_simplex() {
        let mut rng = StdRng::seed_from_u64(0);
        let clf = Classifier::from_dims(&[6, 8], 4, 0.0, &mut rng);
        let t = ClassifierTaglet::new("unit", clf);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let p = t.predict_proba(&x);
        assert_eq!(p.shape(), &[5, 4]);
        for row in p.rows_iter() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
        assert_eq!(t.name(), "unit");
        assert_eq!(t.predict(&x).len(), 5);
    }

    #[test]
    fn context_and_results_cross_thread_boundaries() {
        // The executor shares one ModuleContext across scoped workers and
        // sends each worker's TrainedTaglet back to the orchestrator.
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<ModuleContext<'_>>();
        assert_send::<TrainedTaglet>();
        assert_send::<CoreError>();
    }

    #[test]
    fn taglet_trait_objects_are_debuggable() {
        let mut rng = StdRng::seed_from_u64(1);
        let clf = Classifier::from_dims(&[3, 4], 2, 0.0, &mut rng);
        let t: Box<dyn Taglet> = Box::new(ClassifierTaglet::new("dbg", clf));
        assert_eq!(format!("{:?}", &*t), "Taglet(dbg)");
    }
}
