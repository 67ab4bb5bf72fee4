//! # taglets-core
//!
//! The TAGLETS system itself (Piriyakulkij et al., MLSys 2022): four
//! training modules tailored to exploit a SCADS — [`TransferModule`],
//! [`MultiTaskModule`], [`FixMatchModule`], [`ZslKgModule`] — an
//! unsupervised [`Ensemble`] that turns their predictions into soft pseudo
//! labels (Eq. 6), and a [`distillation`] stage that trains one servable
//! end model on pseudo-labeled plus labeled data (Eq. 7).
//!
//! The entry point is [`TagletsSystem`]: prepare once per SCADS + model zoo,
//! run per task/split/pruning-level.
//!
//! ```no_run
//! use taglets_core::{TagletsConfig, TagletsSystem};
//! use taglets_data::{standard_tasks, BackboneKind, ConceptUniverse, ModelZoo, ZooConfig};
//! use taglets_scads::PruneLevel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut universe = ConceptUniverse::with_seed(7)?;
//! let tasks = standard_tasks(&mut universe)?;
//! let corpus = universe.build_corpus(25, 0);
//! let scads = universe.build_scads(&corpus)?;
//! let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())?;
//!
//! let config = TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k);
//! let system = TagletsSystem::prepare(&scads, &zoo, config);
//! let split = tasks[0].split(0, 1); // split 0, 1-shot
//! let run = system.run(&tasks[0], &split, PruneLevel::NoPruning, 0)?;
//! let accuracy = run.end_model.accuracy(&split.test_x, &split.test_y);
//! println!("1-shot accuracy: {accuracy:.3}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod distillation;
mod ensemble;
mod modules;
mod servable;
pub mod serve;
mod system;
mod taglet;
mod telemetry;

pub use config::{
    EndModelConfig, FixMatchConfig, MultiTaskConfig, SelectionStrategy, TagletsConfig,
    TransferConfig, ZslKgConfig,
};
pub use ensemble::Ensemble;
pub use modules::{fixmatch_train, FixMatchModule, MultiTaskModule, TransferModule, ZslKgModule};
pub use servable::ServableModel;
pub use serve::{
    Clock, ServeConfig, ServeError, ServeResponse, ServeRun, ServeTelemetry, ServingEngine,
    TimedRequest, VirtualClock,
};
pub use system::{TagletsRun, TagletsSystem};
pub use taglet::{ClassifierTaglet, ModuleContext, Taglet, TagletModule, TrainedTaglet};
pub use telemetry::{ModuleTelemetry, RunTelemetry, StageTelemetry};

use std::error::Error;
use std::fmt;

use taglets_scads::ScadsError;

/// Errors produced by the TAGLETS system.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A supervised module received an empty labeled set.
    NoLabeledData {
        /// The module that failed.
        module: &'static str,
    },
    /// Every module was disabled before running.
    NoModules,
    /// An active module name did not match any registered module.
    UnknownModule {
        /// The unmatched module name.
        name: String,
    },
    /// A SCADS operation failed (e.g. extending the graph for an
    /// out-of-vocabulary class).
    Scads(ScadsError),
    /// The [`taglets_data::TaskSplit`] handed to a run is malformed.
    InvalidSplit {
        /// The offending split field (`labeled_x`, `labeled_y` or
        /// `unlabeled_x`).
        field: &'static str,
        /// The first offending row of that field.
        row: usize,
        /// What is wrong with the row.
        reason: &'static str,
    },
    /// A [`TagletsConfig`] hyperparameter handed to a run is out of range.
    InvalidConfig {
        /// The offending field, as its path in the config
        /// (`fixmatch.batch_size`, say).
        field: &'static str,
        /// What is wrong with the value.
        reason: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoLabeledData { module } => {
                write!(f, "module `{module}` requires labeled target data")
            }
            CoreError::NoModules => write!(f, "no active modules; nothing to ensemble"),
            CoreError::UnknownModule { name } => {
                write!(f, "active module `{name}` is not registered")
            }
            CoreError::Scads(e) => write!(f, "scads error: {e}"),
            CoreError::InvalidSplit { field, row, reason } => {
                write!(f, "invalid split: `{field}` row {row}: {reason}")
            }
            CoreError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: `{field}`: {reason}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Scads(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScadsError> for CoreError {
    fn from(e: ScadsError) -> Self {
        CoreError::Scads(e)
    }
}

impl From<taglets_graph::GraphError> for CoreError {
    fn from(e: taglets_graph::GraphError) -> Self {
        CoreError::Scads(ScadsError::Graph(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_type_is_well_behaved() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
        let e = CoreError::NoLabeledData { module: "transfer" };
        assert!(e.to_string().contains("transfer"));
    }
}
