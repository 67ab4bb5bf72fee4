//! # TAGLETS — automatic semi-supervised learning with auxiliary data
//!
//! A full-system Rust reproduction of *"TAGLETS: A System for Automatic
//! Semi-Supervised Learning with Auxiliary Data"* (Piriyakulkij et al.,
//! MLSys 2022), built entirely from scratch: tensor/autograd engine, neural
//! networks, a ConceptNet-style knowledge graph with retrofitted
//! embeddings, the SCADS auxiliary-data store, a synthetic data universe
//! standing in for ImageNet-21k and the four evaluation datasets, the four
//! TAGLETS modules, ensembling, distillation, and every baseline from the
//! paper's evaluation.
//!
//! This crate is a facade: it re-exports the most-used types and exposes
//! each subsystem as a module. See `README.md` for the architecture map and
//! `DESIGN.md`/`EXPERIMENTS.md` for the reproduction methodology.
//!
//! ## Quickstart
//!
//! ```no_run
//! use taglets::{
//!     standard_tasks, BackboneKind, ConceptUniverse, ModelZoo, PruneLevel, TagletsConfig,
//!     TagletsSystem, ZooConfig,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A world: knowledge graph + auxiliary corpus + target tasks.
//! let mut universe = ConceptUniverse::with_seed(7)?;
//! let tasks = standard_tasks(&mut universe)?;
//! let corpus = universe.build_corpus(25, 0);
//! let scads = universe.build_scads(&corpus)?;
//! let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())?;
//!
//! // 2. Prepare once, run per task/split.
//! let system = TagletsSystem::prepare(
//!     &scads,
//!     &zoo,
//!     TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k),
//! );
//! let split = tasks[0].split(0, 1);
//! let run = system.run(&tasks[0], &split, PruneLevel::NoPruning, 0)?;
//! println!("1-shot accuracy: {:.3}", run.end_model.accuracy(&split.test_x, &split.test_y));
//! # Ok(())
//! # }
//! ```

pub use taglets_core::{
    fixmatch_train, ClassifierTaglet, CoreError, EndModelConfig, Ensemble, FixMatchConfig,
    FixMatchModule, ModuleContext, ModuleTelemetry, MultiTaskConfig, MultiTaskModule, RunTelemetry,
    ServableModel, ServeConfig, ServeError, ServeResponse, ServeRun, ServeTelemetry, ServingEngine,
    StageTelemetry, Taglet, TagletModule, TagletsConfig, TagletsRun, TagletsSystem, TimedRequest,
    TrainedTaglet, TransferConfig, TransferModule, VirtualClock, ZslKgConfig, ZslKgModule,
};
pub use taglets_data::{
    standard_tasks, Augmenter, AuxiliaryCorpus, BackboneKind, ClassSpec, ConceptUniverse,
    DataError, Domain, Image, ModelZoo, PretrainedModel, Task, TaskSplit, UniverseConfig,
    ZooConfig,
};
pub use taglets_graph::{ConceptGraph, ConceptId, GraphError, Relation, Taxonomy};
pub use taglets_scads::{AuxiliarySelection, DatasetId, PruneLevel, Scads, ScadsError};

/// The tensor/autograd substrate (re-export of `taglets-tensor`).
pub mod tensor {
    pub use taglets_tensor::*;
}

/// Neural-network layers and training loops (re-export of `taglets-nn`).
pub mod nn {
    pub use taglets_nn::*;
}

/// Knowledge graph, retrofitting, and the ZSL-KG GNN (re-export of
/// `taglets-graph`).
pub mod graph {
    pub use taglets_graph::*;
}

/// The structured collection of annotated datasets (re-export of
/// `taglets-scads`).
pub mod scads {
    pub use taglets_scads::*;
}

/// Synthetic universe, tasks, and the pretrained-model zoo (re-export of
/// `taglets-data`).
pub mod data {
    pub use taglets_data::*;
}

/// Evaluation baselines from the paper (re-export of `taglets-baselines`).
pub mod baselines {
    pub use taglets_baselines::*;
}

/// Experiment runner, metrics, and table formatting (re-export of
/// `taglets-eval`).
pub mod eval {
    pub use taglets_eval::*;
}
