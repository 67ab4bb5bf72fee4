//! # taglets-data
//!
//! The data substrate of the TAGLETS reproduction: a synthetic
//! [`ConceptUniverse`] standing in for ImageNet-21k + real photographs, the
//! four evaluation [`Task`]s of the paper (Sec. 4.1), the experimental
//! split protocol (Appendix A.3), label-preserving [`Augmenter`]s, and the
//! pretrained-backbone [`ModelZoo`] ("ResNet-50 (ImageNet-1k)" /
//! "BiT (ImageNet-21k)" stand-ins).
//!
//! The universe guarantees the property every TAGLETS mechanism relies on:
//! concepts close in the knowledge graph generate visually similar images,
//! so graph-based auxiliary-data selection genuinely transfers.
//!
//! ## Example
//!
//! ```no_run
//! use taglets_data::{standard_tasks, ConceptUniverse, DataError, ModelZoo, ZooConfig};
//!
//! # fn main() -> Result<(), DataError> {
//! let mut universe = ConceptUniverse::with_seed(7)?;
//! let tasks = standard_tasks(&mut universe)?;
//! let corpus = universe.build_corpus(25, 0);
//! let scads = universe.build_scads(&corpus)?;
//! let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())?;
//! let split = tasks[0].split(/* split */ 0, /* shots */ 1);
//! assert_eq!(split.labeled_y.len(), tasks[0].num_classes());
//! # let _ = (scads, zoo);
//! # Ok(())
//! # }
//! ```

mod error;
mod stats;
mod tasks;
mod universe;
mod zoo;

pub use error::DataError;
pub use stats::TaskSummary;
pub use taglets_nn::Augmenter;
pub use tasks::{standard_tasks, ClassSpec, Task, TaskSplit, GROCERY_OOV};
pub use universe::{
    AuxiliaryCorpus, ConceptUniverse, CorpusTrainingSet, Domain, Image, UniverseConfig,
};
pub use zoo::{BackboneKind, ModelZoo, PretrainedModel, ZooConfig};
