//! # taglets-scads
//!
//! The **S**tructured **C**ollection of **A**nnotated **D**ataset**s** from
//! Sec. 3.1 of the TAGLETS paper: auxiliary labeled datasets joined onto a
//! common-sense knowledge graph, plus the graph-based machinery that selects
//! task-related auxiliary data and the WordNet-style pruning protocol used in
//! the evaluation (Sec. 4.3).
//!
//! A [`Scads`] is generic over the example payload `X` (the companion
//! `taglets-data` crate stores flat image vectors), so the selection logic is
//! independent of any particular data representation.
//!
//! ## Example
//!
//! ```
//! use taglets_graph::{generate, retrofit, RetrofitConfig, SyntheticGraphConfig};
//! use taglets_scads::{PruneLevel, Scads};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let world = generate(&SyntheticGraphConfig { num_concepts: 80, ..Default::default() });
//! let emb = retrofit(&world.graph, &world.word_vectors, &RetrofitConfig::default(), |_| true)?;
//! let mut scads = Scads::new(world.graph, world.taxonomy, emb);
//!
//! // Install a tiny dataset: 3 examples of the root concept.
//! scads.install(
//!     "toy",
//!     vec![("entity", 1u8), ("entity", 2), ("entity", 3)],
//! )?;
//! let root = scads.graph().require("entity")?;
//! let selection = scads.select_related(&[root], 2, 2, PruneLevel::NoPruning);
//! assert!(!selection.examples.is_empty());
//! # Ok(())
//! # }
//! ```

mod error;
mod pruning;
mod store;

pub use error::ScadsError;
pub use pruning::PruneLevel;
pub use store::{AuxiliarySelection, DatasetId, Scads};
