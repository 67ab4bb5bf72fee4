//! # taglets-graph
//!
//! The knowledge-graph substrate of the TAGLETS reproduction: a
//! ConceptNet-style [`ConceptGraph`], a WordNet-style [`Taxonomy`] for
//! pruning, SCADS embeddings via expanded [`retrofit`]ting (paper Appendix
//! A.1), out-of-vocabulary [`approximate_embedding`]s (Appendix A.2), a
//! synthetic common-sense graph [`generate`]d with latent semantic ground
//! truth, and the [`GraphEncoder`] GNN behind the ZSL-KG module.
//!
//! ## Example
//!
//! ```
//! use taglets_graph::{generate, retrofit, RetrofitConfig, SyntheticGraphConfig};
//!
//! # fn main() -> Result<(), taglets_graph::GraphError> {
//! let cfg = SyntheticGraphConfig { num_concepts: 100, ..SyntheticGraphConfig::default() };
//! let world = generate(&cfg);
//! let scads_embeddings = retrofit(
//!     &world.graph,
//!     &world.word_vectors,
//!     &RetrofitConfig::default(),
//!     |_| true,
//! )?;
//! let query = scads_embeddings.get(world.taxonomy.root().unwrap());
//! let related = scads_embeddings.most_similar(query, 5, |_| false);
//! assert_eq!(related.len(), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod embeddings;
mod gnn;
mod graph;
mod synthetic;
mod taxonomy;

pub use analysis::{bfs_distances, graph_stats, hop_distance, to_dot, GraphStats};
pub use embeddings::{approximate_embedding, retrofit, ConceptEmbeddings, RetrofitConfig};
pub use gnn::{
    normalized_adjacency, pretrain_encoder, Aggregation, GnnPretrainConfig, GnnPretrainReport,
    GraphEncoder,
};
pub use graph::{ConceptGraph, ConceptId, Edge, Relation};
pub use synthetic::{generate, SyntheticGraph, SyntheticGraphConfig};
pub use taxonomy::Taxonomy;

use std::error::Error;
use std::fmt;

/// Errors produced by graph and embedding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A concept name was not found in the graph.
    UnknownConcept {
        /// The missing concept name.
        name: String,
    },
    /// A rename collided with an existing concept name.
    DuplicateName {
        /// The conflicting name.
        name: String,
    },
    /// Embedding row count does not match the graph's concept count.
    EmbeddingShape {
        /// Concepts in the graph.
        concepts: usize,
        /// Rows in the embedding matrix.
        rows: usize,
    },
    /// An out-of-vocabulary approximation was requested with no usable terms.
    EmptyApproximation,
    /// A pushed embedding vector's length does not match the matrix width.
    EmbeddingDim {
        /// The matrix's dimensionality.
        expected: usize,
        /// The pushed vector's length.
        actual: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownConcept { name } => {
                write!(f, "concept `{name}` not found in the graph")
            }
            GraphError::DuplicateName { name } => {
                write!(f, "a concept named `{name}` already exists")
            }
            GraphError::EmbeddingShape { concepts, rows } => {
                write!(
                    f,
                    "embedding matrix has {rows} rows but the graph has {concepts} concepts"
                )
            }
            GraphError::EmptyApproximation => {
                write!(
                    f,
                    "embedding approximation requires at least one weighted term"
                )
            }
            GraphError::EmbeddingDim { expected, actual } => {
                write!(
                    f,
                    "pushed embedding has length {actual} but the matrix dimensionality is {expected}"
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_type_is_well_behaved() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<GraphError>();
    }
}
