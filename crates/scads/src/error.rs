//! SCADS error type.

use std::error::Error;
use std::fmt;

use taglets_graph::GraphError;

/// Errors produced by SCADS installation and querying.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScadsError {
    /// An underlying graph operation failed (unknown concept, duplicate
    /// name, bad approximation terms, ...).
    Graph(GraphError),
    /// A dataset id does not refer to an installed dataset.
    UnknownDataset {
        /// The offending id value.
        id: usize,
    },
    /// Installation provided no examples.
    EmptyDataset {
        /// The dataset's name.
        name: String,
    },
}

impl fmt::Display for ScadsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScadsError::Graph(e) => write!(f, "graph error: {e}"),
            ScadsError::UnknownDataset { id } => write!(f, "no installed dataset with id {id}"),
            ScadsError::EmptyDataset { name } => {
                write!(f, "dataset `{name}` contains no examples")
            }
        }
    }
}

impl Error for ScadsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScadsError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ScadsError {
    fn from(e: GraphError) -> Self {
        ScadsError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ScadsError::UnknownDataset { id: 3 };
        assert!(e.to_string().contains('3'));
        let e = ScadsError::EmptyDataset { name: "x".into() };
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn graph_error_is_chained_as_source() {
        let e = ScadsError::from(GraphError::EmptyApproximation);
        assert!(Error::source(&e).is_some());
    }
}
