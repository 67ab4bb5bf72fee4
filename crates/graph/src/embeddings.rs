//! SCADS embeddings: expanded retrofitting and similarity queries.
//!
//! Implements Appendix A.1 of the paper. Each concept `q` starts from a
//! distributional "word" vector `e_q` (our stand-in for word2vec) and is
//! retrofitted toward its graph neighbourhood by minimising
//!
//! ```text
//! Ψ(Q) = Σ_i [ α_i ‖e_i − ê_i‖² + Σ_{(i,j)∈N} β_ij ‖ê_i − ê_j‖² ]
//! ```
//!
//! via the standard Jacobi iteration (Faruqui et al. 2015; Speer & Chin
//! 2016). Setting `α_i = 0` yields the paper's rule for out-of-vocabulary
//! concepts: their embedding becomes a pure neighbourhood average.

use taglets_tensor::{cosine_from_parts, Tensor};

use crate::{ConceptGraph, ConceptId, GraphError};

/// Dense embeddings for every concept of a graph.
///
/// Row `i` is the vector for [`ConceptId`]`(i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptEmbeddings {
    vectors: Tensor,
}

impl ConceptEmbeddings {
    /// Wraps a `[num_concepts, dim]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is not rank 2.
    pub fn new(vectors: Tensor) -> Self {
        assert_eq!(vectors.rank(), 2, "embeddings must be a [n, d] matrix");
        ConceptEmbeddings { vectors }
    }

    /// Number of embedded concepts.
    pub fn len(&self) -> usize {
        self.vectors.rows()
    }

    /// `true` when no concepts are embedded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// The vector for a concept.
    pub fn get(&self, id: ConceptId) -> &[f32] {
        self.vectors.row(id.0)
    }

    /// The full `[n, d]` matrix (GNN node features).
    pub fn matrix(&self) -> &Tensor {
        &self.vectors
    }

    /// Appends a vector for a newly added concept.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmbeddingDim`] when the vector length differs
    /// from [`ConceptEmbeddings::dim`].
    pub fn push(&mut self, vector: &[f32]) -> Result<ConceptId, GraphError> {
        let d = self.dim();
        if vector.len() != d {
            return Err(GraphError::EmbeddingDim {
                expected: d,
                actual: vector.len(),
            });
        }
        let n = self.vectors.rows();
        // lint: alloc(vocabulary growth; extend amortizes over the matrix's doubling)
        let mut data = std::mem::take(&mut self.vectors).into_vec();
        data.extend_from_slice(vector);
        // `(n + 1) * d` elements by construction; the tensor constructor's
        // shape check can only agree, so surface its error instead of
        // asserting on it.
        self.vectors =
            // lint: alloc(two-element shape Vec for the grown matrix)
            Tensor::from_shape(vec![n + 1, d], data).map_err(|_| GraphError::EmbeddingDim {
                expected: d,
                actual: vector.len(),
            })?;
        Ok(ConceptId(n))
    }

    /// The `top_n` most cosine-similar concepts to `query`, excluding ids for
    /// which `exclude` returns `true`: the one-row case of
    /// [`ConceptEmbeddings::most_similar_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from [`ConceptEmbeddings::dim`].
    pub fn most_similar(
        &self,
        query: &[f32],
        top_n: usize,
        exclude: impl FnMut(ConceptId) -> bool,
    ) -> Vec<(ConceptId, f32)> {
        let queries = Tensor::from_rows(&[query]);
        self.most_similar_rows(&queries, top_n, exclude)
            .pop()
            .unwrap_or_default()
    }

    /// For each row of the `[m, dim]` matrix `queries`, the `top_n` most
    /// cosine-similar concepts, excluding ids for which `exclude` returns
    /// `true` (asked once per concept). Row `i` of the result answers query
    /// `i`, by descending similarity, ties by ascending id.
    ///
    /// Every score has the bits of `cosine_similarity(query, get(id))`
    /// ([`taglets_tensor::cosine_similarity`]). All dots come from one
    /// `queries · Eᵀ` product, whose Nt kernel sums each from `+0.0` in
    /// ascending order with no zero skip, exactly like that function's
    /// loop; the squared norms are the same sequential sums, taken once per
    /// row; and [`cosine_from_parts`] is the same final step.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is not rank 2 or its width differs from
    /// [`ConceptEmbeddings::dim`]. A wrong-width query has no meaningful
    /// similarity, so it is refused instead of truncated.
    pub fn most_similar_rows(
        &self,
        queries: &Tensor,
        top_n: usize,
        mut exclude: impl FnMut(ConceptId) -> bool,
    ) -> Vec<Vec<(ConceptId, f32)>> {
        assert_eq!(queries.rank(), 2, "queries must be a [m, d] matrix");
        assert_eq!(
            queries.cols(),
            self.dim(),
            "query width {} vs embedding dim {}",
            queries.cols(),
            self.dim()
        );
        let n = self.len();
        let candidates: Vec<usize> = (0..n).filter(|&i| !exclude(ConceptId(i))).collect();
        let norms: Vec<f32> = (0..n).map(|i| squared_norm(self.vectors.row(i))).collect();
        let dots = queries.matmul_nt(&self.vectors);
        let mut scored = Vec::with_capacity(candidates.len());
        (0..queries.rows())
            .map(|r| {
                let qn = squared_norm(queries.row(r));
                let row = dots.row(r);
                scored.clear();
                scored.extend(
                    candidates
                        .iter()
                        .map(|&i| (ConceptId(i), cosine_from_parts(row[i], qn, norms[i]))),
                );
                top_sorted(&mut scored, top_n).to_vec()
            })
            .collect()
    }
}

/// `Σ x²` summed in index order from `+0.0`: the norm chain of
/// [`taglets_tensor::cosine_similarity`].
fn squared_norm(v: &[f32]) -> f32 {
    let mut acc = 0.0;
    for &x in v {
        acc += x * x;
    }
    acc
}

/// The first `top_n` of `scored` under descending score (`total_cmp`), then
/// ascending id. Ids are distinct, so the order is total and a partial
/// selection followed by a sort of `top_n` equals a full sort truncated.
fn top_sorted(scored: &mut [(ConceptId, f32)], top_n: usize) -> &[(ConceptId, f32)] {
    let order =
        |a: &(ConceptId, f32), b: &(ConceptId, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    let keep = top_n.min(scored.len());
    if keep == 0 {
        return &[];
    }
    if keep < scored.len() {
        scored.select_nth_unstable_by(keep - 1, order);
    }
    let top = &mut scored[..keep];
    top.sort_unstable_by(order);
    top
}

/// Configuration for [`retrofit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrofitConfig {
    /// Weight `α` of the original word vector for in-vocabulary concepts.
    pub alpha: f32,
    /// Number of Jacobi sweeps (10 matches the original implementation).
    pub iterations: usize,
}

impl Default for RetrofitConfig {
    fn default() -> Self {
        RetrofitConfig {
            alpha: 1.0,
            iterations: 10,
        }
    }
}

/// Expanded retrofitting (paper Eq. 8).
///
/// `base` supplies the distributional vector `e_i` for each concept;
/// `in_vocabulary(i) == false` marks concepts whose `α_i` is 0 — they ignore
/// their base vector entirely and converge to their neighbourhood average
/// (the paper's treatment of out-of-vocabulary concepts).
///
/// # Errors
///
/// [`GraphError::EmbeddingShape`] when `base` row count differs from the
/// graph's concept count.
pub fn retrofit(
    graph: &ConceptGraph,
    base: &ConceptEmbeddings,
    cfg: &RetrofitConfig,
    mut in_vocabulary: impl FnMut(ConceptId) -> bool,
) -> Result<ConceptEmbeddings, GraphError> {
    if base.len() != graph.len() {
        return Err(GraphError::EmbeddingShape {
            concepts: graph.len(),
            rows: base.len(),
        });
    }
    let d = base.dim();
    let mut current = base.matrix().clone();
    let alphas: Vec<f32> = graph
        .concepts()
        .map(|id| if in_vocabulary(id) { cfg.alpha } else { 0.0 })
        .collect();

    for _ in 0..cfg.iterations {
        let previous = current.clone();
        for id in graph.concepts() {
            let edges = graph.neighbors(id);
            let alpha = alphas[id.0];
            if edges.is_empty() {
                // Isolated node: stays at its base vector (or zero if OOV).
                continue;
            }
            let beta_sum: f32 = edges.iter().map(|e| e.weight).sum();
            let denom = alpha + beta_sum;
            let mut new_vec = vec![0.0f32; d];
            for (k, nv) in new_vec.iter_mut().enumerate() {
                *nv = alpha * base.matrix().at(id.0, k);
            }
            for e in edges {
                let neigh = previous.row(e.to.0);
                for (nv, &x) in new_vec.iter_mut().zip(neigh) {
                    *nv += e.weight * x;
                }
            }
            for (k, nv) in new_vec.iter().enumerate() {
                current.set(id.0, k, nv / denom);
            }
        }
    }
    Ok(ConceptEmbeddings::new(current))
}

/// Approximates an embedding for a term absent from the vocabulary using
/// weighted related terms (paper Appendix A.2: `ê_q ≈ Σ_j w_j e_j`).
///
/// In the original system the related terms `P` share a maximal prefix with
/// the query; here callers pass the related concepts (e.g. `yoghurt`,
/// `carton`, `oat_milk` for `oatghurt`) with weights. Weights are normalised
/// to sum to one.
///
/// # Errors
///
/// [`GraphError::EmptyApproximation`] when `terms` is empty or all weights
/// are zero.
pub fn approximate_embedding(
    embeddings: &ConceptEmbeddings,
    terms: &[(ConceptId, f32)],
) -> Result<Vec<f32>, GraphError> {
    let total: f32 = terms.iter().map(|(_, w)| w.max(0.0)).sum();
    if terms.is_empty() || total <= 0.0 {
        return Err(GraphError::EmptyApproximation);
    }
    let mut out = vec![0.0f32; embeddings.dim()];
    for &(id, w) in terms {
        let w = w.max(0.0) / total;
        for (o, &x) in out.iter_mut().zip(embeddings.get(id)) {
            *o += w * x;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;
    use taglets_tensor::cosine_similarity;

    fn line_graph(n: usize) -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let ids: Vec<ConceptId> = (0..n).map(|i| g.add_concept(&format!("c{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], Relation::RelatedTo);
        }
        g
    }

    #[test]
    fn retrofitting_pulls_neighbors_together() {
        let g = line_graph(3);
        let base =
            ConceptEmbeddings::new(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 0.0]]));
        let fitted = retrofit(&g, &base, &RetrofitConfig::default(), |_| true).unwrap();
        let before = cosine_similarity(base.get(ConceptId(0)), base.get(ConceptId(1)));
        let after = cosine_similarity(fitted.get(ConceptId(0)), fitted.get(ConceptId(1)));
        assert!(after > before, "retrofit must increase neighbor similarity");
    }

    #[test]
    fn oov_concept_converges_to_neighborhood_average() {
        // Node 1 is OOV (α=0) between two anchored nodes.
        let g = line_graph(3);
        let base = ConceptEmbeddings::new(Tensor::from_rows(&[
            &[2.0, 0.0],
            &[100.0, 100.0], // garbage base vector, must be ignored
            &[0.0, 2.0],
        ]));
        let cfg = RetrofitConfig {
            alpha: 1.0,
            iterations: 50,
        };
        let fitted = retrofit(&g, &base, &cfg, |id| id != ConceptId(1)).unwrap();
        let v = fitted.get(ConceptId(1));
        let n0 = fitted.get(ConceptId(0));
        let n2 = fitted.get(ConceptId(2));
        let avg = [(n0[0] + n2[0]) / 2.0, (n0[1] + n2[1]) / 2.0];
        assert!((v[0] - avg[0]).abs() < 1e-3 && (v[1] - avg[1]).abs() < 1e-3);
    }

    #[test]
    fn zero_iterations_returns_base() {
        let g = line_graph(4);
        let base = ConceptEmbeddings::new(Tensor::eye(4));
        let cfg = RetrofitConfig {
            alpha: 1.0,
            iterations: 0,
        };
        let fitted = retrofit(&g, &base, &cfg, |_| true).unwrap();
        assert_eq!(fitted.matrix(), base.matrix());
    }

    #[test]
    fn retrofit_validates_row_count() {
        let g = line_graph(3);
        let base = ConceptEmbeddings::new(Tensor::eye(2));
        assert!(retrofit(&g, &base, &RetrofitConfig::default(), |_| true).is_err());
    }

    #[test]
    fn most_similar_orders_and_excludes() {
        let e = ConceptEmbeddings::new(Tensor::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0]]));
        let hits = e.most_similar(&[1.0, 0.0], 2, |id| id == ConceptId(0));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, ConceptId(1));
        assert!(hits[0].1 > hits[1].1);
    }

    #[test]
    fn approximate_embedding_is_weighted_average() {
        let e = ConceptEmbeddings::new(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let v = approximate_embedding(&e, &[(ConceptId(0), 3.0), (ConceptId(1), 1.0)]).unwrap();
        assert!((v[0] - 0.75).abs() < 1e-6);
        assert!((v[1] - 0.25).abs() < 1e-6);
        assert!(approximate_embedding(&e, &[]).is_err());
    }

    #[test]
    fn push_extends_matrix() {
        let mut e = ConceptEmbeddings::new(Tensor::eye(2));
        let id = e.push(&[0.5, 0.5]).unwrap();
        assert_eq!(id, ConceptId(2));
        assert_eq!(e.len(), 3);
        assert_eq!(e.get(id), &[0.5, 0.5]);
        assert!(matches!(
            e.push(&[1.0]),
            Err(GraphError::EmbeddingDim {
                expected: 2,
                actual: 1
            })
        ));
    }
}
