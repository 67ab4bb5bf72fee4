//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taglets_graph::{
    generate, normalized_adjacency, retrofit, ConceptEmbeddings, ConceptGraph, ConceptId, Relation,
    RetrofitConfig, SyntheticGraphConfig, Taxonomy,
};
use taglets_tensor::{cosine_similarity, Tensor};

/// The per-pair query `most_similar_rows` replaces: one
/// `cosine_similarity` per concept, a full sort, then truncation.
fn reference_most_similar(
    emb: &ConceptEmbeddings,
    query: &[f32],
    top_n: usize,
    exclude: impl Fn(ConceptId) -> bool,
) -> Vec<(ConceptId, f32)> {
    let mut scored: Vec<(ConceptId, f32)> = (0..emb.len())
        .map(ConceptId)
        .filter(|&id| !exclude(id))
        .map(|id| (id, cosine_similarity(query, emb.get(id))))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(top_n);
    scored
}

/// A random row, a zero row, or (when `pool` has rows) a copy of one of
/// them, so that exact ties and zero norms both occur.
fn tie_prone_row(rng: &mut StdRng, dim: usize, pool: &[Vec<f32>]) -> Vec<f32> {
    match rng.gen_range(0..10) {
        0 | 1 => vec![0.0; dim],
        2..=4 if !pool.is_empty() => pool[rng.gen_range(0..pool.len())].clone(),
        _ => (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
    }
}

fn bits(hits: &[(ConceptId, f32)]) -> Vec<(ConceptId, u32)> {
    hits.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

#[test]
#[should_panic(expected = "query width")]
fn most_similar_refuses_a_wrong_width_query() {
    let emb = ConceptEmbeddings::new(Tensor::eye(3));
    // One element short: a truncating zip would score it silently.
    let _ = emb.most_similar(&[1.0, 0.0], 2, |_| false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn taxonomy_descendant_counts_are_consistent(
        parents in prop::collection::vec(0usize..64, 1..40),
    ) {
        let mut t = Taxonomy::with_root(ConceptId(0));
        for (i, &p) in parents.iter().enumerate() {
            t.add_child(ConceptId(p % (i + 1)), ConceptId(i + 1));
        }
        let n = parents.len() + 1;
        // Root's descendants = every node exactly once.
        let mut all = t.descendants(ConceptId(0));
        all.sort();
        prop_assert_eq!(all.len(), n);
        all.dedup();
        prop_assert_eq!(all.len(), n);
        // Each node's descendants include itself, and depth of a child is
        // parent depth + 1.
        for i in 0..n {
            let id = ConceptId(i);
            prop_assert!(t.descendants(id).contains(&id));
            if let Some(p) = t.parent(id) {
                prop_assert_eq!(t.depth(id), t.depth(p) + 1);
            }
        }
        // Sum over root's children subtrees + root = n.
        let child_sum: usize = t
            .children(ConceptId(0))
            .iter()
            .map(|&c| t.descendants(c).len())
            .sum();
        prop_assert_eq!(child_sum + 1, n);
    }

    #[test]
    fn normalized_adjacency_is_row_stochastic(
        n in 2usize..30,
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..40),
    ) {
        let mut g = ConceptGraph::new();
        for i in 0..n {
            g.add_concept(&format!("c{i}"));
        }
        for &(a, b) in &edges {
            g.add_edge(ConceptId(a % n), ConceptId(b % n), Relation::RelatedTo);
        }
        let adj = normalized_adjacency(&g);
        prop_assert_eq!(adj.rows(), n);
        for i in 0..n {
            let sum: f32 = adj.row(i).map(|(_, v)| v).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            prop_assert!(adj.row(i).all(|(_, v)| v > 0.0));
            let cols: Vec<usize> = adj.row(i).map(|(j, _)| j).collect();
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted: {cols:?}");
        }
    }

    #[test]
    fn sparse_aggregation_matches_the_dense_kernels_bitwise(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        width in 1usize..40,
        seed in 0u64..1000,
    ) {
        // Edges arrive in arbitrary order and may leave nodes isolated;
        // both products must equal the dense GEMM on `to_dense()` bit for
        // bit.
        let mut g = ConceptGraph::new();
        for i in 0..n {
            g.add_concept(&format!("c{i}"));
        }
        for &(a, b) in &edges {
            g.add_edge(ConceptId(a % n), ConceptId(b % n), Relation::RelatedTo);
        }
        let adj = normalized_adjacency(&g);
        let dense = adj.to_dense();
        let mut rng = StdRng::seed_from_u64(seed);
        let h = Tensor::randn(&[n, width], 1.0, &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&adj.matmul(&h)), bits(&dense.matmul(&h)));
        prop_assert_eq!(bits(&adj.matmul_tn(&h)), bits(&dense.matmul_tn(&h)));
    }

    #[test]
    fn retrofitting_is_a_contraction_toward_consensus(
        seed in 0u64..200,
    ) {
        // More iterations never increase the total neighbor disagreement.
        let world = generate(&SyntheticGraphConfig {
            num_concepts: 60,
            seed,
            ..SyntheticGraphConfig::default()
        });
        let disagreement = |emb: &taglets_graph::ConceptEmbeddings| -> f32 {
            let mut total = 0.0;
            for id in world.graph.concepts() {
                for e in world.graph.neighbors(id) {
                    let a = emb.get(id);
                    let b = emb.get(e.to);
                    total += a
                        .iter()
                        .zip(b)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f32>();
                }
            }
            total
        };
        let few = retrofit(
            &world.graph,
            &world.word_vectors,
            &RetrofitConfig { alpha: 1.0, iterations: 2 },
            |_| true,
        )
        .unwrap();
        let many = retrofit(
            &world.graph,
            &world.word_vectors,
            &RetrofitConfig { alpha: 1.0, iterations: 20 },
            |_| true,
        )
        .unwrap();
        prop_assert!(disagreement(&many) <= disagreement(&few) * 1.01);
        prop_assert!(disagreement(&few) <= disagreement(&world.word_vectors) * 1.01);
    }

    #[test]
    fn most_similar_is_sorted_and_respects_top_n(
        seed in 0u64..100,
        top_n in 0usize..15,
        query_idx in 0usize..50,
    ) {
        let world = generate(&SyntheticGraphConfig {
            num_concepts: 50,
            seed,
            ..SyntheticGraphConfig::default()
        });
        let q = world.word_vectors.get(ConceptId(query_idx % 50)).to_vec();
        let hits = world.word_vectors.most_similar(&q, top_n, |_| false);
        prop_assert!(hits.len() <= top_n);
        for pair in hits.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1, "results must be sorted by similarity");
        }
    }
}

proptest! {
    // Cheap cases; enough of them to cross every `top_n` choice with every
    // exclusion mode many times over.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_query_matches_the_per_pair_cosine_bitwise(
        n in 0usize..20,
        dim in 1usize..10,
        m in 0usize..5,
        top_pick in 0usize..5,
        exclude_mode in 0u8..3,
        seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
        for _ in 0..n {
            let row = tie_prone_row(&mut rng, dim, &rows);
            rows.push(row);
        }
        let queries: Vec<Vec<f32>> = (0..m).map(|_| tie_prone_row(&mut rng, dim, &rows)).collect();
        let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let exclude = |id: ConceptId| match exclude_mode {
            0 => false,
            1 => mask[id.0],
            _ => true,
        };
        let top_n = [0, 1, n.saturating_sub(1), n, n + 5][top_pick];
        let flat: Vec<f32> = rows.concat();
        let emb = ConceptEmbeddings::new(Tensor::from_shape(vec![n, dim], flat).unwrap());
        let q_flat: Vec<f32> = queries.concat();
        let q = Tensor::from_shape(vec![m, dim], q_flat).unwrap();

        let batched = emb.most_similar_rows(&q, top_n, exclude);
        prop_assert_eq!(batched.len(), m);
        for (query, hits) in queries.iter().zip(&batched) {
            let want = reference_most_similar(&emb, query, top_n, exclude);
            prop_assert_eq!(bits(hits), bits(&want));
            prop_assert_eq!(bits(&emb.most_similar(query, top_n, exclude)), bits(&want));
        }
    }
}
