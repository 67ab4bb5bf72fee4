//! The selection contract: `select_related`'s batched query answers each
//! target exactly as `related_concepts` does, and degenerate inputs give
//! an empty selection.

use taglets_graph::{generate, retrofit, ConceptId, RetrofitConfig, SyntheticGraphConfig};
use taglets_scads::{AuxiliarySelection, PruneLevel, Scads};

fn build(num_concepts: usize) -> Scads<u32> {
    let world = generate(&SyntheticGraphConfig {
        num_concepts,
        ..SyntheticGraphConfig::default()
    });
    let emb = retrofit(
        &world.graph,
        &world.word_vectors,
        &RetrofitConfig::default(),
        |_| true,
    )
    .unwrap();
    Scads::new(world.graph, world.taxonomy, emb)
}

/// Installs `per_concept` examples at every concept `keep` accepts.
fn populate(scads: &mut Scads<u32>, per_concept: usize, keep: impl Fn(ConceptId) -> bool) {
    let items: Vec<(ConceptId, u32)> = scads
        .graph()
        .concepts()
        .filter(|&c| keep(c))
        .flat_map(|c| (0..per_concept).map(move |k| (c, (c.0 * 100 + k) as u32)))
        .collect();
    scads.install_by_id("aux", items).unwrap();
}

fn bits(hits: &[(ConceptId, f32)]) -> Vec<(ConceptId, u32)> {
    hits.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

fn assert_empty(sel: &AuxiliarySelection<u32>, what: &str) {
    assert!(sel.is_empty(), "{what}: {} examples", sel.len());
    assert_eq!(sel.num_aux_classes(), 0, "{what}: aux classes");
    assert!(sel.per_target.iter().all(Vec::is_empty), "{what}: hits");
}

#[test]
fn batched_selection_equals_per_target_queries_at_every_prune_level() {
    let mut scads = build(150);
    // Every third concept carries no data, so exclusion does real work.
    populate(&mut scads, 4, |c| c.0 % 3 != 0);
    // A duplicated target and siblings make shared and tied concepts
    // likely. Targets sit deep in the tree, so level 1 leaves data.
    let t = scads.taxonomy().clone();
    let deep: Vec<ConceptId> = scads
        .graph()
        .concepts()
        .filter(|&c| t.depth(c) >= 3)
        .collect();
    let siblings = t.children(t.parent(deep[0]).unwrap()).to_vec();
    let targets = [
        deep[0],
        deep[7],
        siblings[siblings.len() - 1],
        deep[0],
        deep[12],
    ];
    for prune in PruneLevel::ALL {
        // One pruned set, that of the whole target list, applies to all.
        let pruned = prune.pruned_set(scads.taxonomy(), &targets);
        for n in [1, 3, 8] {
            let sel = scads.select_related(&targets, n, 2, prune);
            assert_eq!(sel.per_target.len(), targets.len());
            for (&target, hits) in targets.iter().zip(&sel.per_target) {
                let single = scads.related_concepts(target, n, prune, &targets);
                assert_eq!(bits(hits), bits(&single), "{target} at {prune}, N={n}");
                assert!(
                    !hits.is_empty() && hits.len() <= n,
                    "{target} at {prune}, N={n}"
                );
                for &(c, _) in hits {
                    assert!(
                        pruned.binary_search(&c).is_err(),
                        "{c} is pruned at {prune}"
                    );
                    assert!(scads.num_examples_at(c) > 0, "{c} has no data");
                }
            }
            // Aux classes are the per-target hits, deduplicated in
            // first-retrieved order.
            let mut want: Vec<ConceptId> = Vec::new();
            for &(c, _) in sel.per_target.iter().flatten() {
                if !want.contains(&c) {
                    want.push(c);
                }
            }
            assert_eq!(sel.concepts, want, "at {prune}, N={n}");
        }
    }
}

#[test]
fn an_empty_target_list_selects_nothing() {
    let mut scads = build(60);
    populate(&mut scads, 3, |_| true);
    for prune in PruneLevel::ALL {
        let sel = scads.select_related(&[], 3, 5, prune);
        assert_empty(&sel, "no targets");
        assert!(sel.per_target.is_empty());
    }
}

#[test]
fn zero_concepts_per_target_selects_nothing() {
    let mut scads = build(60);
    populate(&mut scads, 3, |_| true);
    let targets = [ConceptId(10), ConceptId(20)];
    let sel = scads.select_related(&targets, 0, 5, PruneLevel::NoPruning);
    assert_empty(&sel, "N = 0");
    assert_eq!(sel.per_target.len(), targets.len());
}

#[test]
fn pruning_every_concept_with_data_selects_nothing() {
    let mut scads = build(120);
    let t = scads.taxonomy().clone();
    let target = t.children(t.root().unwrap())[0];
    // Data only inside the target's subtree, which level 0 removes.
    let subtree = t.descendants(target);
    populate(&mut scads, 3, |c| subtree.contains(&c));
    let kept = scads.select_related(&[target], 3, 5, PruneLevel::NoPruning);
    assert!(
        !kept.is_empty(),
        "without pruning the subtree is selectable"
    );
    for prune in [PruneLevel::Level0, PruneLevel::Level1] {
        let sel = scads.select_related(&[target], 3, 5, prune);
        assert_empty(&sel, &format!("fully pruned at {prune}"));
    }
}
