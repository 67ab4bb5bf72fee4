//! SCADS pruning (paper Sec. 4.3, Appendix A.4).
//!
//! Pruning simulates the scenario where only *distantly related* auxiliary
//! data exists, by removing concepts close to the target classes from the
//! semantic tree `H`:
//!
//! * **prune-level 0** removes each target concept and all its descendants
//!   (hyponyms/derivatives);
//! * **prune-level 1** additionally removes each target's parent and the
//!   parent's entire subtree (siblings and their descendants).

use std::collections::BTreeSet;

use taglets_graph::{ConceptId, Taxonomy};

/// How aggressively task-related concepts are removed before selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PruneLevel {
    /// No pruning: the full SCADS is available.
    #[default]
    NoPruning,
    /// Remove each target concept and its descendants.
    Level0,
    /// Additionally remove each target's parent subtree.
    Level1,
}

impl PruneLevel {
    /// All levels, in increasing severity (handy for sweeps).
    pub const ALL: [PruneLevel; 3] = [
        PruneLevel::NoPruning,
        PruneLevel::Level0,
        PruneLevel::Level1,
    ];

    /// Short label used in result tables ("none", "0", "1").
    pub fn label(self) -> &'static str {
        match self {
            PruneLevel::NoPruning => "none",
            PruneLevel::Level0 => "0",
            PruneLevel::Level1 => "1",
        }
    }

    /// The concepts removed from SCADS for the given target classes, as a
    /// sorted, deduplicated list.
    ///
    /// The sorted-`Vec` representation (rather than a hash set) makes every
    /// downstream traversal order-deterministic by construction instead of
    /// depending on hash iteration, and membership stays `O(log n)` via
    /// binary search.
    ///
    /// Targets not present in the taxonomy (e.g. manually added concepts such
    /// as `oatghurt`) contribute only themselves at level 0 and nothing more
    /// at level 1, matching the paper's treatment of graph-extension nodes.
    pub fn pruned_set(self, taxonomy: &Taxonomy, targets: &[ConceptId]) -> Vec<ConceptId> {
        let mut pruned = BTreeSet::new();
        if self == PruneLevel::NoPruning {
            return Vec::new();
        }
        for &c in targets {
            if !taxonomy.contains(c) {
                pruned.insert(c);
                continue;
            }
            pruned.extend(taxonomy.descendants(c));
            if self == PruneLevel::Level1 {
                if let Some(parent) = taxonomy.parent(c) {
                    pruned.extend(taxonomy.descendants(parent));
                }
            }
        }
        pruned.into_iter().collect()
    }
}

impl std::fmt::Display for PruneLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PruneLevel::NoPruning => write!(f, "no-pruning"),
            PruneLevel::Level0 => write!(f, "prune-level 0"),
            PruneLevel::Level1 => write!(f, "prune-level 1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 ─ 1 ─ {2, 3}; 0 ─ 4 ─ {5}
    fn taxonomy() -> Taxonomy {
        let mut t = Taxonomy::with_root(ConceptId(0));
        t.add_child(ConceptId(0), ConceptId(1));
        t.add_child(ConceptId(1), ConceptId(2));
        t.add_child(ConceptId(1), ConceptId(3));
        t.add_child(ConceptId(0), ConceptId(4));
        t.add_child(ConceptId(4), ConceptId(5));
        t
    }

    #[test]
    fn no_pruning_removes_nothing() {
        let t = taxonomy();
        assert!(PruneLevel::NoPruning
            .pruned_set(&t, &[ConceptId(2)])
            .is_empty());
    }

    #[test]
    fn level0_removes_target_and_descendants() {
        let t = taxonomy();
        let p = PruneLevel::Level0.pruned_set(&t, &[ConceptId(1)]);
        assert_eq!(p, vec![ConceptId(1), ConceptId(2), ConceptId(3)]);
    }

    #[test]
    fn level1_adds_parent_subtree() {
        let t = taxonomy();
        let p = PruneLevel::Level1.pruned_set(&t, &[ConceptId(2)]);
        // Parent of 2 is 1; subtree of 1 = {1,2,3}. Node 2's own descendants ⊂ that.
        assert_eq!(p, vec![ConceptId(1), ConceptId(2), ConceptId(3)]);
        // Sibling branch under 4 untouched.
        assert!(!p.contains(&ConceptId(4)));
    }

    #[test]
    fn level1_is_superset_of_level0() {
        let t = taxonomy();
        for target in [ConceptId(1), ConceptId(2), ConceptId(5)] {
            let p0 = PruneLevel::Level0.pruned_set(&t, &[target]);
            let p1 = PruneLevel::Level1.pruned_set(&t, &[target]);
            assert!(
                p0.iter().all(|c| p1.contains(c)),
                "level 1 must remove at least level 0's set"
            );
        }
    }

    #[test]
    fn pruned_set_is_sorted_and_deduplicated() {
        let t = taxonomy();
        // Overlapping targets: 1's subtree contains 2's.
        let p = PruneLevel::Level0.pruned_set(&t, &[ConceptId(2), ConceptId(1)]);
        assert!(
            p.windows(2).all(|w| w[0] < w[1]),
            "strictly ascending: {p:?}"
        );
        assert_eq!(p, vec![ConceptId(1), ConceptId(2), ConceptId(3)]);
    }

    #[test]
    fn out_of_taxonomy_target_prunes_only_itself() {
        let t = taxonomy();
        let oov = ConceptId(99);
        let p0 = PruneLevel::Level0.pruned_set(&t, &[oov]);
        assert_eq!(p0.len(), 1);
        let p1 = PruneLevel::Level1.pruned_set(&t, &[oov]);
        assert_eq!(p1.len(), 1);
    }

    #[test]
    fn multiple_targets_union_their_sets() {
        let t = taxonomy();
        let p = PruneLevel::Level0.pruned_set(&t, &[ConceptId(2), ConceptId(5)]);
        assert!(p.contains(&ConceptId(2)) && p.contains(&ConceptId(5)));
        assert!(!p.contains(&ConceptId(1)));
    }
}
