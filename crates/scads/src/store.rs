//! The SCADS store: datasets joined to the graph, and related-data selection.

use taglets_graph::{
    approximate_embedding, ConceptEmbeddings, ConceptGraph, ConceptId, Relation, Taxonomy,
};

use crate::{PruneLevel, ScadsError};

/// Identifier of an installed auxiliary dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetId(pub usize);

/// The selected task-related auxiliary data `R` (paper Sec. 3.1).
///
/// Selected concepts become the `N·C`-way *auxiliary classification task*
/// used by the Transfer and Multi-task modules; `aux_label` indexes into
/// [`AuxiliarySelection::concepts`].
#[derive(Debug, Clone)]
pub struct AuxiliarySelection<X> {
    /// Selected examples with their auxiliary class labels.
    pub examples: Vec<(X, usize)>,
    /// Auxiliary class → source concept (deduplicated across targets).
    pub concepts: Vec<ConceptId>,
    /// For each target class, the concepts its query retrieved (with cosine
    /// similarity), in descending similarity order.
    pub per_target: Vec<Vec<(ConceptId, f32)>>,
}

impl<X> AuxiliarySelection<X> {
    /// Number of auxiliary classes (`≤ N · C`).
    pub fn num_aux_classes(&self) -> usize {
        self.concepts.len()
    }

    /// `true` when the selection contains no examples (fully pruned SCADS or
    /// empty store).
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Number of selected examples (`|R| ≤ C · N · K`).
    pub fn len(&self) -> usize {
        self.examples.len()
    }
}

/// A structured collection of annotated datasets over a knowledge graph.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Scads<X> {
    graph: ConceptGraph,
    taxonomy: Taxonomy,
    embeddings: ConceptEmbeddings,
    store: Vec<Vec<(DatasetId, X)>>,
    datasets: Vec<Option<String>>,
}

impl<X: Clone> Scads<X> {
    /// Builds a SCADS over a graph, its semantic tree, and its (retrofitted)
    /// SCADS embeddings.
    ///
    /// # Panics
    ///
    /// Panics if the embedding row count differs from the graph size.
    pub fn new(graph: ConceptGraph, taxonomy: Taxonomy, embeddings: ConceptEmbeddings) -> Self {
        assert_eq!(
            graph.len(),
            embeddings.len(),
            "one embedding per graph concept required"
        );
        let store = (0..graph.len()).map(|_| Vec::new()).collect();
        Scads {
            graph,
            taxonomy,
            embeddings,
            store,
            datasets: Vec::new(),
        }
    }

    /// The underlying knowledge graph.
    pub fn graph(&self) -> &ConceptGraph {
        &self.graph
    }

    /// The semantic tree used for pruning.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// The SCADS embeddings.
    pub fn embeddings(&self) -> &ConceptEmbeddings {
        &self.embeddings
    }

    /// Names of currently installed datasets.
    pub fn installed_datasets(&self) -> Vec<&str> {
        self.datasets.iter().flatten().map(String::as_str).collect()
    }

    /// Total number of stored auxiliary examples.
    pub fn num_examples(&self) -> usize {
        self.store.iter().map(Vec::len).sum()
    }

    /// Installs a labeled dataset by joining class names to graph concepts.
    ///
    /// Every example is attached to the node whose name equals its class
    /// name — the paper's automatic joining of auxiliary categories to
    /// ConceptNet concepts (Fig. 3A).
    ///
    /// # Errors
    ///
    /// * [`ScadsError::EmptyDataset`] if `items` is empty.
    /// * [`ScadsError::Graph`] if a class name has no matching concept
    ///   (resolve by [`Scads::add_concept`] first — see Example A.1).
    pub fn install<'a>(
        &mut self,
        name: &str,
        items: impl IntoIterator<Item = (&'a str, X)>,
    ) -> Result<DatasetId, ScadsError> {
        let mut resolved = Vec::new();
        for (class, x) in items {
            let id = self.graph.require(class)?;
            resolved.push((id, x));
        }
        self.install_by_id(name, resolved)
    }

    /// Installs a dataset whose classes are already resolved to concept ids.
    /// Every id is checked before anything is installed, so a refused
    /// dataset leaves SCADS unchanged.
    ///
    /// # Errors
    ///
    /// * [`ScadsError::EmptyDataset`] if `items` is empty.
    /// * [`ScadsError::UnknownConcept`] naming the first concept id that is
    ///   out of range.
    pub fn install_by_id(
        &mut self,
        name: &str,
        items: Vec<(ConceptId, X)>,
    ) -> Result<DatasetId, ScadsError> {
        if items.is_empty() {
            return Err(ScadsError::EmptyDataset {
                name: name.to_string(),
            });
        }
        if let Some((concept, _)) = items.iter().find(|(c, _)| c.0 >= self.store.len()) {
            return Err(ScadsError::UnknownConcept { id: concept.0 });
        }
        let id = DatasetId(self.datasets.len());
        self.datasets.push(Some(name.to_string()));
        for (concept, x) in items {
            self.store[concept.0].push((id, x));
        }
        Ok(id)
    }

    /// Removes an installed dataset and all its examples (SCADS
    /// extensibility: datasets can be installed *and removed*).
    ///
    /// # Errors
    ///
    /// [`ScadsError::UnknownDataset`] if `id` was never installed or was
    /// already removed.
    pub fn remove_dataset(&mut self, id: DatasetId) -> Result<(), ScadsError> {
        match self.datasets.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
                for bucket in &mut self.store {
                    bucket.retain(|(d, _)| *d != id);
                }
                Ok(())
            }
            _ => Err(ScadsError::UnknownDataset { id: id.0 }),
        }
    }

    /// Adds a novel concept to SCADS (paper Appendix A.2 / Example A.1),
    /// linking it to existing concepts and approximating its embedding as a
    /// weighted average of theirs.
    ///
    /// Returns the new concept's id. The new node is *not* inserted into the
    /// taxonomy (it has no WordNet counterpart), which the pruning rules
    /// handle explicitly.
    ///
    /// # Errors
    ///
    /// * [`ScadsError::Graph`] if a linked concept name is unknown or the
    ///   name already exists.
    pub fn add_concept(
        &mut self,
        name: &str,
        links: &[(&str, Relation)],
    ) -> Result<ConceptId, ScadsError> {
        if self.graph.find(name).is_some() {
            return Err(ScadsError::Graph(
                taglets_graph::GraphError::DuplicateName {
                    name: name.to_string(),
                },
            ));
        }
        let mut link_ids = Vec::with_capacity(links.len());
        for (link_name, relation) in links {
            link_ids.push((self.graph.require(link_name)?, *relation));
        }
        let terms: Vec<(ConceptId, f32)> = link_ids
            .iter()
            .map(|&(id, rel)| (id, rel.default_weight()))
            .collect();
        let vector = approximate_embedding(&self.embeddings, &terms)?;

        let id = self.graph.add_concept(name);
        for (link, relation) in link_ids {
            self.graph.add_edge(id, link, relation);
        }
        let pushed = self.embeddings.push(&vector)?;
        debug_assert_eq!(pushed, id, "embedding rows track graph ids");
        self.store.push(Vec::new());
        Ok(id)
    }

    /// Examples stored at a concept node.
    pub fn examples(&self, concept: ConceptId) -> impl Iterator<Item = &X> {
        self.store[concept.0].iter().map(|(_, x)| x)
    }

    /// Number of examples stored at a concept node.
    pub fn num_examples_at(&self, concept: ConceptId) -> usize {
        self.store[concept.0].len()
    }

    /// The `top_n` concepts most related to `target` that carry auxiliary
    /// data, after applying `prune` with respect to `all_targets`.
    ///
    /// This is the graph-based similarity query of Example 3.1: cosine
    /// similarity in SCADS-embedding space over `Q_{Y_S}` (concepts with
    /// data), never touching images — which is what keeps selection cheap
    /// and robust to visual domain shift. It is the one-target case of the
    /// batched query [`Scads::select_related`] makes, with the same bits.
    pub fn related_concepts(
        &self,
        target: ConceptId,
        top_n: usize,
        prune: PruneLevel,
        all_targets: &[ConceptId],
    ) -> Vec<(ConceptId, f32)> {
        self.related_rows(&[target], top_n, prune, all_targets)
            .pop()
            .unwrap_or_default()
    }

    /// [`Scads::related_concepts`] for every target of `targets` at once:
    /// one pruned set and one similarity GEMM for the whole list.
    fn related_rows(
        &self,
        targets: &[ConceptId],
        top_n: usize,
        prune: PruneLevel,
        all_targets: &[ConceptId],
    ) -> Vec<Vec<(ConceptId, f32)>> {
        let pruned = prune.pruned_set(&self.taxonomy, all_targets);
        let ids: Vec<usize> = targets.iter().map(|t| t.0).collect();
        // `[targets.len(), dim]`, also when `targets` is empty.
        let queries = self.embeddings.matrix().gather_rows(&ids);
        self.embeddings.most_similar_rows(&queries, top_n, |id| {
            pruned.binary_search(&id).is_ok() || self.store[id.0].is_empty()
        })
    }

    /// Selects a *random* auxiliary set of the same shape as
    /// [`Scads::select_related`] — `num_concepts` uniformly chosen concepts
    /// with data (pruning still respected), `k_per_concept` examples each.
    ///
    /// This is the ablation control for graph-based selection: it matches
    /// the data volume while ignoring relatedness.
    pub fn select_random<R: rand::Rng + ?Sized>(
        &self,
        targets: &[ConceptId],
        num_concepts: usize,
        k_per_concept: usize,
        prune: PruneLevel,
        rng: &mut R,
    ) -> AuxiliarySelection<X> {
        let pruned = prune.pruned_set(&self.taxonomy, targets);
        let mut candidates: Vec<ConceptId> = self
            .graph
            .concepts()
            .filter(|c| pruned.binary_search(c).is_err() && !self.store[c.0].is_empty())
            .collect();
        use rand::seq::SliceRandom;
        candidates.shuffle(rng);
        candidates.truncate(num_concepts);
        let mut examples = Vec::new();
        for (aux_label, &concept) in candidates.iter().enumerate() {
            for (_, x) in self.store[concept.0].iter().take(k_per_concept) {
                examples.push((x.clone(), aux_label));
            }
        }
        AuxiliarySelection {
            examples,
            concepts: candidates,
            per_target: Vec::new(),
        }
    }

    /// Selects the task-related auxiliary set `R` for the given target
    /// classes: for each target, the `n_concepts` most related concepts, and
    /// from each up to `k_per_concept` examples (`|R| ≤ C · N · K`).
    ///
    /// Concepts retrieved by multiple targets are deduplicated into a single
    /// auxiliary class, in first-retrieved order.
    ///
    /// All targets share one pruned set and one batched similarity query
    /// ([`ConceptEmbeddings::most_similar_rows`]), so `per_target[i]` has
    /// the bits of `related_concepts(targets[i], n_concepts, prune, targets)`.
    pub fn select_related(
        &self,
        targets: &[ConceptId],
        n_concepts: usize,
        k_per_concept: usize,
        prune: PruneLevel,
    ) -> AuxiliarySelection<X> {
        let per_target = self.related_rows(targets, n_concepts, prune, targets);
        let mut seen = vec![false; self.graph.len()];
        let mut concepts: Vec<ConceptId> = Vec::new();
        for &(c, _) in per_target.iter().flatten() {
            if !std::mem::replace(&mut seen[c.0], true) {
                concepts.push(c);
            }
        }
        let mut examples = Vec::new();
        for (aux_label, &concept) in concepts.iter().enumerate() {
            for (_, x) in self.store[concept.0].iter().take(k_per_concept) {
                examples.push((x.clone(), aux_label));
            }
        }
        AuxiliarySelection {
            examples,
            concepts,
            per_target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use taglets_graph::{generate, retrofit, RetrofitConfig, SyntheticGraphConfig};

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

    fn populate(scads: &mut Scads<u32>, per_concept: usize) -> DatasetId {
        let items: Vec<(ConceptId, u32)> = scads
            .graph()
            .concepts()
            .flat_map(|c| (0..per_concept).map(move |k| (c, (c.0 * 100 + k) as u32)))
            .collect();
        scads.install_by_id("aux", items).unwrap()
    }

    #[test]
    fn install_and_remove_round_trip() {
        let mut scads = build(50);
        let id = populate(&mut scads, 3);
        assert_eq!(scads.num_examples(), 150);
        assert_eq!(scads.installed_datasets(), vec!["aux"]);
        scads.remove_dataset(id).unwrap();
        assert_eq!(scads.num_examples(), 0);
        assert!(
            scads.remove_dataset(id).is_err(),
            "double removal is an error"
        );
    }

    #[test]
    fn install_rejects_empty_and_unknown_classes() {
        let mut scads = build(30);
        assert!(matches!(
            scads.install_by_id("empty", vec![]),
            Err(ScadsError::EmptyDataset { .. })
        ));
        assert!(scads.install("bad", vec![("not_a_concept", 1u32)]).is_err());
    }

    #[test]
    fn out_of_range_ids_are_refused_before_any_install() {
        let mut scads = build(30);
        let (examples, datasets) = (scads.num_examples(), scads.installed_datasets().len());
        assert_eq!(
            scads.install_by_id("half", vec![(ConceptId(3), 1u32), (ConceptId(30), 2)]),
            Err(ScadsError::UnknownConcept { id: 30 })
        );
        assert_eq!(scads.num_examples(), examples);
        assert_eq!(scads.installed_datasets().len(), datasets);
    }

    #[test]
    fn selection_size_is_bounded_by_cnk() {
        let mut scads = build(60);
        populate(&mut scads, 5);
        let targets = [ConceptId(10), ConceptId(20)];
        let sel = scads.select_related(&targets, 3, 4, PruneLevel::NoPruning);
        assert!(sel.len() <= 2 * 3 * 4);
        assert!(sel.num_aux_classes() <= 2 * 3);
        assert!(!sel.is_empty());
        // Each target has at most N picks.
        for picks in &sel.per_target {
            assert!(picks.len() <= 3);
        }
    }

    #[test]
    fn selection_respects_k_budget_per_concept() {
        let mut scads = build(40);
        populate(&mut scads, 10);
        let sel = scads.select_related(&[ConceptId(5)], 2, 3, PruneLevel::NoPruning);
        // Count examples per aux class.
        for class in 0..sel.num_aux_classes() {
            let count = sel.examples.iter().filter(|(_, l)| *l == class).count();
            assert!(count <= 3);
        }
    }

    #[test]
    fn pruned_concepts_are_never_selected() {
        let mut scads = build(80);
        populate(&mut scads, 2);
        let target = ConceptId(12);
        for prune in [PruneLevel::Level0, PruneLevel::Level1] {
            let pruned = prune.pruned_set(scads.taxonomy(), &[target]);
            let related = scads.related_concepts(target, 10, prune, &[target]);
            for (c, _) in related {
                assert!(
                    !pruned.contains(&c),
                    "{c} was pruned but selected at {prune}"
                );
            }
        }
    }

    #[test]
    fn no_pruning_selects_the_target_itself_first() {
        let mut scads = build(60);
        populate(&mut scads, 2);
        let target = ConceptId(25);
        let related = scads.related_concepts(target, 5, PruneLevel::NoPruning, &[target]);
        assert_eq!(related[0].0, target, "a concept is most similar to itself");
        assert!((related[0].1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pruning_reduces_retrieved_similarity() {
        let mut scads = build(100);
        populate(&mut scads, 2);
        let target = ConceptId(30);
        let mean_sim = |prune| {
            let r = scads.related_concepts(target, 5, prune, &[target]);
            r.iter().map(|(_, s)| s).sum::<f32>() / r.len().max(1) as f32
        };
        let none = mean_sim(PruneLevel::NoPruning);
        let l1 = mean_sim(PruneLevel::Level1);
        assert!(
            none >= l1,
            "pruning must push selection to less similar concepts: {none} vs {l1}"
        );
    }

    #[test]
    fn concepts_without_data_are_skipped() {
        let mut scads = build(40);
        // Only concept 7 has data.
        scads
            .install_by_id("one", vec![(ConceptId(7), 1u32)])
            .unwrap();
        let related = scads.related_concepts(ConceptId(3), 10, PruneLevel::NoPruning, &[]);
        assert_eq!(related.len(), 1);
        assert_eq!(related[0].0, ConceptId(7));
    }

    #[test]
    fn add_concept_links_and_embeds_like_its_neighbors() {
        let mut scads = build(50);
        populate(&mut scads, 2);
        let yoghurt = scads.graph().name(ConceptId(8)).to_string();
        let carton = scads.graph().name(ConceptId(9)).to_string();
        let id = scads
            .add_concept(
                "oatghurt",
                &[
                    (yoghurt.as_str(), Relation::RelatedTo),
                    (carton.as_str(), Relation::RelatedTo),
                ],
            )
            .unwrap();
        assert_eq!(scads.graph().find("oatghurt"), Some(id));
        assert_eq!(scads.graph().degree(id), 2);
        // Its embedding is the weighted average of the linked concepts, so it
        // must be markedly more similar to them than to the average concept.
        let sim = |a: ConceptId, b: ConceptId| {
            taglets_tensor::cosine_similarity(scads.embeddings().get(a), scads.embeddings().get(b))
        };
        let to_links = (sim(id, ConceptId(8)) + sim(id, ConceptId(9))) / 2.0;
        let overall: f32 = scads
            .graph()
            .concepts()
            .filter(|&c| c != id)
            .map(|c| sim(id, c))
            .sum::<f32>()
            / (scads.graph().len() - 1) as f32;
        assert!(
            to_links > overall,
            "OOV embedding should resemble its links: {to_links} vs {overall}"
        );
        // Duplicate insertion fails.
        assert!(scads.add_concept("oatghurt", &[]).is_err());
    }

    #[test]
    fn random_selection_matches_budget_and_respects_pruning() {
        use rand::SeedableRng;
        let mut scads = build(60);
        populate(&mut scads, 5);
        let targets = [ConceptId(10), ConceptId(20)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let sel = scads.select_random(&targets, 6, 3, PruneLevel::Level1, &mut rng);
        assert!(sel.num_aux_classes() <= 6);
        assert!(sel.len() <= 6 * 3);
        let pruned = PruneLevel::Level1.pruned_set(scads.taxonomy(), &targets);
        assert!(sel.concepts.iter().all(|c| !pruned.contains(c)));
        // Different rng → (almost surely) different concepts.
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(99);
        let sel2 = scads.select_random(&targets, 6, 3, PruneLevel::Level1, &mut rng2);
        assert_ne!(sel.concepts, sel2.concepts);
    }

    #[test]
    fn deduplicates_concepts_shared_between_targets() {
        let mut scads = build(60);
        populate(&mut scads, 2);
        // Two sibling targets likely share related concepts; labels must stay
        // consistent: every label < num_aux_classes and concepts unique.
        let t = scads.taxonomy().clone();
        let kids = t.children(t.root().unwrap()).to_vec();
        let targets = [kids[0], kids[1]];
        let sel = scads.select_related(&targets, 6, 2, PruneLevel::NoPruning);
        let unique: HashSet<ConceptId> = sel.concepts.iter().copied().collect();
        assert_eq!(
            unique.len(),
            sel.concepts.len(),
            "aux classes must be unique"
        );
        assert!(sel.examples.iter().all(|(_, l)| *l < sel.num_aux_classes()));
    }
}
