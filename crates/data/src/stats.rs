//! Per-task dataset statistics.
//!
//! A practitioner adopting the system wants to sanity-check a task before
//! training: class balance, how far apart the classes sit relative to
//! within-class spread, and how semantically clustered the task is in the
//! knowledge graph. [`TaskSummary`] computes all of that from a task and
//! its universe.

use taglets_graph::Taxonomy;
use taglets_tensor::Tensor;

use crate::Task;

/// Aggregate statistics of a task's pool and graph placement.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSummary {
    /// Task name.
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Total pool images.
    pub pool_size: usize,
    /// Smallest per-class count.
    pub min_per_class: usize,
    /// Largest per-class count.
    pub max_per_class: usize,
    /// Mean pairwise distance between class means (estimated from a split).
    pub mean_class_distance: f32,
    /// Smallest pairwise distance between class means.
    pub min_class_distance: f32,
    /// Mean distance of an image to its class mean.
    pub within_class_spread: f32,
    /// Mean taxonomy tree distance between aligned class pairs (`None` when
    /// fewer than two classes align with the graph).
    pub mean_tree_distance: Option<f32>,
}

impl TaskSummary {
    /// Computes the summary (class geometry is estimated from the pool via
    /// a max-shot split at split seed 0).
    pub fn compute(task: &Task, taxonomy: &Taxonomy) -> Self {
        let per_class: Vec<usize> = (0..task.num_classes())
            .map(|c| task.per_class_count(c))
            .collect();

        let split = task.split(0, task.max_shots);
        let c = task.num_classes();
        let d = split.labeled_x.cols();
        let mut means = Tensor::zeros(&[c, d]);
        let mut counts = vec![0f32; c];
        for (i, &y) in split.labeled_y.iter().enumerate() {
            for (k, &v) in split.labeled_x.row(i).iter().enumerate() {
                means.set(y, k, means.at(y, k) + v);
            }
            counts[y] += 1.0;
        }
        for (y, count) in counts.iter().enumerate() {
            let n = count.max(1.0);
            for k in 0..d {
                means.set(y, k, means.at(y, k) / n);
            }
        }
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let mut total = 0.0;
        let mut min = f32::INFINITY;
        let mut pairs = 0;
        for i in 0..c {
            for j in (i + 1)..c {
                let v = dist(means.row(i), means.row(j));
                total += v;
                min = min.min(v);
                pairs += 1;
            }
        }
        let mut spread = 0.0;
        for (i, &y) in split.labeled_y.iter().enumerate() {
            spread += dist(split.labeled_x.row(i), means.row(y));
        }
        spread /= split.labeled_y.len().max(1) as f32;

        let aligned: Vec<_> = task.aligned_concepts();
        let mean_tree_distance = if aligned.len() >= 2 {
            let mut total = 0.0;
            let mut n = 0;
            for i in 0..aligned.len() {
                for j in (i + 1)..aligned.len() {
                    if let Some(td) = taxonomy.tree_distance(aligned[i].1, aligned[j].1) {
                        total += td as f32;
                        n += 1;
                    }
                }
            }
            (n > 0).then(|| total / n as f32)
        } else {
            None
        };

        TaskSummary {
            name: task.name.clone(),
            num_classes: c,
            pool_size: task.pool_size(),
            min_per_class: per_class.iter().copied().min().unwrap_or(0),
            max_per_class: per_class.iter().copied().max().unwrap_or(0),
            mean_class_distance: if pairs > 0 { total / pairs as f32 } else { 0.0 },
            min_class_distance: if pairs > 0 { min } else { 0.0 },
            within_class_spread: spread,
            mean_tree_distance,
        }
    }

    /// A one-line report string.
    pub fn to_line(&self) -> String {
        format!(
            "{:<22} C={:<3} pool={:<5} per-class {}–{}  class-dist {:.1} (min {:.1})  spread {:.1}  tree-dist {}",
            self.name,
            self.num_classes,
            self.pool_size,
            self.min_per_class,
            self.max_per_class,
            self.mean_class_distance,
            self.min_class_distance,
            self.within_class_spread,
            self.mean_tree_distance
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "n/a".into()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{standard_tasks, ConceptUniverse, UniverseConfig};
    use taglets_graph::SyntheticGraphConfig;

    #[test]
    fn summaries_reflect_task_design() {
        let mut universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: 400,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("test universe builds");
        let tasks = standard_tasks(&mut universe).expect("standard tasks build");
        let summaries: Vec<TaskSummary> = tasks
            .iter()
            .map(|t| TaskSummary::compute(t, universe.taxonomy()))
            .collect();
        let by_name = |n: &str| summaries.iter().find(|s| s.name == n).unwrap();

        let grocery = by_name("grocery_store");
        let office = by_name("office_home_product");
        // Grocery's classes are siblings of one subtree → semantically much
        // closer than OfficeHome's spread leaves.
        assert!(
            grocery.mean_tree_distance.unwrap() < office.mean_tree_distance.unwrap(),
            "grocery {:?} vs office {:?}",
            grocery.mean_tree_distance,
            office.mean_tree_distance
        );
        // Every task has positive geometry.
        for s in &summaries {
            assert!(s.mean_class_distance > 0.0, "{}", s.name);
            assert!(s.within_class_spread > 0.0, "{}", s.name);
            assert!(s.min_class_distance <= s.mean_class_distance);
            assert!(!s.to_line().is_empty());
        }
    }
}
