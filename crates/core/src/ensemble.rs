//! Unsupervised ensembling of taglets into soft pseudo labels
//! (Sec. 3.3, Eq. 6).
//!
//! For an example `x`, the taglets' probability vectors are stacked into a
//! vote matrix `V ∈ [0,1]^{|T|×C}` and averaged into the soft pseudo label
//! `p_x = (1/|T|) Σ_t V_t`.

use taglets_tensor::Tensor;

use crate::Taglet;

/// An unweighted average ensemble over a set of taglets.
pub struct Ensemble<'a> {
    taglets: &'a [Box<dyn Taglet>],
}

impl std::fmt::Debug for Ensemble<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.taglets.iter().map(|t| t.name()).collect();
        write!(f, "Ensemble{names:?}")
    }
}

impl<'a> Ensemble<'a> {
    /// Builds an ensemble over the given taglets.
    ///
    /// # Panics
    ///
    /// Panics if `taglets` is empty.
    pub fn new(taglets: &'a [Box<dyn Taglet>]) -> Self {
        assert!(!taglets.is_empty(), "an ensemble needs at least one taglet");
        Ensemble { taglets }
    }

    /// Number of ensembled taglets `|T|`.
    pub fn len(&self) -> usize {
        self.taglets.len()
    }

    /// `false` — constructing an empty ensemble panics.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Soft pseudo labels for a batch: the row-wise mean of all taglets'
    /// probability outputs (Eq. 6). Rows remain on the simplex.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        let mut acc = self.taglets[0].predict_proba(x);
        for t in &self.taglets[1..] {
            acc.add_assign(&t.predict_proba(x));
        }
        acc.scale_assign(1.0 / self.taglets.len() as f32);
        acc
    }

    /// Weighted soft pseudo labels: `p_x = Σ_t w_t V_t / Σ_t w_t`.
    ///
    /// This is an *extension* beyond the paper (which uses the unweighted
    /// average of Eq. 6); it lets callers down-weight modules known to be
    /// weak on a task, e.g. by validation accuracy on the labeled set.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`, any weight is negative, or
    /// all weights are zero.
    pub fn predict_proba_weighted(&self, x: &Tensor, weights: &[f32]) -> Tensor {
        assert_eq!(weights.len(), self.taglets.len(), "one weight per taglet");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        // A zero weight means "taglet disabled": its forward never runs.
        let mut live = self.taglets.iter().zip(weights).filter(|&(_, &w)| w > 0.0);
        // `total > 0` with no negative weight guarantees a live taglet; the
        // fallback only keeps this method free of a panic path.
        let Some((first, &w0)) = live.next() else {
            return Tensor::zeros(&[x.rows(), 0]);
        };
        let mut acc = first.predict_proba(x).scale(w0 / total);
        for (t, &w) in live {
            acc.add_scaled(&t.predict_proba(x), w / total);
        }
        acc
    }

    /// Accuracy-derived weights: each taglet's accuracy on a (small)
    /// labeled validation set, floored at a tiny epsilon so no taglet is
    /// silenced entirely.
    pub fn accuracy_weights(&self, x: &Tensor, labels: &[usize]) -> Vec<f32> {
        self.taglets
            .iter()
            .map(|t| t.accuracy(x, labels).max(1e-3))
            .collect()
    }

    /// Hard predictions (argmax of the soft pseudo labels).
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }

    /// Ensemble accuracy against ground truth.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f32 {
        taglets_nn::accuracy(&self.predict(x), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifierTaglet;
    use rand::{rngs::StdRng, SeedableRng};
    use taglets_nn::Classifier;

    fn taglet(seed: u64) -> Box<dyn Taglet> {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(ClassifierTaglet::new(
            format!("t{seed}"),
            Classifier::from_dims(&[5, 6], 3, 0.0, &mut rng),
        ))
    }

    #[test]
    fn pseudo_labels_stay_on_the_simplex() {
        let taglets = vec![taglet(0), taglet(1), taglet(2)];
        let e = Ensemble::new(&taglets);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[7, 5], 1.0, &mut rng);
        let p = e.predict_proba(&x);
        assert_eq!(p.shape(), &[7, 3]);
        for row in p.rows_iter() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn ensemble_of_identical_taglets_equals_the_taglet() {
        let taglets = vec![taglet(4), taglet(4), taglet(4)];
        let e = Ensemble::new(&taglets);
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let single = taglets[0].predict_proba(&x);
        let combined = e.predict_proba(&x);
        for (a, b) in single.data().iter().zip(combined.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn ensemble_is_order_invariant() {
        let a = vec![taglet(1), taglet(2), taglet(3)];
        let b = vec![taglet(3), taglet(1), taglet(2)];
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let pa = Ensemble::new(&a).predict_proba(&x);
        let pb = Ensemble::new(&b).predict_proba(&x);
        for (u, v) in pa.data().iter().zip(pb.data()) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_with_one_hot_weight_selects_that_taglet() {
        let taglets = vec![taglet(1), taglet(2), taglet(3)];
        let e = Ensemble::new(&taglets);
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let selected = e.predict_proba_weighted(&x, &[0.0, 1.0, 0.0]);
        let direct = taglets[1].predict_proba(&x);
        for (a, b) in selected.data().iter().zip(direct.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_with_uniform_weights_matches_unweighted() {
        let taglets = vec![taglet(4), taglet(5)];
        let e = Ensemble::new(&taglets);
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let weighted = e.predict_proba_weighted(&x, &[2.0, 2.0]);
        let plain = e.predict_proba(&x);
        for (a, b) in weighted.data().iter().zip(plain.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn accuracy_weights_are_positive_and_per_taglet() {
        let taglets = vec![taglet(6), taglet(7), taglet(8)];
        let e = Ensemble::new(&taglets);
        let mut rng = StdRng::seed_from_u64(14);
        let x = Tensor::randn(&[10, 5], 1.0, &mut rng);
        let y: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let w = e.accuracy_weights(&x, &y);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn empty_ensemble_panics() {
        let taglets: Vec<Box<dyn Taglet>> = Vec::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Ensemble::new(&taglets).len()
        }));
        assert!(r.is_err());
    }
}
