//! Label-preserving stochastic augmentations.
//!
//! The paper's FixMatch module relies on a stochastic function `α` producing
//! two augmented views of an unlabeled image (weak for pseudo-labeling,
//! strong for the consistency target), plus standard train-time augmentation
//! (random resized crop + horizontal flip, Appendix A.5). In flat image
//! space these become: small Gaussian jitter with mild random gain (weak),
//! and heavier jitter with random coordinate masking (strong — the analogue
//! of RandAugment's aggressive distortions).

use rand::Rng;

use taglets_tensor::{math, Tensor};

/// A flat image vector (alias kept local to avoid a dependency cycle with
/// `taglets-data`, which re-exports this type).
pub type Image = Vec<f32>;

/// Stochastic augmentation policy over flat images.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Augmenter {
    /// σ of the weak additive jitter.
    pub weak_noise: f32,
    /// σ of the strong additive jitter.
    pub strong_noise: f32,
    /// Probability of zeroing each coordinate under strong augmentation.
    pub mask_prob: f32,
    /// Half-width of the random gain: gain ∈ `[1-g, 1+g]`.
    pub gain: f32,
}

impl Default for Augmenter {
    fn default() -> Self {
        Augmenter {
            weak_noise: 0.12,
            strong_noise: 0.45,
            mask_prob: 0.15,
            gain: 0.06,
        }
    }
}

impl Augmenter {
    /// Weak augmentation: jitter + mild gain (crop/flip analogue).
    pub fn weak<R: Rng + ?Sized>(&self, image: &[f32], rng: &mut R) -> Image {
        let gain = 1.0 + rng.gen_range(-self.gain..=self.gain);
        let mut noise = Noise::with_capacity(image.len());
        for _ in image {
            noise.draw(rng, self.weak_noise);
        }
        let mut noise = noise.normals(self.weak_noise);
        image
            .iter()
            .map(|&v| v * gain + noise.next().unwrap_or(0.0))
            .collect()
    }

    /// Strong augmentation: heavy jitter + random coordinate masking
    /// (RandAugment analogue).
    pub fn strong<R: Rng + ?Sized>(&self, image: &[f32], rng: &mut R) -> Image {
        let gain = 1.0 + rng.gen_range(-2.0 * self.gain..=2.0 * self.gain);
        let mut noise = Noise::with_capacity(image.len());
        let masked: Vec<bool> = image
            .iter()
            .map(|_| {
                let masked = rng.gen::<f32>() < self.mask_prob;
                if !masked {
                    noise.draw(rng, self.strong_noise);
                }
                masked
            })
            .collect();
        let mut noise = noise.normals(self.strong_noise);
        image
            .iter()
            .zip(&masked)
            .map(|(&v, &masked)| {
                if masked {
                    0.0
                } else {
                    v * gain + noise.next().unwrap_or(0.0)
                }
            })
            .collect()
    }

    /// Applies [`Augmenter::weak`] to every row of a batch.
    pub fn weak_batch<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> Tensor {
        self.map_batch(x, |row, rng| self.weak(row, rng), rng)
    }

    /// Applies [`Augmenter::strong`] to every row of a batch.
    pub fn strong_batch<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> Tensor {
        self.map_batch(x, |row, rng| self.strong(row, rng), rng)
    }

    fn map_batch<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        f: impl Fn(&[f32], &mut R) -> Image,
        rng: &mut R,
    ) -> Tensor {
        let rows: Vec<Vec<f32>> = x.rows_iter().map(|row| f(row, rng)).collect();
        Tensor::stack_rows(&rows)
    }
}

/// Gaussian jitter by Box–Muller, one `(u1, u2)` draw per value, in the
/// order the pixels ask for them. The transform runs as a second pass over
/// all draws, a loop that vectorizes.
struct Noise {
    u1: Vec<f32>,
    u2: Vec<f32>,
}

impl Noise {
    fn with_capacity(n: usize) -> Self {
        Noise {
            u1: Vec::with_capacity(n),
            u2: Vec::with_capacity(n),
        }
    }

    /// Draws one pair, unless `std` is zero.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, std: f32) {
        // Exact-zero std means "noise disabled" (a configuration sentinel,
        // not a computed value), which draws nothing. lint: allow(TL004)
        if std != 0.0 {
            self.u1.push(rng.gen_range(f32::EPSILON..1.0));
            self.u2.push(rng.gen_range(0.0..1.0));
        }
    }

    /// `sqrt(−2 ln u1) · cos(2π·u2) · std` of every pair, in draw order.
    fn normals(mut self, std: f32) -> std::vec::IntoIter<f32> {
        for (a, &b) in self.u1.iter_mut().zip(&self.u2) {
            *a = (-2.0 * math::ln(*a)).sqrt() * math::cos_pi(2.0 * b) * std;
        }
        self.u1.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f32>()
            .sqrt()
    }

    #[test]
    fn weak_is_smaller_perturbation_than_strong() {
        let mut rng = StdRng::seed_from_u64(0);
        let aug = Augmenter::default();
        let img: Image = (0..32).map(|i| (i as f32 / 8.0).sin()).collect();
        let mut dw = 0.0;
        let mut ds = 0.0;
        for _ in 0..100 {
            dw += l2(&img, &aug.weak(&img, &mut rng));
            ds += l2(&img, &aug.strong(&img, &mut rng));
        }
        assert!(dw < ds, "weak {dw} must perturb less than strong {ds}");
        assert!(dw > 0.0, "weak augmentation must actually perturb");
    }

    #[test]
    fn augmentations_preserve_dimensionality() {
        let mut rng = StdRng::seed_from_u64(1);
        let aug = Augmenter::default();
        let img = vec![1.0f32; 16];
        assert_eq!(aug.weak(&img, &mut rng).len(), 16);
        assert_eq!(aug.strong(&img, &mut rng).len(), 16);
    }

    #[test]
    fn batch_variants_transform_each_row_independently() {
        let mut rng = StdRng::seed_from_u64(2);
        let aug = Augmenter::default();
        let x = Tensor::ones(&[4, 8]);
        let w = aug.weak_batch(&x, &mut rng);
        assert_eq!(w.shape(), &[4, 8]);
        assert_ne!(w.row(0), w.row(1), "rows get independent noise");
    }

    #[test]
    fn strong_masks_roughly_mask_prob_coordinates() {
        let mut rng = StdRng::seed_from_u64(3);
        let aug = Augmenter {
            mask_prob: 0.3,
            ..Augmenter::default()
        };
        let img = vec![5.0f32; 4000];
        let out = aug.strong(&img, &mut rng);
        let masked = out.iter().filter(|&&v| v == 0.0).count() as f32 / 4000.0;
        assert!((masked - 0.3).abs() < 0.05, "mask rate {masked}");
    }
}
