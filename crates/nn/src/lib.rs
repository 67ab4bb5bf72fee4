//! # taglets-nn
//!
//! Neural-network building blocks on top of [`taglets_tensor`]: linear
//! layers, MLP backbones (the stand-ins for the paper's ResNet-50/BiT
//! encoders), classifiers, and the one training step ([`train_step`]) and
//! supervised training loops used by every module and baseline in the
//! TAGLETS pipeline.
//!
//! ## Example
//!
//! ```
//! use taglets_nn::{fit_hard, Classifier, FitConfig};
//! use taglets_tensor::{Sgd, SgdConfig, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut clf = Classifier::from_dims(&[4, 8], 2, 0.0, &mut rng);
//! let x = Tensor::randn(&[10, 4], 1.0, &mut rng);
//! let y = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
//! let mut opt = Sgd::new(SgdConfig { lr: 0.05, ..SgdConfig::default() });
//! let report = fit_hard(&mut clf, &x, &y, &FitConfig::new(3, 4, 0.05), &mut opt, &mut rng);
//! assert_eq!(report.epoch_losses.len(), 3);
//! ```

mod augment;
mod classifier;
mod infer;
mod layers;
mod serialize;
mod train;

pub use augment::Augmenter;
pub use classifier::{accuracy, Classifier};
pub use infer::{InferScratch, PackedWeights};
pub use layers::{Activation, Linear, Mlp, Module};
pub use serialize::{load_classifier, save_classifier};
pub use train::{
    fit, fit_hard, fit_soft, shuffled_batches, train_step, FitConfig, FitReport, Targets,
};
