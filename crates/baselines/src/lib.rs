//! # taglets-baselines
//!
//! The transfer- and semi-supervised-learning baselines of the TAGLETS
//! evaluation (Sec. 4.2):
//!
//! * [`fine_tune`] — BigTransfer-style fine-tuning of a pretrained encoder;
//! * [`fine_tune_distilled`] — the same plus pseudo-label distillation;
//! * [`fixmatch_baseline`] — FixMatch without SCADS pretraining;
//! * [`meta_pseudo_labels`] — teacher-student training with student
//!   feedback;
//! * [`simclr_lite`] — SimCLRv2-style contrastive pretraining (implemented
//!   to reproduce the paper's finding that it degrades on small datasets and
//!   was therefore excluded from the result tables).
//!
//! All baselines consume the same [`TaskSplit`](taglets_data::TaskSplit)s
//! and pretrained [`ModelZoo`](taglets_data::ModelZoo) as the TAGLETS system
//! so comparisons differ only in method.

mod finetune;
mod fixmatch;
mod mpl;
mod simclr;

pub use finetune::{fine_tune, fine_tune_distilled};
pub use fixmatch::fixmatch_baseline;
pub use mpl::{meta_pseudo_labels, MplConfig};
pub use simclr::{simclr_lite, SimclrConfig, SimclrReport};
