//! Structured run telemetry.
//!
//! Every [`crate::TagletsSystem::run`] produces a [`RunTelemetry`]: one
//! timing entry per pipeline stage (`select`, `train_modules`, `ensemble`,
//! `distill`), one [`ModuleTelemetry`] per trained module (wall-clock plus
//! the module's merged [`FitReport`]), and the end model's training record.
//! This replaces the old ad-hoc `module_seconds`/`end_model_seconds` fields,
//! which dropped every report the training loops computed.

use taglets_nn::FitReport;

/// Wall-clock timing of one named pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTelemetry {
    /// Stage name (`select`, `train_modules`, `ensemble`, `distill`).
    pub name: &'static str,
    /// Wall-clock duration of the stage, in seconds.
    pub seconds: f32,
}

/// Telemetry of one trained component (a module's taglet or the end model).
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleTelemetry {
    /// Component name (module name, or `end-model`).
    pub name: String,
    /// Wall-clock training time, in seconds.
    pub seconds: f32,
    /// Merged fit telemetry of every training phase the component ran
    /// (empty for training-free components such as ZSL-KG).
    pub report: FitReport,
}

/// Everything a run records about *how* it executed (timings, worker count,
/// per-component training curves) — as opposed to *what* it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    /// Worker threads the `train_modules` stage used: the cores available
    /// to the process, capped at the number of active modules.
    pub workers: usize,
    /// Per-stage wall-clock timings, in pipeline order.
    pub stages: Vec<StageTelemetry>,
    /// Per-module telemetry, in module order (matches
    /// [`crate::TagletsRun::taglets`]).
    pub modules: Vec<ModuleTelemetry>,
    /// The distillation stage's end-model training record.
    pub end_model: ModuleTelemetry,
}

impl RunTelemetry {
    /// `(module name, wall-clock seconds)` in module order — the view the
    /// figure benches plot.
    pub fn module_seconds(&self) -> Vec<(String, f32)> {
        self.modules
            .iter()
            .map(|m| (m.name.clone(), m.seconds))
            .collect()
    }

    /// Wall-clock seconds of the distillation stage's end-model training.
    pub fn end_model_seconds(&self) -> f32 {
        self.end_model.seconds
    }

    /// Wall-clock seconds of a named stage, if it ran.
    pub fn stage_seconds(&self, name: &str) -> Option<f32> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.seconds)
    }

    /// Sum of per-module wall-clock times — the serial cost of the
    /// `train_modules` stage. Compared against
    /// `stage_seconds("train_modules")`, this is the parallel speedup
    /// numerator.
    pub fn summed_module_seconds(&self) -> f32 {
        self.modules.iter().map(|m| m.seconds).sum()
    }

    /// Total wall-clock of the run (sum over stages).
    pub fn total_seconds(&self) -> f32 {
        self.stages.iter().map(|s| s.seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunTelemetry {
        RunTelemetry {
            workers: 2,
            stages: vec![
                StageTelemetry {
                    name: "select",
                    seconds: 0.5,
                },
                StageTelemetry {
                    name: "train_modules",
                    seconds: 2.0,
                },
            ],
            modules: vec![
                ModuleTelemetry {
                    name: "transfer".into(),
                    seconds: 1.5,
                    report: FitReport {
                        epoch_losses: vec![1.0, 0.5],
                        steps: 8,
                    },
                },
                ModuleTelemetry {
                    name: "zsl-kg".into(),
                    seconds: 0.25,
                    report: FitReport::default(),
                },
            ],
            end_model: ModuleTelemetry {
                name: "end-model".into(),
                seconds: 0.75,
                report: FitReport::default(),
            },
        }
    }

    #[test]
    fn accessors_aggregate_correctly() {
        let t = sample();
        assert_eq!(
            t.module_seconds(),
            vec![("transfer".to_string(), 1.5), ("zsl-kg".to_string(), 0.25)]
        );
        assert!((t.end_model_seconds() - 0.75).abs() < 1e-6);
        assert_eq!(t.stage_seconds("select"), Some(0.5));
        assert_eq!(t.stage_seconds("distill"), None);
        assert!((t.summed_module_seconds() - 1.75).abs() < 1e-6);
        assert!((t.total_seconds() - 2.5).abs() < 1e-6);
    }
}
