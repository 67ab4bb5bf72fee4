//! End-to-end orchestration (Fig. 2) as a staged execution engine:
//! `select` → `train_modules` → `ensemble` → `distill`.
//!
//! Each stage is a named method; the `train_modules` stage hands its
//! independent jobs to an [`Executor`], which fans them out over one
//! scoped worker thread per available core. Because every module derives
//! its RNG from `seed ^ name_hash(name)` and the executor reassembles
//! results in module order, the parallel path is bitwise identical to the
//! serial one (see the `exec_determinism` integration test).

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::SeedableRng;

use taglets_data::{Image, ModelZoo, Task, TaskSplit};
use taglets_graph::ConceptId;
use taglets_scads::{AuxiliarySelection, PruneLevel, Scads};
use taglets_tensor::exec::Executor;
use taglets_tensor::Tensor;

use crate::telemetry::{ModuleTelemetry, RunTelemetry, StageTelemetry};
use crate::{
    distillation, CoreError, Ensemble, FixMatchModule, ModuleContext, MultiTaskModule,
    ServableModel, Taglet, TagletModule, TagletsConfig, TransferModule, ZslKgModule,
};

/// The TAGLETS system, prepared once per (SCADS, zoo, config) and run many
/// times across tasks, splits, shots, and pruning levels.
///
/// Preparation pretrains the ZSL-KG graph encoder — the system-level
/// analogue of the paper shipping a ConceptNet-pretrained ZSL-KG instance.
pub struct TagletsSystem<'a> {
    scads: &'a Scads<Image>,
    zoo: &'a ModelZoo,
    config: TagletsConfig,
    zslkg: ZslKgModule,
    extra_modules: Vec<Box<dyn TagletModule>>,
    disabled: Vec<String>,
}

impl std::fmt::Debug for TagletsSystem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TagletsSystem {{ backbone: {}, modules: {:?} }}",
            self.config.backbone,
            self.active_module_names()
        )
    }
}

/// Everything a single TAGLETS run produces.
pub struct TagletsRun {
    /// The trained taglets, in module order.
    pub taglets: Vec<Box<dyn Taglet>>,
    /// Soft pseudo labels assigned to the (possibly capped) unlabeled pool.
    pub pseudo_labels: Tensor,
    /// The unlabeled pool the run actually consumed.
    pub unlabeled_used: Tensor,
    /// The distilled servable end model.
    pub end_model: ServableModel,
    /// Number of auxiliary examples selected (`|R|`).
    pub num_auxiliary_examples: usize,
    /// Number of auxiliary classes (`≤ N·C`).
    pub num_auxiliary_classes: usize,
    /// Structured execution telemetry: per-stage timings, per-module
    /// training reports, and the worker count the run used.
    pub telemetry: RunTelemetry,
}

impl std::fmt::Debug for TagletsRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.taglets.iter().map(|t| t.name()).collect();
        write!(
            f,
            "TagletsRun {{ taglets: {names:?}, |R|: {} }}",
            self.num_auxiliary_examples
        )
    }
}

impl TagletsRun {
    /// The taglet ensemble over this run's modules.
    pub fn ensemble(&self) -> Ensemble<'_> {
        Ensemble::new(&self.taglets)
    }

    /// The taglet trained by `module_name`, if it ran.
    pub fn taglet(&self, module_name: &str) -> Option<&dyn Taglet> {
        self.taglets
            .iter()
            .find(|t| t.name() == module_name)
            .map(|t| &**t)
    }
}

/// Output of the `select` stage: the (possibly extended) SCADS, resolved
/// target concepts, the shared auxiliary selection `R`, and the capped
/// unlabeled pool `U`.
struct Selected<'a> {
    scads: Cow<'a, Scads<Image>>,
    target_concepts: Vec<ConceptId>,
    selection: AuxiliarySelection<Image>,
    unlabeled_used: Tensor,
}

impl<'a> TagletsSystem<'a> {
    /// Prepares the system: validates inputs and pretrains the ZSL-KG graph
    /// encoder against the zoo's ImageNet-1k-style classifier.
    pub fn prepare(scads: &'a Scads<Image>, zoo: &'a ModelZoo, config: TagletsConfig) -> Self {
        let zslkg = ZslKgModule::pretrain(scads, zoo, &config.zslkg, 0);
        TagletsSystem {
            scads,
            zoo,
            config,
            zslkg,
            extra_modules: Vec::new(),
            disabled: Vec::new(),
        }
    }

    /// Prepares the system reusing an existing pretrained ZSL-KG module
    /// (avoids duplicate GNN pretraining when sweeping configurations).
    pub fn prepare_with_zslkg(
        scads: &'a Scads<Image>,
        zoo: &'a ModelZoo,
        config: TagletsConfig,
        zslkg: ZslKgModule,
    ) -> Self {
        TagletsSystem {
            scads,
            zoo,
            config,
            zslkg,
            extra_modules: Vec::new(),
            disabled: Vec::new(),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &TagletsConfig {
        &self.config
    }

    /// The pretrained ZSL-KG module (sharable across systems).
    pub fn zslkg(&self) -> &ZslKgModule {
        &self.zslkg
    }

    /// Disables a module by name — the leave-one-out ablation of Fig. 6.
    pub fn without_module(mut self, name: &str) -> Self {
        self.disabled.push(name.to_string());
        self
    }

    /// Registers a user-supplied module (the extensibility hook of Sec. 3.2).
    pub fn with_extra_module(mut self, module: Box<dyn TagletModule>) -> Self {
        self.extra_modules.push(module);
        self
    }

    /// Names of the modules that will run.
    pub fn active_module_names(&self) -> Vec<&str> {
        let mut names = vec![
            TransferModule::NAME,
            MultiTaskModule::NAME,
            FixMatchModule::NAME,
            ZslKgModule::NAME,
        ];
        names.extend(self.extra_modules.iter().map(|m| m.name()));
        names.retain(|n| !self.disabled.iter().any(|d| d == n));
        names
    }

    /// Runs the full pipeline on one task split.
    ///
    /// `seed` is the training seed of Appendix A.3 (module initialisation
    /// and data shuffling); the split itself carries the split seed. The
    /// module-training stage trains modules on one worker per available
    /// core (at most one per module); results are bitwise identical to a
    /// serial run at every worker count.
    ///
    /// A one-class task is not an error: it runs like any other, and the
    /// end model puts all probability on that class.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSplit`] if `split` is malformed: a label
    ///   count that differs from the `labeled_x` row count, a label not
    ///   below the class count, a feature row whose width differs from the
    ///   backbone input, or a NaN/±Inf feature.
    /// * [`CoreError::InvalidConfig`] if a module or end-model batch size is
    ///   zero, or a learning rate is not finite and positive.
    /// * [`CoreError::NoModules`] if every module was disabled.
    /// * [`CoreError::Scads`] if extending SCADS for an out-of-vocabulary
    ///   class fails.
    /// * Any module error (e.g. [`CoreError::NoLabeledData`]).
    // lint: root(determinism)
    pub fn run(
        &self,
        task: &Task,
        split: &TaskSplit,
        prune: PruneLevel,
        seed: u64,
    ) -> Result<TagletsRun, CoreError> {
        let input_dim = self.zoo.get(self.config.backbone).input_dim();
        validate_split(split, task.num_classes(), input_dim)?;
        validate_config(&self.config)?;
        let module_names = self.active_module_names();
        if module_names.is_empty() {
            return Err(CoreError::NoModules);
        }
        let executor = Executor::new();
        let mut stages: Vec<StageTelemetry> = Vec::with_capacity(4);

        // Stage 1: SCADS extension, concept resolution, auxiliary selection,
        // unlabeled capping.
        // Wall-clock telemetry only; never feeds training.
        let start = std::time::Instant::now(); // lint: allow(TL003), nondeterministic(stage timing telemetry; the value never feeds model state)
        let selected = self.select(task, split, prune, seed)?;
        stages.push(StageTelemetry {
            name: "select",
            seconds: start.elapsed().as_secs_f32(),
        });

        let ctx = ModuleContext {
            task,
            split,
            scads: selected.scads.as_ref(),
            zoo: self.zoo,
            backbone: self.config.backbone,
            prune,
            config: &self.config,
            target_concepts: &selected.target_concepts,
            selection: &selected.selection,
            unlabeled: &selected.unlabeled_used,
        };

        // Stage 2: train the modules (the parallelizable stage).
        let start = std::time::Instant::now(); // lint: allow(TL003), nondeterministic(stage timing telemetry; the value never feeds model state)
        let (taglets, module_telemetry) =
            self.train_modules(&ctx, &module_names, seed, &executor)?;
        stages.push(StageTelemetry {
            name: "train_modules",
            seconds: start.elapsed().as_secs_f32(),
        });

        // Stage 3: ensemble → pseudo labels (Eq. 6).
        let start = std::time::Instant::now(); // lint: allow(TL003), nondeterministic(stage timing telemetry; the value never feeds model state)
        let pseudo_labels = Self::ensemble_stage(&taglets, &selected.unlabeled_used, task);
        stages.push(StageTelemetry {
            name: "ensemble",
            seconds: start.elapsed().as_secs_f32(),
        });

        // Stage 4: distill into the end model (Eq. 7).
        let start = std::time::Instant::now(); // lint: allow(TL003), nondeterministic(stage timing telemetry; the value never feeds model state)
        let (end_model, end_telemetry) =
            self.distill(task, split, &selected.unlabeled_used, &pseudo_labels, seed);
        stages.push(StageTelemetry {
            name: "distill",
            seconds: start.elapsed().as_secs_f32(),
        });

        Ok(TagletsRun {
            taglets,
            pseudo_labels,
            unlabeled_used: selected.unlabeled_used,
            end_model,
            num_auxiliary_examples: selected.selection.len(),
            num_auxiliary_classes: selected.selection.num_aux_classes(),
            telemetry: RunTelemetry {
                workers: executor.workers(module_names.len()),
                stages,
                modules: module_telemetry,
                end_model: end_telemetry,
            },
        })
    }

    /// `select` stage: extend SCADS for out-of-vocabulary classes
    /// (Appendix A.2), resolve target concepts, select the auxiliary data
    /// `R` once for all modules (Sec. 3.1), and cap the unlabeled pool.
    fn select(
        &self,
        task: &Task,
        split: &TaskSplit,
        prune: PruneLevel,
        seed: u64,
    ) -> Result<Selected<'a>, CoreError> {
        let needs_extension = task.classes.iter().any(|c| c.concept.is_none());
        let scads: Cow<'a, Scads<Image>> = if needs_extension {
            let mut local = self.scads.clone();
            for class in &task.classes {
                if class.concept.is_none() {
                    let links: Vec<(&str, taglets_graph::Relation)> = class
                        .graph_links
                        .iter()
                        .map(|(n, r)| (n.as_str(), *r))
                        .collect();
                    local.add_concept(&class.name, &links)?;
                }
            }
            Cow::Owned(local)
        } else {
            Cow::Borrowed(self.scads)
        };

        // Resolve target concepts in label order (by class name).
        let target_concepts: Vec<ConceptId> = task
            .classes
            .iter()
            .map(|c| scads.graph().require(&c.name))
            .collect::<Result<_, _>>()?;

        // Select the auxiliary data R once; all modules share it.
        let selection: AuxiliarySelection<Image> = match self.config.selection {
            crate::SelectionStrategy::GraphRelated => scads.select_related(
                &target_concepts,
                self.config.related_concepts_per_class,
                self.config.images_per_concept,
                prune,
            ),
            crate::SelectionStrategy::RandomConcepts => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1ec7);
                scads.select_random(
                    &target_concepts,
                    self.config.related_concepts_per_class * target_concepts.len(),
                    self.config.images_per_concept,
                    prune,
                    &mut rng,
                )
            }
        };

        // Cap the unlabeled pool uniformly (compute budget).
        let unlabeled_used = match self.config.max_unlabeled {
            Some(cap) if split.unlabeled_x.rows() > cap => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xcab);
                let mut idx: Vec<usize> = (0..split.unlabeled_x.rows()).collect();
                use rand::seq::SliceRandom;
                idx.shuffle(&mut rng);
                idx.truncate(cap);
                split.unlabeled_x.gather_rows(&idx)
            }
            _ => split.unlabeled_x.clone(),
        };

        Ok(Selected {
            scads,
            target_concepts,
            selection,
            unlabeled_used,
        })
    }

    /// `train_modules` stage: resolve the active modules and train each on
    /// the executor. Each job derives its RNG from `seed ^ name_hash(name)`
    /// — independent of scheduling — and the executor returns results in
    /// module order, so this stage is deterministic at any worker count.
    fn train_modules(
        &self,
        ctx: &ModuleContext<'_>,
        module_names: &[&str],
        seed: u64,
        executor: &Executor,
    ) -> Result<(Vec<Box<dyn Taglet>>, Vec<ModuleTelemetry>), CoreError> {
        let transfer = TransferModule;
        let multitask = MultiTaskModule;
        let fixmatch = FixMatchModule::new();
        let mut modules: Vec<&dyn TagletModule> = Vec::new();
        for name in module_names {
            match *name {
                TransferModule::NAME => modules.push(&transfer),
                MultiTaskModule::NAME => modules.push(&multitask),
                FixMatchModule::NAME => modules.push(&fixmatch),
                ZslKgModule::NAME => modules.push(&self.zslkg),
                other => {
                    let m = self
                        .extra_modules
                        .iter()
                        .find(|m| m.name() == other)
                        .ok_or_else(|| CoreError::UnknownModule {
                            name: other.to_string(),
                        })?;
                    modules.push(&**m);
                }
            }
        }

        let trained = executor.run(modules.len(), |i| -> Result<_, CoreError> {
            let module = modules[i];
            let mut rng = StdRng::seed_from_u64(seed ^ name_hash(module.name()));
            // Wall-clock telemetry only; never feeds training.
            let start = std::time::Instant::now(); // lint: allow(TL003), nondeterministic(stage timing telemetry; the value never feeds model state)
            let result = module.train(ctx, &mut rng)?;
            Ok((result, start.elapsed().as_secs_f32()))
        })?;

        let mut taglets = Vec::with_capacity(trained.len());
        let mut telemetry = Vec::with_capacity(trained.len());
        for (result, seconds) in trained {
            telemetry.push(ModuleTelemetry {
                name: result.taglet.name().to_string(),
                seconds,
                report: result.report,
            });
            taglets.push(result.taglet);
        }
        Ok((taglets, telemetry))
    }

    /// `ensemble` stage: soft pseudo labels for the unlabeled pool (Eq. 6).
    fn ensemble_stage(taglets: &[Box<dyn Taglet>], unlabeled: &Tensor, task: &Task) -> Tensor {
        if unlabeled.rows() > 0 {
            Ensemble::new(taglets).predict_proba(unlabeled)
        } else {
            Tensor::zeros(&[0, task.num_classes()])
        }
    }

    /// `distill` stage: train the servable end model on pseudo-labeled plus
    /// labeled data (Eq. 7). The stage trains one model on the calling
    /// thread.
    fn distill(
        &self,
        task: &Task,
        split: &TaskSplit,
        unlabeled_used: &Tensor,
        pseudo_labels: &Tensor,
        seed: u64,
    ) -> (ServableModel, ModuleTelemetry) {
        let (inputs, soft_targets) = distillation::distillation_set(
            unlabeled_used,
            pseudo_labels,
            &split.labeled_x,
            &split.labeled_y,
            task.num_classes(),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ name_hash("end-model"));
        // Wall-clock telemetry only; never feeds training.
        let start = std::time::Instant::now(); // lint: allow(TL003), nondeterministic(stage timing telemetry; the value never feeds model state)
        let (end, report) = distillation::train_end_model(
            self.zoo,
            self.config.backbone,
            &inputs,
            &soft_targets,
            task.num_classes(),
            &self.config.end_model,
            &mut rng,
        );
        let telemetry = ModuleTelemetry {
            name: "end-model".to_string(),
            seconds: start.elapsed().as_secs_f32(),
            report,
        };
        (ServableModel::new(end), telemetry)
    }
}

fn name_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Checks `split` before any stage consumes it: one label per labeled row,
/// every label below `num_classes`, every feature row `input_dim` wide,
/// and every feature finite (the rule serving applies as
/// [`crate::ServeError::NonFinite`]).
fn validate_split(
    split: &TaskSplit,
    num_classes: usize,
    input_dim: usize,
) -> Result<(), CoreError> {
    let invalid = |field, row, reason| Err(CoreError::InvalidSplit { field, row, reason });
    for (field, x) in [
        ("labeled_x", &split.labeled_x),
        ("unlabeled_x", &split.unlabeled_x),
    ] {
        if x.shape().len() != 2 || x.shape()[1] != input_dim {
            return invalid(field, 0, "row width differs from the backbone input width");
        }
        if let Some(row) = x.rows_iter().position(|r| r.iter().any(|v| !v.is_finite())) {
            return invalid(field, row, "non-finite feature");
        }
    }
    let rows = split.labeled_x.rows();
    if split.labeled_y.len() != rows {
        let row = rows.min(split.labeled_y.len());
        return invalid(
            "labeled_y",
            row,
            "label count differs from the labeled_x row count",
        );
    }
    if let Some(row) = split.labeled_y.iter().position(|&y| y >= num_classes) {
        return invalid("labeled_y", row, "label is not below the class count");
    }
    Ok(())
}

/// Checks the hyperparameters a run trains with: every module and
/// end-model batch size positive, every learning rate finite and positive.
fn validate_config(config: &TagletsConfig) -> Result<(), CoreError> {
    let batch_sizes = [
        ("transfer.batch_size", config.transfer.batch_size),
        ("multitask.batch_size", config.multitask.batch_size),
        ("fixmatch.batch_size", config.fixmatch.batch_size),
        ("end_model.batch_size", config.end_model.batch_size),
    ];
    if let Some(&(field, _)) = batch_sizes.iter().find(|(_, size)| *size == 0) {
        let reason = "batch size must be positive";
        return Err(CoreError::InvalidConfig { field, reason });
    }
    let rates = [
        ("transfer.lr", config.transfer.lr),
        ("multitask.lr", config.multitask.lr),
        ("fixmatch.lr", config.fixmatch.lr),
        ("fixmatch.pretrain_lr", config.fixmatch.pretrain_lr),
        ("zslkg.lr", config.zslkg.lr),
        ("end_model.lr", config.end_model.lr),
    ];
    if let Some(&(field, _)) = rates.iter().find(|(_, lr)| !(lr.is_finite() && *lr > 0.0)) {
        let reason = "learning rate must be finite and positive";
        return Err(CoreError::InvalidConfig { field, reason });
    }
    Ok(())
}
