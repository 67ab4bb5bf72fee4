//! Set-up: the deterministic smoke-scale world every workload runs on.
//!
//! Untraced runs build it with one `Experiment::standard(Smoke)` call. The
//! traced run builds the same thing one step at a time, in the same order
//! and with the same arguments, so each step gets its own span.

use taglets_core::{TagletsConfig, TagletsSystem, ZslKgConfig, ZslKgModule};
use taglets_data::{
    standard_tasks, ConceptUniverse, Image, ModelZoo, Task, UniverseConfig, ZooConfig,
};
use taglets_eval::{Experiment, ExperimentScale};
use taglets_graph::SyntheticGraphConfig;
use taglets_scads::Scads;

use crate::trace::Tracer;
use crate::Result;

pub const SCALE: ExperimentScale = ExperimentScale::Smoke;

/// The world without pretrained models: universe, tasks and SCADS.
pub struct World {
    pub universe: ConceptUniverse,
    pub tasks: Vec<Task>,
    pub scads: Scads<Image>,
    corpus: taglets_data::AuxiliaryCorpus,
}

impl World {
    /// The first steps of `Experiment::standard(SCALE)`.
    pub fn build() -> Result<World> {
        let mut universe = ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: SCALE.num_concepts(),
                ..SyntheticGraphConfig::default()
            },
            ..UniverseConfig::default()
        })?;
        let tasks = standard_tasks(&mut universe)?;
        let corpus = universe.build_corpus(SCALE.corpus_per_concept(), 0);
        let scads = universe.build_scads(&corpus)?;
        Ok(World {
            universe,
            tasks,
            scads,
            corpus,
        })
    }
}

pub fn find_task<'t>(tasks: &'t [Task], name: &str) -> Result<&'t Task> {
    tasks
        .iter()
        .find(|t| t.name == name)
        .ok_or_else(|| format!("no task named {name}").into())
}

/// Everything a TAGLETS run needs: the world plus the pretrained zoo and
/// ZSL-KG encoder.
pub enum Env {
    Standard(Experiment),
    Staged {
        world: World,
        zoo: ModelZoo,
        zslkg: ZslKgModule,
    },
}

impl Env {
    /// Builds the environment; with the tracer on, step by step inside
    /// `data.world`, `data.zoo_pretrain` and `core.zslkg_pretrain` spans.
    pub fn build(tracer: &mut Tracer) -> Result<Env> {
        if !tracer.is_on() {
            return Ok(Env::Standard(Experiment::standard(SCALE)?));
        }
        let (world, _) = tracer.span("data.world", None, 0, World::build);
        let world = world?;
        let (zoo, _) = tracer.span("data.zoo_pretrain", None, 0, || {
            ModelZoo::pretrain(&world.universe, &world.corpus, &ZooConfig::default())
        });
        let zoo = zoo?;
        let (zslkg, _) = tracer.span("core.zslkg_pretrain", None, 0, || {
            ZslKgModule::pretrain(&world.scads, &zoo, &ZslKgConfig::default(), 0)
        });
        Ok(Env::Staged { world, zoo, zslkg })
    }

    /// A system with the default configuration, as `Experiment::system`
    /// builds it.
    pub fn system(&self) -> TagletsSystem<'_> {
        match self {
            Env::Standard(exp) => exp.system(TagletsConfig::default()),
            Env::Staged { world, zoo, zslkg } => TagletsSystem::prepare_with_zslkg(
                &world.scads,
                zoo,
                TagletsConfig::default(),
                zslkg.clone(),
            ),
        }
    }

    pub fn task(&self, name: &str) -> Result<&Task> {
        match self {
            Env::Standard(exp) => Ok(exp.task(name)?),
            Env::Staged { world, .. } => find_task(&world.tasks, name),
        }
    }

    pub fn universe(&self) -> &ConceptUniverse {
        match self {
            Env::Standard(exp) => exp.universe(),
            Env::Staged { world, .. } => &world.universe,
        }
    }
}
