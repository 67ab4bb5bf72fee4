//! Shared environment of the system test binary: a reduced synthetic world
//! built once per run, and the checksum its bit pins are recorded with.

use std::sync::OnceLock;

use taglets::{
    standard_tasks, ConceptUniverse, Image, ModelZoo, Scads, Task, UniverseConfig, ZooConfig,
};

pub struct TestWorld {
    pub universe: ConceptUniverse,
    pub tasks: Vec<Task>,
    pub scads: Scads<Image>,
    pub zoo: ModelZoo,
}

pub fn world() -> &'static TestWorld {
    static WORLD: OnceLock<TestWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut universe = ConceptUniverse::new(UniverseConfig {
            graph: taglets::graph::SyntheticGraphConfig {
                num_concepts: 350,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("universe builds");
        let tasks = standard_tasks(&mut universe).expect("standard tasks build");
        let corpus = universe.build_corpus(15, 0);
        let scads = universe.build_scads(&corpus).expect("corpus is non-empty");
        let zoo = ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default())
            .expect("corpus is non-empty");
        TestWorld {
            universe,
            tasks,
            scads,
            zoo,
        }
    })
}

pub fn task(name: &str) -> &'static Task {
    world()
        .tasks
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no task named {name}"))
}

/// FNV-1a over a sequence of `f32` bit patterns.
pub fn checksum<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
