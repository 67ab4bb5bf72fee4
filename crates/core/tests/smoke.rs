//! End-to-end smoke test: the full TAGLETS pipeline on a reduced universe.

use std::time::Instant;

use taglets_core::{TagletsConfig, TagletsSystem};
use taglets_data::{
    standard_tasks, BackboneKind, ConceptUniverse, ModelZoo, UniverseConfig, ZooConfig,
};
use taglets_graph::SyntheticGraphConfig;
use taglets_scads::PruneLevel;

#[test]
fn full_pipeline_produces_a_working_end_model() {
    let t0 = Instant::now();
    let mut universe = ConceptUniverse::new(UniverseConfig {
        graph: SyntheticGraphConfig {
            num_concepts: 400,
            ..SyntheticGraphConfig::default()
        },
        ..UniverseConfig::default()
    })
    .expect("universe builds");
    let tasks = standard_tasks(&mut universe).expect("standard tasks build");
    let corpus = universe.build_corpus(15, 0);
    let scads = universe.build_scads(&corpus).expect("corpus is non-empty");
    let zoo =
        ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default()).expect("corpus is non-empty");
    eprintln!("setup: {:?}", t0.elapsed());

    let t1 = Instant::now();
    let config = TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k);
    let system = TagletsSystem::prepare(&scads, &zoo, config);
    eprintln!("prepare (zsl-kg pretraining): {:?}", t1.elapsed());

    let fmd = tasks.iter().find(|t| t.name == "flickr_materials").unwrap();
    let split = fmd.split(0, 5);

    let t2 = Instant::now();
    let run = system.run(fmd, &split, PruneLevel::NoPruning, 0).unwrap();
    eprintln!("taglets run (fmd, 5-shot): {:?}", t2.elapsed());

    assert_eq!(run.taglets.len(), 4);
    assert!(run.num_auxiliary_examples > 0);
    let acc = run.end_model.accuracy(&split.test_x, &split.test_y);
    let chance = 1.0 / fmd.num_classes() as f32;
    eprintln!("end model accuracy: {acc}");
    for t in &run.taglets {
        eprintln!(
            "  {}: {}",
            t.name(),
            t.accuracy(&split.test_x, &split.test_y)
        );
    }
    eprintln!(
        "  ensemble: {}",
        run.ensemble().accuracy(&split.test_x, &split.test_y)
    );
    assert!(acc > 2.0 * chance, "end model must beat chance: {acc}");
}

#[test]
fn grocery_oov_classes_are_handled_via_scads_extension() {
    let mut universe = ConceptUniverse::new(UniverseConfig {
        graph: SyntheticGraphConfig {
            num_concepts: 400,
            ..SyntheticGraphConfig::default()
        },
        ..UniverseConfig::default()
    })
    .expect("universe builds");
    let tasks = standard_tasks(&mut universe).expect("standard tasks build");
    let corpus = universe.build_corpus(10, 0);
    let scads = universe.build_scads(&corpus).expect("corpus is non-empty");
    let zoo =
        ModelZoo::pretrain(&universe, &corpus, &ZooConfig::default()).expect("corpus is non-empty");
    assert!(scads.graph().find("oatghurt").is_none());

    let config = TagletsConfig::for_backbone(BackboneKind::ResNet50ImageNet1k);
    let system = TagletsSystem::prepare(&scads, &zoo, config);
    let grocery = tasks.iter().find(|t| t.name == "grocery_store").unwrap();
    let split = grocery.split(0, 1);
    let run = system
        .run(grocery, &split, PruneLevel::NoPruning, 0)
        .unwrap();
    let acc = run.end_model.accuracy(&split.test_x, &split.test_y);
    eprintln!("grocery 1-shot end model accuracy: {acc}");
    assert!(acc > 2.0 / 42.0, "must beat chance on grocery: {acc}");
    // The original SCADS is untouched (extension happens on a clone).
    assert!(scads.graph().find("oatghurt").is_none());
}
