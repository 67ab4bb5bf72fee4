//! Bitwise pin of ZSL-KG pretraining.
//!
//! `pretrain_encoder` runs on a fixed graph whose neighbour lists are
//! inserted in shuffled order and which has isolated nodes, under both
//! aggregations. The constants below were recorded from the implementation
//! that multiplied a dense `[n, n]` adjacency with the blocked GEMM and ran
//! a second frozen forward every epoch to score the held-out classes. Any
//! change to the aggregation kernel or the checkpoint loop that moves one
//! bit of the losses, the selected epoch or the restored parameters fails
//! here.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use taglets_graph::{
    normalized_adjacency, pretrain_encoder, Aggregation, ConceptGraph, ConceptId,
    GnnPretrainConfig, GnnPretrainReport, GraphEncoder, Relation,
};
use taglets_nn::Module;
use taglets_tensor::Tensor;

const NODES: usize = 48;
const ISOLATED: usize = 5;
const IN_DIM: usize = 8;
const OUT_DIM: usize = 6;

/// FNV-1a over a sequence of `f32` bit patterns.
fn checksum<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A random graph over `NODES` concepts: the last `ISOLATED` have no edges,
/// and edges are added in shuffled order so neighbour lists are unsorted.
fn fixture() -> (ConceptGraph, Tensor, Vec<(ConceptId, Vec<f32>)>) {
    let mut rng = StdRng::seed_from_u64(0x715);
    let mut graph = ConceptGraph::new();
    for i in 0..NODES {
        graph.add_concept(&format!("c{i}"));
    }
    let linked = NODES - ISOLATED;
    let mut edges: Vec<(usize, usize)> = (0..linked)
        .flat_map(|i| (i + 1..linked).map(move |j| (i, j)))
        .filter(|_| rng.gen::<f32>() < 0.12)
        .collect();
    edges.shuffle(&mut rng);
    for (a, b) in edges {
        graph.add_edge(ConceptId(a), ConceptId(b), Relation::RelatedTo);
    }
    let features = Tensor::randn(&[NODES, IN_DIM], 1.0, &mut rng);
    let proj = Tensor::randn(&[IN_DIM, OUT_DIM], 0.4, &mut rng);
    let targets = features.matmul(&proj);
    let targets = (0..NODES)
        .step_by(2)
        .map(|i| (ConceptId(i), targets.row(i).to_vec()))
        .collect();
    (graph, features, targets)
}

fn run(aggregation: Aggregation, epochs: usize) -> (GnnPretrainReport, u64) {
    let (graph, features, targets) = fixture();
    let mut rng = StdRng::seed_from_u64(0x9e);
    let mut enc = GraphEncoder::with_aggregation(IN_DIM, 16, OUT_DIM, aggregation, &mut rng);
    let cfg = GnnPretrainConfig {
        epochs,
        lr: 2e-2,
        weight_decay: 1e-4,
        validation_fraction: 0.2,
        seed: 3,
    };
    let a = normalized_adjacency(&graph);
    let report = pretrain_encoder(&mut enc, &features, &a, &targets, &cfg);
    let params = checksum(enc.parameters().into_iter().flat_map(|p| p.data()));
    (report, params)
}

fn assert_pinned(
    aggregation: Aggregation,
    epochs: usize,
    losses: u64,
    best_epoch: usize,
    best_loss: u32,
    params: u64,
) {
    let (report, got_params) = run(aggregation, epochs);
    let got_losses = checksum(&report.train_losses);
    println!(
        "{aggregation:?}: losses {got_losses:#018x} best_epoch {} best_loss {:#010x} params {got_params:#018x}",
        report.best_epoch,
        report.best_validation_loss.to_bits()
    );
    assert_eq!(report.train_losses.len(), epochs);
    assert_eq!(got_losses, losses, "{aggregation:?} train-loss bits moved");
    assert_eq!(
        report.best_epoch, best_epoch,
        "{aggregation:?} best epoch moved"
    );
    assert_eq!(
        report.best_validation_loss.to_bits(),
        best_loss,
        "{aggregation:?} best validation loss bits moved"
    );
    assert_eq!(got_params, params, "{aggregation:?} parameter bits moved");
}

#[test]
fn mean_pretraining_is_bitwise_pinned() {
    assert_pinned(
        Aggregation::Mean,
        40,
        0x7564_061e_ebb4_9ac0,
        7,
        0x3f3a_299c,
        0x6cd4_d7cb_1d8a_1c90,
    );
}

#[test]
fn attention_pretraining_is_bitwise_pinned() {
    assert_pinned(
        Aggregation::Attention,
        20,
        0x906a_c12c_0aff_47b7,
        14,
        0x3f07_72f9,
        0x2fb5_8a87_3212_29b1,
    );
}
