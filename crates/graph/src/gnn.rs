//! The graph neural network behind the ZSL-KG module (paper Sec. 3.2.4 and
//! Appendix A.5).
//!
//! ZSL-KG (Nayak & Bach 2020) generates a *class representation* for a
//! concept from its knowledge-graph neighbourhood; that vector is then
//! installed as the concept's row in a classifier head over a frozen
//! backbone. Pretraining regresses the generated representations onto the
//! head weights of a conventionally trained classifier (Eq. 9):
//!
//! ```text
//! L_Z = (1/n) Σ_i (w_i − z_i)²
//! ```
//!
//! Neighbour aggregation multiplies by the row-normalised adjacency
//! [`normalized_adjacency`], held as a [`SparseMatrix`]: each layer pays
//! for the graph's stored entries, not for all `n²` node pairs, and the
//! result is bitwise equal to the dense product.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taglets_nn::{train_step, Linear, Module};
use taglets_tensor::{Adam, AdamConfig, GradScratch, SparseMatrix, Tape, Tensor, Var};

use crate::{ConceptGraph, ConceptId};

/// How a layer aggregates neighbour representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// Uniform mean over neighbours (GCN-style; the fast default).
    #[default]
    Mean,
    /// Learned scaled-dot-product attention over the neighbourhood
    /// (TrGCN-style, as in the original ZSL-KG).
    Attention,
}

/// A two-layer neighbourhood-aggregation graph encoder.
///
/// Each layer computes `h' = tanh(h·W_self + agg(h)·W_neigh + b)` where
/// `agg` is either the row-normalised adjacency product (mean aggregation)
/// or masked scaled-dot-product attention over the neighbourhood
/// ([`Aggregation::Attention`], the TrGCN flavour of the original ZSL-KG);
/// a final linear layer maps to the output (classifier-weight) dimension.
/// The encoder runs full-graph: node features in, one representation per
/// node out.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEncoder {
    self1: Linear,
    neigh1: Linear,
    self2: Linear,
    neigh2: Linear,
    out: Linear,
    aggregation: Aggregation,
    /// Attention projections per layer (present iff `aggregation` is
    /// [`Aggregation::Attention`]).
    attn: Option<[Linear; 4]>,
}

impl GraphEncoder {
    /// Builds an encoder `in_dim → hidden → hidden → out_dim` with mean
    /// aggregation.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut R) -> Self {
        GraphEncoder::with_aggregation(in_dim, hidden, out_dim, Aggregation::Mean, rng)
    }

    /// Builds an encoder with an explicit aggregation scheme.
    pub fn with_aggregation<R: Rng + ?Sized>(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        aggregation: Aggregation,
        rng: &mut R,
    ) -> Self {
        let attn = match aggregation {
            Aggregation::Mean => None,
            Aggregation::Attention => Some([
                Linear::new(in_dim, hidden, rng), // q1
                Linear::new(in_dim, hidden, rng), // k1
                Linear::new(hidden, hidden, rng), // q2
                Linear::new(hidden, hidden, rng), // k2
            ]),
        };
        GraphEncoder {
            self1: Linear::new(in_dim, hidden, rng),
            neigh1: Linear::new(in_dim, hidden, rng),
            self2: Linear::new(hidden, hidden, rng),
            neigh2: Linear::new(hidden, hidden, rng),
            out: Linear::new(hidden, out_dim, rng),
            aggregation,
            attn,
        }
    }

    /// The aggregation scheme in use.
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Output (class-representation) dimensionality.
    pub fn output_dim(&self) -> usize {
        self.out.fan_out()
    }

    /// Input (node-feature) dimensionality.
    pub fn input_dim(&self) -> usize {
        self.self1.fan_in()
    }

    /// Forward pass over the whole graph.
    ///
    /// `x` is the `[n, in_dim]` node-feature matrix and `adj` the `n × n`
    /// row-normalised adjacency from [`normalized_adjacency`] (under
    /// attention it is only the neighbourhood mask: stored entries mark
    /// edges); returns `[n, out_dim]`.
    pub fn forward(&self, tape: &mut Tape, vars: &[Var], x: Var, adj: &SparseMatrix) -> Var {
        debug_assert_eq!(
            vars.len(),
            self.parameters().len(),
            "vars must come from this encoder's bind()"
        );
        // Keying the two code paths on `self.attn` (rather than the
        // aggregation mode plus an option dance) makes the attention
        // parameters available by construction wherever they are used.
        match &self.attn {
            None => {
                let layer =
                    |tape: &mut Tape, s: &Linear, n: &Linear, sv: &[Var], nv: &[Var], h: Var| {
                        let agg = tape.sparse_matmul(adj, h);
                        let hs = s.forward(tape, sv, h);
                        let hn = n.forward(tape, nv, agg);
                        let sum = tape.add(hs, hn);
                        tape.tanh(sum)
                    };
                let h1 = layer(tape, &self.self1, &self.neigh1, &vars[0..2], &vars[2..4], x);
                let h2 = layer(
                    tape,
                    &self.self2,
                    &self.neigh2,
                    &vars[4..6],
                    &vars[6..8],
                    h1,
                );
                self.out.forward(tape, &vars[8..10], h2)
            }
            Some([q1, k1, q2, k2]) => {
                // A constant mask with 0 on edges/diagonal and a large
                // negative value elsewhere.
                let n = adj.rows();
                let mut m = Tensor::full(&[n, n], -1e4);
                for i in 0..n {
                    m.set(i, i, 0.0);
                    for (j, _) in adj.row(i) {
                        m.set(i, j, 0.0);
                    }
                }
                let mask = tape.constant(m);

                let aggregate =
                    |tape: &mut Tape, h: Var, qw: &Linear, kw: &Linear, qv: &[Var], kv: &[Var]| {
                        let q = qw.forward(tape, qv, h);
                        let k = kw.forward(tape, kv, h);
                        let scores = tape.matmul_nt(q, k);
                        let scaled = tape.scale(scores, 1.0 / (qw.fan_out() as f32).sqrt());
                        let masked = tape.add(scaled, mask);
                        let lp = tape.log_softmax(masked);
                        let att = tape.exp(lp);
                        tape.matmul(att, h)
                    };

                // Binding order: self1, neigh1, self2, neigh2, out, q1, k1, q2, k2.
                let agg1 = aggregate(tape, x, q1, k1, &vars[10..12], &vars[12..14]);
                let hs1 = self.self1.forward(tape, &vars[0..2], x);
                let hn1 = self.neigh1.forward(tape, &vars[2..4], agg1);
                let sum1 = tape.add(hs1, hn1);
                let h1 = tape.tanh(sum1);

                let agg2 = aggregate(tape, h1, q2, k2, &vars[14..16], &vars[16..18]);
                let hs2 = self.self2.forward(tape, &vars[4..6], h1);
                let hn2 = self.neigh2.forward(tape, &vars[6..8], agg2);
                let sum2 = tape.add(hs2, hn2);
                let h2 = tape.tanh(sum2);
                self.out.forward(tape, &vars[8..10], h2)
            }
        }
    }

    /// Inference: class representations for every node.
    pub fn encode(&self, features: &Tensor, adj: &SparseMatrix) -> Tensor {
        let mut tape = Tape::new();
        let vars = self.bind_frozen(&mut tape);
        let xv = tape.constant(features.clone());
        let out = self.forward(&mut tape, &vars, xv, adj);
        tape.value(out).clone()
    }
}

impl Module for GraphEncoder {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p: Vec<&Tensor> = [
            &self.self1,
            &self.neigh1,
            &self.self2,
            &self.neigh2,
            &self.out,
        ]
        .iter()
        .flat_map(|l| l.parameters())
        .collect();
        if let Some(attn) = &self.attn {
            for l in attn {
                p.extend(l.parameters());
            }
        }
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let GraphEncoder {
            self1,
            neigh1,
            self2,
            neigh2,
            out,
            attn,
            ..
        } = self;
        let mut p = self1.parameters_mut();
        p.extend(neigh1.parameters_mut());
        p.extend(self2.parameters_mut());
        p.extend(neigh2.parameters_mut());
        p.extend(out.parameters_mut());
        if let Some(attn) = attn {
            for l in attn {
                p.extend(l.parameters_mut());
            }
        }
        p
    }
}

/// Row-normalised sparse adjacency of a graph: `Â_ij = 1/deg(i)` for each
/// neighbour `j`, and a self-loop of `1.0` on isolated nodes so aggregation
/// is well-defined. Neighbour lists are in edge-insertion order;
/// [`SparseMatrix::from_rows`] sorts each row by column.
pub fn normalized_adjacency(graph: &ConceptGraph) -> SparseMatrix {
    let rows = graph
        .concepts()
        .map(|id| {
            let edges = graph.neighbors(id);
            if edges.is_empty() {
                return vec![(id.0, 1.0)];
            }
            let w = 1.0 / edges.len() as f32;
            edges.iter().map(|e| (e.to.0, w)).collect()
        })
        .collect();
    SparseMatrix::from_rows(graph.len(), rows)
}

/// Configuration for [`pretrain_encoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct GnnPretrainConfig {
    /// Training epochs; each is one full-graph forward and one backward.
    pub epochs: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Adam weight decay (paper: 5e-4).
    pub weight_decay: f32,
    /// Fraction of training classes held out for checkpoint selection
    /// (paper: 50 of 1000); at least one class is held out whenever there
    /// are two or more.
    pub validation_fraction: f32,
    /// Seed for the train/validation split.
    pub seed: u64,
}

impl Default for GnnPretrainConfig {
    fn default() -> Self {
        GnnPretrainConfig {
            epochs: 120,
            lr: 1e-3,
            weight_decay: 5e-4,
            validation_fraction: 0.05,
            seed: 0,
        }
    }
}

/// Telemetry from [`pretrain_encoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct GnnPretrainReport {
    /// Validation loss of the selected checkpoint (`f32::INFINITY` when
    /// nothing was held out or no epoch ran).
    pub best_validation_loss: f32,
    /// Epoch (1-based) at which the best checkpoint was observed (the
    /// final epoch when nothing was held out; `0` when no epoch ran).
    pub best_epoch: usize,
    /// Training loss per epoch.
    pub train_losses: Vec<f32>,
}

/// Pretrains `encoder` to regress node representations onto the given
/// classifier weights (paper Eq. 9), selecting the checkpoint with the least
/// loss on a held-out class split.
///
/// `targets` pairs concept ids with their target weight vectors (rows of a
/// pretrained classifier head, one per training class); `adj` is the
/// graph's [`normalized_adjacency`].
///
/// Each epoch runs one tape forward over the whole graph, then one backward
/// and one Adam step. That forward computes the representations of the
/// parameters the previous step produced, so it also scores the previous
/// epoch's checkpoint on the held-out classes; one frozen forward after the
/// loop scores the final epoch.
///
/// With fewer than two targets nothing can be held out: every target
/// trains, the final epoch is kept, and the report carries
/// `best_validation_loss = f32::INFINITY` with `best_epoch = cfg.epochs`.
///
/// # Panics
///
/// Panics if `targets` is empty or a target's length differs from the
/// encoder's output dimension.
pub fn pretrain_encoder(
    encoder: &mut GraphEncoder,
    features: &Tensor,
    adj: &SparseMatrix,
    targets: &[(ConceptId, Vec<f32>)],
    cfg: &GnnPretrainConfig,
) -> GnnPretrainReport {
    assert!(
        !targets.is_empty(),
        "ZSL-KG pretraining needs target classes"
    );
    assert!(
        targets.iter().all(|(_, w)| w.len() == encoder.output_dim()),
        "target width must equal encoder output dim"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Split classes into train/validation; a single class cannot be split.
    let mut order: Vec<usize> = (0..targets.len()).collect();
    use rand::seq::SliceRandom;
    order.shuffle(&mut rng);
    let n_val = if targets.len() < 2 {
        0
    } else {
        ((targets.len() as f32 * cfg.validation_fraction).round() as usize)
            .clamp(1, targets.len() - 1)
    };
    let (val_idx, train_idx) = order.split_at(n_val);

    let collect = |idx: &[usize]| -> (Vec<usize>, Tensor) {
        let ids: Vec<usize> = idx.iter().map(|&i| targets[i].0 .0).collect();
        let rows: Vec<Vec<f32>> = idx.iter().map(|&i| targets[i].1.clone()).collect();
        (ids, Tensor::stack_rows(&rows))
    };
    let (train_ids, train_targets) = collect(train_idx);
    let validation = (!val_idx.is_empty()).then(|| collect(val_idx));

    let mut opt = Adam::new(AdamConfig {
        lr: cfg.lr,
        weight_decay: cfg.weight_decay,
        ..AdamConfig::default()
    });

    // Scores the encoder's current parameters — those `epoch` produced —
    // from their full-graph output `z`, snapshotting them if they beat
    // every earlier epoch on the held-out classes.
    let mut best: Option<(f32, usize, Vec<Tensor>)> = None;
    let mut score = |z: &Tensor, epoch: usize, encoder: &GraphEncoder| {
        let Some((val_ids, val_targets)) = &validation else {
            return;
        };
        let z_val = z.gather_rows(val_ids);
        let val_loss = z_val.sub(val_targets).map(|v| v * v).mean();
        if best.as_ref().is_none_or(|(b, _, _)| val_loss < *b) {
            let snapshot = encoder.parameters().into_iter().cloned().collect();
            best = Some((val_loss, epoch, snapshot));
        }
    };

    let mut scratch = GradScratch::new();
    let mut train_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 1..=cfg.epochs {
        let loss = train_step(
            encoder,
            &mut opt,
            None,
            &mut scratch,
            |encoder, tape, vars| {
                let xv = tape.constant(features.clone());
                let z = encoder.forward(tape, vars, xv, adj);
                if epoch > 1 {
                    score(tape.value(z), epoch - 1, encoder);
                }
                let z_train = tape.gather_rows(z, &train_ids);
                tape.mse(z_train, &train_targets)
            },
        );
        train_losses.push(loss);
    }
    if cfg.epochs > 0 && validation.is_some() {
        score(&encoder.encode(features, adj), cfg.epochs, encoder);
    }

    // No held-out classes, or zero configured epochs: keep the parameters
    // as they are and report a degenerate selection.
    let Some((best_validation_loss, best_epoch, snapshot)) = best else {
        return GnnPretrainReport {
            best_validation_loss: f32::INFINITY,
            best_epoch: cfg.epochs,
            train_losses,
        };
    };
    for (param, saved) in encoder.parameters_mut().into_iter().zip(snapshot) {
        *param = saved;
    }
    GnnPretrainReport {
        best_validation_loss,
        best_epoch,
        train_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthetic, SyntheticGraphConfig};

    fn tiny_graph() -> synthetic::SyntheticGraph {
        synthetic::generate(&SyntheticGraphConfig {
            num_concepts: 60,
            semantic_dim: 8,
            ..SyntheticGraphConfig::default()
        })
    }

    #[test]
    fn normalized_adjacency_rows_sum_to_one() {
        let s = tiny_graph();
        let a = normalized_adjacency(&s.graph);
        for i in 0..a.rows() {
            let sum: f32 = a.row(i).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-5, "row sum {sum}");
        }
    }

    #[test]
    fn isolated_nodes_keep_a_self_loop() {
        let mut g = ConceptGraph::new();
        for name in ["a", "b", "c"] {
            g.add_concept(name);
        }
        g.add_edge(ConceptId(2), ConceptId(0), crate::Relation::RelatedTo);
        let a = normalized_adjacency(&g);
        assert_eq!(a.row(0).collect::<Vec<_>>(), vec![(2, 1.0)]);
        assert_eq!(a.row(1).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert_eq!(a.row(2).collect::<Vec<_>>(), vec![(0, 1.0)]);
    }

    #[test]
    fn a_single_target_class_trains_without_a_validation_split() {
        let s = tiny_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let mut enc = GraphEncoder::new(8, 16, 4, &mut rng);
        let a = normalized_adjacency(&s.graph);
        let targets = vec![(ConceptId(3), vec![0.5, -0.25, 0.125, 1.0])];
        let cfg = GnnPretrainConfig {
            epochs: 5,
            ..GnnPretrainConfig::default()
        };
        let before = enc.clone();
        let report = pretrain_encoder(&mut enc, s.word_vectors.matrix(), &a, &targets, &cfg);
        assert_eq!(report.train_losses.len(), 5);
        assert_eq!(report.best_epoch, 5);
        assert_eq!(report.best_validation_loss, f32::INFINITY);
        assert_ne!(enc, before, "the final epoch's parameters are kept");
    }

    #[test]
    fn encoder_output_shape() {
        let s = tiny_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = GraphEncoder::new(8, 16, 5, &mut rng);
        let a = normalized_adjacency(&s.graph);
        let z = enc.encode(s.word_vectors.matrix(), &a);
        assert_eq!(z.shape(), &[60, 5]);
    }

    #[test]
    fn pretraining_reduces_loss_and_restores_best_checkpoint() {
        let s = tiny_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let mut enc = GraphEncoder::new(8, 16, 4, &mut rng);
        let a = normalized_adjacency(&s.graph);
        // Learnable targets: a fixed linear function of the true semantics.
        let proj = Tensor::randn(&[8, 4], 0.5, &mut rng);
        let targets: Vec<(ConceptId, Vec<f32>)> = (0..40)
            .map(|i| {
                let id = ConceptId(i);
                let f = Tensor::from_slice(s.semantics.get(id)).reshaped(&[1, 8]);
                (id, f.matmul(&proj).into_vec())
            })
            .collect();
        let cfg = GnnPretrainConfig {
            epochs: 60,
            ..GnnPretrainConfig::default()
        };
        let report = pretrain_encoder(&mut enc, s.word_vectors.matrix(), &a, &targets, &cfg);
        assert!(
            report.train_losses.last().unwrap() < &report.train_losses[0],
            "loss must decrease: {:?}",
            &report.train_losses[..3]
        );
        assert!(report.best_epoch >= 1 && report.best_epoch <= 60);
        assert!(report.best_validation_loss.is_finite());
    }

    #[test]
    fn attention_encoder_runs_and_differs_from_mean() {
        let s = tiny_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let mean_enc = GraphEncoder::new(8, 16, 4, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(5);
        let attn_enc = GraphEncoder::with_aggregation(8, 16, 4, Aggregation::Attention, &mut rng2);
        let a = normalized_adjacency(&s.graph);
        let zm = mean_enc.encode(s.word_vectors.matrix(), &a);
        let za = attn_enc.encode(s.word_vectors.matrix(), &a);
        assert_eq!(zm.shape(), za.shape());
        assert_ne!(zm, za, "attention must change the computation");
        assert_eq!(attn_enc.parameters().len(), 18);
    }

    #[test]
    fn attention_encoder_pretrains() {
        let s = tiny_graph();
        let mut rng = StdRng::seed_from_u64(6);
        let mut enc = GraphEncoder::with_aggregation(8, 16, 4, Aggregation::Attention, &mut rng);
        let a = normalized_adjacency(&s.graph);
        let proj = Tensor::randn(&[8, 4], 0.5, &mut rng);
        let targets: Vec<(ConceptId, Vec<f32>)> = (0..30)
            .map(|i| {
                let id = ConceptId(i);
                let f = Tensor::from_slice(s.semantics.get(id)).reshaped(&[1, 8]);
                (id, f.matmul(&proj).into_vec())
            })
            .collect();
        let cfg = GnnPretrainConfig {
            epochs: 25,
            ..GnnPretrainConfig::default()
        };
        let report = pretrain_encoder(&mut enc, s.word_vectors.matrix(), &a, &targets, &cfg);
        assert!(
            report.train_losses.last().unwrap() < &report.train_losses[0],
            "attention GNN must learn"
        );
    }

    #[test]
    fn encoder_parameter_count_is_stable() {
        let mut rng = StdRng::seed_from_u64(2);
        let enc = GraphEncoder::new(8, 16, 4, &mut rng);
        assert_eq!(enc.parameters().len(), 10);
        let scalars = 2 * (8 * 16 + 16) + 2 * (16 * 16 + 16) + (16 * 4 + 4);
        assert_eq!(enc.num_scalars(), scalars);
    }
}
