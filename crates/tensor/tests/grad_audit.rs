//! Gradient-audit sweep: one table-driven test that runs a finite-difference
//! check for every differentiable op a [`Tape`] can record.
//!
//! The table is cross-checked against [`Tape::op_catalog`] (generated from
//! the op declaration itself), so declaring a new op without adding an audit
//! entry here fails this test rather than shipping unchecked.

use rand::{rngs::StdRng, SeedableRng};
use taglets_tensor::{check_gradients, softmax_rows, GradCheckReport, SparseMatrix, Tape, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Tape inputs: they receive gradients but have no backward rule of their own.
const NON_DIFFERENTIABLE: &[&str] = &["Leaf", "Constant"];

struct AuditEntry {
    op: &'static str,
    run: fn() -> GradCheckReport,
}

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, 0.7, &mut rng)
}

fn audit_table() -> Vec<AuditEntry> {
    vec![
        AuditEntry {
            op: "MatMul",
            run: || {
                let x = randn(&[4, 3], 2);
                check_gradients(&randn(&[3, 2], 1), EPS, move |value| {
                    let mut tape = Tape::new();
                    let xv = tape.constant(x.clone());
                    let wv = tape.leaf(value.clone());
                    let y = tape.matmul(xv, wv);
                    let loss = tape.mean(y);
                    (tape, wv, loss)
                })
            },
        },
        AuditEntry {
            op: "MatMulNt",
            run: || {
                let b = randn(&[5, 4], 4);
                check_gradients(&randn(&[3, 4], 3), EPS, move |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let bv = tape.constant(b.clone());
                    let y = tape.matmul_nt(av, bv);
                    let loss = tape.mean(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "SparseMatMul",
            run: || {
                // A row-normalised adjacency with an isolated node's
                // self-loop, the shape of a graph layer's aggregation.
                let a = SparseMatrix::from_rows(
                    4,
                    vec![
                        vec![(2, 0.5), (1, 0.5)],
                        vec![(0, 1.0)],
                        vec![(3, 1.0 / 3.0), (0, 1.0 / 3.0), (1, 1.0 / 3.0)],
                        vec![(3, 1.0)],
                    ],
                );
                check_gradients(&randn(&[4, 3], 29), EPS, move |value| {
                    let mut tape = Tape::new();
                    let hv = tape.leaf(value.clone());
                    let y = tape.sparse_matmul(&a, hv);
                    let y = tape.tanh(y);
                    let loss = tape.mean(y);
                    (tape, hv, loss)
                })
            },
        },
        AuditEntry {
            op: "Add",
            run: || {
                let b = randn(&[2, 3], 6);
                check_gradients(&randn(&[2, 3], 5), EPS, move |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let bv = tape.constant(b.clone());
                    let y = tape.add(av, bv);
                    let loss = tape.sum(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "AddRow",
            run: || {
                let x = randn(&[3, 4], 8);
                check_gradients(&randn(&[4], 7), EPS, move |value| {
                    let mut tape = Tape::new();
                    let xv = tape.constant(x.clone());
                    let bv = tape.leaf(value.clone());
                    let y = tape.add_row(xv, bv);
                    let loss = tape.sum(y);
                    (tape, bv, loss)
                })
            },
        },
        AuditEntry {
            op: "Sub",
            run: || {
                let b = randn(&[2, 3], 10);
                check_gradients(&randn(&[2, 3], 9), EPS, move |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let bv = tape.constant(b.clone());
                    let y = tape.sub(av, bv);
                    let loss = tape.mean(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Mul",
            run: || {
                let b = randn(&[2, 3], 12);
                check_gradients(&randn(&[2, 3], 11), EPS, move |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let bv = tape.constant(b.clone());
                    let y = tape.mul(av, bv);
                    let loss = tape.sum(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Scale",
            run: || {
                check_gradients(&randn(&[3, 3], 13), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let y = tape.scale(av, 0.7);
                    let loss = tape.sum(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Relu",
            run: || {
                // Values kept away from the kink at zero, where finite
                // differences and the subgradient legitimately disagree.
                let p = Tensor::from_vec(vec![0.4, -0.6, 1.3, -1.1, 0.8, -0.3]);
                check_gradients(&p, 1e-3, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone().reshaped(&[2, 3]));
                    let y = tape.relu(av);
                    let loss = tape.sum(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Tanh",
            run: || {
                check_gradients(&randn(&[2, 4], 14), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let y = tape.tanh(av);
                    let loss = tape.mean(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "LogSoftmax",
            run: || {
                check_gradients(&randn(&[3, 4], 15), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let y = tape.log_softmax(av);
                    let loss = tape.mean(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Dropout",
            run: || {
                // A fixed rng seed per rebuild keeps the mask identical across
                // the perturbed forward passes, so the function stays smooth.
                check_gradients(&randn(&[4, 6], 16), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let mut rng = StdRng::seed_from_u64(99);
                    let y = tape.dropout(av, 0.4, true, &mut rng);
                    let loss = tape.sum(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "RowNormalize",
            run: || {
                let probe = randn(&[3, 5], 18);
                check_gradients(&randn(&[3, 5], 17), 1e-3, move |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let y = tape.row_normalize(av);
                    let pv = tape.constant(probe.clone());
                    let prod = tape.mul(y, pv);
                    let loss = tape.sum(prod);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Mean",
            run: || {
                check_gradients(&randn(&[3, 4], 19), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let loss = tape.mean(av);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Sum",
            run: || {
                check_gradients(&randn(&[3, 4], 20), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let loss = tape.sum(av);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "NllHard",
            run: || {
                check_gradients(&randn(&[5, 4], 21), EPS, |value| {
                    let mut tape = Tape::new();
                    let lv = tape.leaf(value.clone());
                    let loss = tape.softmax_cross_entropy(lv, &[0, 1, 2, 3, 1]);
                    (tape, lv, loss)
                })
            },
        },
        AuditEntry {
            op: "NllSoft",
            run: || {
                let targets = softmax_rows(&randn(&[4, 3], 23));
                check_gradients(&randn(&[4, 3], 22), EPS, move |value| {
                    let mut tape = Tape::new();
                    let lv = tape.leaf(value.clone());
                    let loss = tape.soft_cross_entropy(lv, &targets);
                    (tape, lv, loss)
                })
            },
        },
        AuditEntry {
            op: "NllWeighted",
            run: || {
                check_gradients(&randn(&[4, 3], 24), EPS, |value| {
                    let mut tape = Tape::new();
                    let lv = tape.leaf(value.clone());
                    let lp = tape.log_softmax(lv);
                    let loss = tape.nll_weighted(lp, &[2, 0, 1, 2], &[1.0, 0.0, 1.0, 0.5]);
                    (tape, lv, loss)
                })
            },
        },
        AuditEntry {
            op: "Mse",
            run: || {
                let target = randn(&[3, 3], 26);
                check_gradients(&randn(&[3, 3], 25), EPS, move |value| {
                    let mut tape = Tape::new();
                    let pv = tape.leaf(value.clone());
                    let loss = tape.mse(pv, &target);
                    (tape, pv, loss)
                })
            },
        },
        AuditEntry {
            op: "GatherRows",
            run: || {
                check_gradients(&randn(&[4, 3], 27), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let y = tape.gather_rows(av, &[0, 2, 2, 1]);
                    let loss = tape.sum(y);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Exp",
            run: || {
                check_gradients(&randn(&[3, 4], 28), 1e-3, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let y = tape.exp(av);
                    let loss = tape.mean(y);
                    (tape, av, loss)
                })
            },
        },
    ]
}

#[test]
fn gradient_audit_covers_and_validates_every_op() {
    let table = audit_table();
    let catalog = Tape::op_catalog();

    // Coverage: every declared op is either a tape input or audited exactly
    // once, and every audit entry names a real op (guards against typos and
    // against renamed variants leaving stale entries behind).
    for &op in catalog {
        if NON_DIFFERENTIABLE.contains(&op) {
            assert!(
                table.iter().all(|e| e.op != op),
                "op `{op}` is declared non-differentiable but has an audit entry"
            );
            continue;
        }
        let entries = table.iter().filter(|e| e.op == op).count();
        assert_eq!(
            entries,
            1,
            "differentiable op `{op}` must have exactly one gradient-audit \
             entry (found {entries}); add one to audit_table() in {}",
            file!()
        );
    }
    for entry in &table {
        assert!(
            catalog.contains(&entry.op),
            "audit entry `{}` does not match any declared Tape op",
            entry.op
        );
    }

    // Validation: every audited op's analytic gradient matches central
    // finite differences.
    for entry in &table {
        let report = (entry.run)();
        assert!(
            report.passes(TOL),
            "gradient check failed for op `{}`: {report:?}",
            entry.op
        );
    }
}
