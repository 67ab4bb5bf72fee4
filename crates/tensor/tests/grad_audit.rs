//! Gradient-audit sweep: one table of small tapes, one per differentiable op
//! a [`Tape`] can record, driving two table-wide tests: a finite-difference
//! check of every op's gradient, and a pool-balance check of every op's
//! backward pass against a reused [`GradScratch`].
//!
//! The table is cross-checked against [`Tape::op_catalog`] (generated from
//! the op declaration itself), so declaring a new op without adding an audit
//! entry here fails this test rather than shipping unchecked.

use rand::{rngs::StdRng, SeedableRng};
use taglets_tensor::{check_gradients, softmax_rows, GradScratch, SparseMatrix, Tape, Tensor, Var};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Tape inputs: they receive gradients but have no backward rule of their own.
const NON_DIFFERENTIABLE: &[&str] = &["Leaf", "Constant"];

/// Records one tape at a parameter value: `(tape, parameter var, loss)`.
type Build = Box<dyn Fn(&Tensor) -> (Tape, Var, Var)>;

struct AuditEntry {
    op: &'static str,
    case: fn() -> Case,
}

/// One audited tape: the parameter value it is checked at, the
/// finite-difference step, and the builder that records the tape.
struct Case {
    param: Tensor,
    eps: f32,
    build: Build,
}

impl Case {
    fn new(
        param: &Tensor,
        eps: f32,
        build: impl Fn(&Tensor) -> (Tape, Var, Var) + 'static,
    ) -> Case {
        Case {
            param: param.clone(),
            eps,
            build: Box::new(build),
        }
    }
}

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, 0.7, &mut rng)
}

fn audit_table() -> Vec<AuditEntry> {
    vec![
        AuditEntry {
            op: "MatMul",
            case: || {
                let x = randn(&[4, 3], 2);
                Case::new(&randn(&[3, 2], 1), EPS, move |value| {
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
            case: || {
                let b = randn(&[5, 4], 4);
                Case::new(&randn(&[3, 4], 3), EPS, move |value| {
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
            case: || {
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
                Case::new(&randn(&[4, 3], 29), EPS, move |value| {
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
            case: || {
                let b = randn(&[2, 3], 6);
                Case::new(&randn(&[2, 3], 5), EPS, move |value| {
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
            case: || {
                let x = randn(&[3, 4], 8);
                Case::new(&randn(&[4], 7), EPS, move |value| {
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
            case: || {
                let b = randn(&[2, 3], 10);
                Case::new(&randn(&[2, 3], 9), EPS, move |value| {
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
            case: || {
                let b = randn(&[2, 3], 12);
                Case::new(&randn(&[2, 3], 11), EPS, move |value| {
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
            case: || {
                Case::new(&randn(&[3, 3], 13), EPS, |value| {
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
            case: || {
                // Values kept away from the kink at zero, where finite
                // differences and the subgradient legitimately disagree.
                let p = Tensor::from_vec(vec![0.4, -0.6, 1.3, -1.1, 0.8, -0.3]);
                Case::new(&p, 1e-3, |value| {
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
            case: || {
                Case::new(&randn(&[2, 4], 14), EPS, |value| {
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
            case: || {
                Case::new(&randn(&[3, 4], 15), EPS, |value| {
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
            case: || {
                // A fixed rng seed per rebuild keeps the mask identical across
                // the perturbed forward passes, so the function stays smooth.
                Case::new(&randn(&[4, 6], 16), EPS, |value| {
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
            case: || {
                let probe = randn(&[3, 5], 18);
                Case::new(&randn(&[3, 5], 17), 1e-3, move |value| {
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
            case: || {
                Case::new(&randn(&[3, 4], 19), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let loss = tape.mean(av);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "Sum",
            case: || {
                Case::new(&randn(&[3, 4], 20), EPS, |value| {
                    let mut tape = Tape::new();
                    let av = tape.leaf(value.clone());
                    let loss = tape.sum(av);
                    (tape, av, loss)
                })
            },
        },
        AuditEntry {
            op: "NllHard",
            case: || {
                Case::new(&randn(&[5, 4], 21), EPS, |value| {
                    let mut tape = Tape::new();
                    let lv = tape.leaf(value.clone());
                    let loss = tape.softmax_cross_entropy(lv, &[0, 1, 2, 3, 1]);
                    (tape, lv, loss)
                })
            },
        },
        AuditEntry {
            op: "NllSoft",
            case: || {
                let targets = softmax_rows(&randn(&[4, 3], 23));
                Case::new(&randn(&[4, 3], 22), EPS, move |value| {
                    let mut tape = Tape::new();
                    let lv = tape.leaf(value.clone());
                    let loss = tape.soft_cross_entropy(lv, &targets);
                    (tape, lv, loss)
                })
            },
        },
        AuditEntry {
            op: "NllWeighted",
            case: || {
                Case::new(&randn(&[4, 3], 24), EPS, |value| {
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
            case: || {
                let target = randn(&[3, 3], 26);
                Case::new(&randn(&[3, 3], 25), EPS, move |value| {
                    let mut tape = Tape::new();
                    let pv = tape.leaf(value.clone());
                    let loss = tape.mse(pv, &target);
                    (tape, pv, loss)
                })
            },
        },
        AuditEntry {
            op: "GatherRows",
            case: || {
                Case::new(&randn(&[4, 3], 27), EPS, |value| {
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
            case: || {
                Case::new(&randn(&[3, 4], 28), 1e-3, |value| {
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
        let case = (entry.case)();
        let report = check_gradients(&case.param, case.eps, &case.build);
        assert!(
            report.passes(TOL),
            "gradient check failed for op `{}`: {report:?}",
            entry.op
        );
    }
}

/// A training loop keeps one `GradScratch` across steps and returns every
/// gradient buffer to it after the optimizer step. For the loop to allocate
/// nothing after its first step, every buffer a backward pass hands back
/// must have been drawn from the pool: then the pool's size is the same
/// after every pass. A buffer made outside the pool (the loss seed, say)
/// grows the pool by one per step, and a buffer dropped shrinks it.
#[test]
fn backward_pass_returns_exactly_what_it_draws_from_the_pool() {
    let mut unbalanced = Vec::new();
    for entry in audit_table() {
        let case = (entry.case)();
        let (tape, _, loss) = (case.build)(&case.param);
        let mut scratch = GradScratch::new();
        let mut sizes = Vec::new();
        for _ in 0..4 {
            let grads = tape.backward_with(loss, &mut scratch);
            scratch.recycle(grads);
            sizes.push(scratch.pooled());
        }
        if sizes.iter().any(|&n| n != sizes[0]) {
            unbalanced.push((entry.op, sizes));
        }
    }
    assert!(
        unbalanced.is_empty(),
        "pooled buffers after each backward pass must stay constant: {unbalanced:?}"
    );
}
