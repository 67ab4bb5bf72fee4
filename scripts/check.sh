#!/usr/bin/env bash
# Workspace gate: formatting, static analysis, tier-1 build + tests.
#
# Usage: scripts/check.sh
# Runs entirely offline; every step works without network access.

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

failures=0
step_names=()
step_results=()

record() {
    step_names+=("$1")
    step_results+=("$2")
}

step() {
    local name="$1"
    shift
    echo "==> $name: $*"
    local start=$SECONDS
    if "$@"; then
        echo "==> $name: ok ($((SECONDS - start)) s)"
        record "$name" "ok"
    else
        echo "==> $name: FAILED ($((SECONDS - start)) s)"
        record "$name" "FAILED"
        failures=$((failures + 1))
    fi
    echo
}

# rustfmt is optional in minimal toolchains; skip gracefully when absent.
if cargo fmt --version >/dev/null 2>&1; then
    step "fmt" cargo fmt --all --check
else
    echo "==> fmt: skipped (rustfmt not installed)"
    record "fmt" "skipped"
    echo
fi

# Lexer golden files first: every later lint result depends on the token
# stream being right.
step "lexer" cargo test --offline --quiet -p taglets-lint --test lexer_golden

# The lint's own test matrix (line metadata, rules, items, call-graph, reachability
# engine, root markers, fixture-workspace goldens, JSON contract, and the
# pin on the clippy configuration below) before the workspace scan relies
# on it.
step "lint-fixtures" cargo test --offline --quiet -p taglets-lint

step "lint" cargo run --offline --quiet -p taglets-lint -- --check --json

# What the toolchain already checks: the root Cargo.toml's
# `[workspace.lints]` table (unwrap/expect, panic macros, missing docs,
# `unsafe`, `for` loops over hash-ordered collections) and `clippy.toml`'s
# disallowed methods (wall-clock reads, thread spawning, entropy sources,
# host libm calls, hash-order iteration) and types (interior mutability,
# atomics). `--lib --bins` leaves `#[cfg(test)]` code out; any warning, an
# unfulfilled `#[expect]` included, fails the step.
step "clippy" cargo clippy --offline --workspace --lib --bins -- -D warnings

# Rustdoc over the workspace crates, broken and private intra-doc links
# included. The vendored stand-ins are not documented: they mirror upstream
# APIs, and proptest's `vec` link is ambiguous there.
step "doc" env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --exclude rand --exclude proptest

# Lint trajectory: min-of-9 per-stage wall-times plus per-rule hit counts.
# Output is discarded so a gate run never overwrites the checked-in
# BENCH_lint.json; refresh it with
#   cargo run --offline --quiet -p taglets-lint -- --bench > BENCH_lint.json
step "bench-lint" sh -c 'cargo run --offline --quiet -p taglets-lint -- --bench > /dev/null'

step "build" cargo build --offline --release

# Every package's unit, integration and golden tests: the root `cargo test`
# covers only the facade package.
step "test" cargo test --offline --quiet --workspace

# The repository benchmark is a workspace of its own, so `--workspace`
# above does not reach its tests (input generators, statistics).
step "bench-crate" cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The execution engine's core guarantee, run explicitly so a filtered or
# skipped test run can never mask a determinism regression. It is a module
# of the system test binary, which builds the test world once for all of
# its modules.
step "determinism" cargo test --offline --quiet --test system_end_to_end exec_determinism::

# Bitwise pins of training: ZSL-KG pretraining, and the SimCLR-lite and MPL
# baselines (the full system run is pinned inside `determinism` above).
# Run by name so a filtered or skipped test run can never mask a change of
# bits in the one training step every loop shares.
step "pins" sh -c 'cargo test --offline --quiet -p taglets-graph --test pretrain_pin && cargo test --offline --quiet --test system_end_to_end baselines_sanity::'

# Bits must not depend on SIMD width: the same run and baseline pins,
# built for the x86-64 baseline instead of the host CPU that
# `.cargo/config.toml` selects (RUSTFLAGS overrides it). A target directory
# of its own keeps the native build cached.
if [ "$(uname -m)" = "x86_64" ]; then
    step "portable" env CARGO_TARGET_DIR=target/portable RUSTFLAGS="-C target-cpu=x86-64" cargo test --offline --quiet --test system_end_to_end -- exec_determinism:: baselines_sanity::
else
    echo "==> portable: skipped (the native build is already the baseline off x86-64)"
    record "portable" "skipped"
    echo
fi

# SCADS selection: the batched similarity query (one GEMM per call) against
# a per-pair cosine oracle, bit for bit, and `select_related` against
# `related_concepts` per target plus its degenerate inputs. Run by name so
# a filtered or skipped test run can never mask a change of selected data.
step "selection" sh -c 'cargo test --offline --quiet -p taglets-graph --test proptests && cargo test --offline --quiet -p taglets-scads --test selection'

# Serving-engine contract (properties a–e in the test file's docs, and the
# cache replay pin), then the engine's unit tests, the prediction cache's
# reference-LRU oracle among them. Run by name so a filtered or skipped
# test run can never mask a change in what the cache answers. Proptest
# seeds are derived from test names, so this run is fixed-seed by
# construction.
step "serve" sh -c 'cargo test --offline --quiet --test serve_properties && cargo test --offline --quiet -p taglets-core --lib serve::'

step "strict-numerics" cargo test --offline --quiet -p taglets-tensor --features strict-numerics

# Kernel equivalence: the blocked GEMM kernels must be bitwise identical
# to the seed's naive reference loops.
step "kernels" cargo test --offline --quiet -p taglets-tensor --features reference-kernels --test kernels

# The workspace's own exp/ln/tanh/sin_pi/cos_pi against an f64 reference
# over all 2^32 inputs each, in release mode and on every core (several
# minutes); tier-1 runs only a strided sample. Run by name so a filtered
# or skipped test run can never mask a kernel leaving its ulp bound.
step "math" cargo test --release --offline --quiet -p taglets-tensor --test math -- --ignored

# The process's peak resident set over the smoke-scale set-up (zoo and
# ZSL-KG pretraining) and one Grocery 1-shot run, against a fixed bound:
# a buffer pool or a whole-set temporary that grows with the number of
# training steps or scored rows fails it. The `#[ignore]`d test is alone
# in its binary, since the peak belongs to the whole process, and runs in
# release mode. Run by name so a filtered or skipped run can never mask it.
step "memory" cargo test --release --offline --quiet -p taglets-eval --test peak_memory -- --ignored

# Fused-epilogue contracts: bitwise identity of the fused kernel epilogue
# against the unfused walk, of the one inference forward (`logits`,
# `predict_proba`, `features` and the packed serving path) against the
# oracle, a tape forward with `training = false` built only in the tests,
# and v1 serialization back-compat.
step "fused" cargo test --offline --quiet -p taglets-tensor -p taglets-nn -p taglets-core --lib -- fused epilogue legacy_v1

# The kernels bench asserts blocked-vs-reference and fused-vs-unfused
# bitwise identity on every timed configuration and enforces the fused
# ratio gate. Run without --json so a gate run never overwrites the
# checked-in BENCH_kernels.json baseline.
step "bench-kernels" cargo bench --offline --quiet -p taglets-bench --bench kernels

# Every bench target must compile: `cargo test --workspace` builds none of
# them, so an API change could otherwise break a paper-table bench unseen.
step "benches" cargo bench --offline --quiet --no-run -p taglets-bench

# Dynamic concurrency checks (TSan/Miri) when a capable nightly toolchain
# exists; scripts/sanitize.sh degrades to a documented skip otherwise, so
# this step only fails on real sanitizer findings.
step "sanitize" scripts/sanitize.sh

echo "check.sh step summary:"
echo "    --------------------------------"
for i in "${!step_names[@]}"; do
    printf '    %-18s %s\n' "${step_names[$i]}" "${step_results[$i]}"
done
echo "    --------------------------------"

if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all steps passed"
