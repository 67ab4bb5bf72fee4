#!/usr/bin/env bash
# Dynamic counterpart to clippy's static concurrency checks (the
# disallowed interior-mutability types) and `unsafe_code = "forbid"`:
# runs the code that spawns threads under ThreadSanitizer — the executor
# unit tests, which force 1, 2 and 4 workers whatever the host's core
# count, and the module-trait tests of taglets-core — and the executor unit
# tests under Miri, when a nightly toolchain with the required components
# is installed.
#
# Both sanitizers need nightly-only machinery the pinned stable toolchain
# cannot provide (TSan requires rebuilding std with -Zbuild-std, Miri is a
# rustup component), so every missing prerequisite degrades to a
# *documented skip* with exit 0 — the static rules remain the always-on
# gate; this script adds depth where the environment allows it. Exit 1 is
# reserved for actual test failures under a sanitizer.
#
# Usage: scripts/sanitize.sh

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

failures=0
ran_any=0

skip() {
    echo "==> sanitize: SKIPPED ($1)"
}

if ! command -v rustup >/dev/null 2>&1; then
    skip "rustup not installed; cannot locate a nightly toolchain"
    exit 0
fi

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    skip "no nightly toolchain installed (rustup toolchain install nightly)"
    exit 0
fi

host="$(rustc -vV | sed -n 's/^host: //p')"

# --- ThreadSanitizer -------------------------------------------------------
# Needs std rebuilt with the sanitizer, which needs the rust-src component.
if rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
    echo "==> sanitize: ThreadSanitizer (executor at 2 and 4 workers, module traits)"
    tsan_flags="-Zsanitizer=thread"
    if RUSTFLAGS="$tsan_flags" \
        cargo +nightly test --offline --quiet -Zbuild-std --target "$host" \
        -p taglets-tensor --lib exec:: \
        && RUSTFLAGS="$tsan_flags" \
            cargo +nightly test --offline --quiet -Zbuild-std --target "$host" \
            -p taglets-core --lib taglet::; then
        echo "==> sanitize: ThreadSanitizer ok"
    else
        echo "==> sanitize: ThreadSanitizer FAILED"
        failures=$((failures + 1))
    fi
    ran_any=1
else
    skip "ThreadSanitizer needs the nightly rust-src component (rustup component add rust-src --toolchain nightly)"
fi

# --- Miri ------------------------------------------------------------------
# Interprets the executor unit tests, catching UB scoped threads could hide.
if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "==> sanitize: Miri (executor unit tests)"
    if cargo +nightly miri test --offline -q -p taglets-tensor exec::; then
        echo "==> sanitize: Miri ok"
    else
        echo "==> sanitize: Miri FAILED"
        failures=$((failures + 1))
    fi
    ran_any=1
else
    skip "Miri not installed (rustup component add miri --toolchain nightly)"
fi

if [ "$failures" -ne 0 ]; then
    echo "sanitize.sh: $failures sanitizer run(s) failed"
    exit 1
fi
if [ "$ran_any" -eq 0 ]; then
    echo "sanitize.sh: no sanitizer available; clippy's disallowed types and unsafe_code = \"forbid\" remain the gate"
else
    echo "sanitize.sh: all sanitizer runs passed"
fi
