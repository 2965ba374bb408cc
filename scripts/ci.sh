#!/usr/bin/env bash
# CI gate: formatting, lints, docs, vendored-dependency audit, build,
# tests, and (optionally) a chaos soak.
#
# Usage: scripts/ci.sh [--no-test] [--soak] [--help]
#
#   --no-test      skip the test suite and bench smoke run (lints, the
#                  vendored audit with the compat stubs' tests, build)
#   --soak         run ~60 s (SOAK_SECONDS overrides) of seeded chaos
#                  load generation against the arbiter daemon: every run
#                  drives clean/overload/hostile/crash/sharded scenarios
#                  — lossy+partitioned wires and one kill-9/snapshot
#                  restore each — under a fresh seed. Fails on any
#                  panic, deadlock (via timeout), or Σ-grants>budget /
#                  hold-last-grant breach (the table's invariant
#                  column). The seeded 4-shard crash-run replay runs in
#                  the test suite (crates/core/tests/golden.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
}

run_tests=1
soak=0
for arg in "$@"; do
    case "$arg" in
    --no-test) run_tests=0 ;;
    --soak) soak=1 ;;
    -h | --help)
        usage
        exit 0
        ;;
    *)
        echo "ci.sh: unknown argument '$arg'" >&2
        echo >&2
        usage >&2
        exit 2
        ;;
    esac
done

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --features rapl -D warnings"
# The Linux RAPL backend is feature-gated (it needs a privileged host to
# *construct*, but must always *compile*); lint it in the same gate.
cargo clippy -p simnode --features rapl --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== vendored-dependency audit"
scripts/check_vendored.sh

echo "== cargo build --release"
cargo build --workspace --release

if [[ "$run_tests" -eq 1 ]]; then
    echo "== cargo test"
    # Includes crates/core/tests/golden.rs: `repro all --quick` diffed
    # against tests/golden/all_quick, and `repro sched --quick --seed 11`
    # and `repro loadgen --quick --shards 4 --seed 7` each replayed twice
    # and diffed, all bit for bit.
    cargo test --workspace --release -q
    echo "== cargo test (dev profile)"
    # The release run above compiles out `debug_assert!`; this one keeps
    # the debug assertions on (the default members, as tier-1 runs them).
    cargo test -q
    echo "== cargo test -p simnode --features rapl"
    # The rapl feature's probe path degrades to MsrError::Unsupported on
    # machines without /dev/cpu/*/msr, so this runs anywhere.
    cargo test -p simnode --release --features rapl -q
    echo "== powerbench tests"
    # powerbench is a package of its own (its Cargo.toml has an empty
    # [workspace] table), so `cargo test --workspace` never compiles it:
    # an API change that breaks the benchmark would otherwise surface
    # only when the benchmark runs. This also smoke-runs all four
    # workloads through their correctness gates.
    cargo test --offline --manifest-path powerbench/Cargo.toml
    echo "== micro benches (test mode)"
    # Runs each of the `micro` hot-path benches once, untimed, so a
    # change that breaks one fails here. Timing claims go through
    # powerbench; the paper's artefacts are checked by the golden CSVs.
    cargo bench -q -p powerprog-bench -- --test
fi

if [[ "$soak" -eq 1 ]]; then
    budget="${SOAK_SECONDS:-60}"
    cargo build -q --release -p powerprog-core

    echo "== soak (${budget} s of seeded chaos loadgen)"
    deadline=$((SECONDS + budget))
    seed=1
    while ((SECONDS < deadline)); do
        # timeout converts a deadlocked run into a hard failure; a panic
        # already exits nonzero on its own.
        out="$(timeout 120 target/release/repro loadgen --seed "$seed")" || {
            echo "ci.sh: soak run with seed $seed panicked, hung, or failed" >&2
            exit 1
        }
        if grep -q "VIOLATED" <<<"$out"; then
            echo "ci.sh: soak run with seed $seed breached an invariant" >&2
            echo "$out" >&2
            exit 1
        fi
        seed=$((seed + 1))
    done
    echo "soak passed: $((seed - 1)) chaos runs, every invariant held"
fi

echo "CI gate passed."
