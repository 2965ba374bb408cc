#!/usr/bin/env bash
# CI gate: formatting, lints, docs, vendored-dependency audit, build,
# tests, and (optionally) the bench-regression check.
#
# Usage: scripts/ci.sh [--no-test] [--bench-check] [--soak] [--help]
#
#   --no-test      skip the test suite and bench smoke run (lints+build)
#   --soak         run ~60 s (SOAK_SECONDS overrides) of seeded chaos
#                  load generation against the arbiter daemon: every run
#                  drives clean/overload/hostile/crash/sharded scenarios
#                  — lossy+partitioned wires and one kill-9/snapshot
#                  restore each — under a fresh seed. Fails on any
#                  panic, deadlock (via timeout), or Σ-grants>budget /
#                  hold-last-grant breach (the table's invariant
#                  column). Also runs the shard-soak step: one seeded
#                  4-shard chaos run (one daemon kill-9'd and restored
#                  mid-run) executed twice and diffed bit for bit — the
#                  sum_fp column carries the whole machine-wide Σ-grants
#                  trace, so the diff catches any nondeterminism in the
#                  sharded path.
#   --bench-check  additionally compare fresh cluster-bench minima
#                  against the committed BENCH_cluster.json baseline and
#                  fail on regressions beyond BENCH_TOLERANCE (default
#                  0.5 = 50 %). Minima (not medians): a real regression
#                  slows every sample, while background load only
#                  inflates some — min-of-samples is the load-robust
#                  estimator now that the macro-step fast path has the
#                  benches down in the single-digit-ms range. The
#                  generous default is deliberate: on shared or
#                  virtualized runners wall-clock varies 1.5x run to
#                  run, and the gate's job is catching the
#                  order-of-magnitude regression class (losing the
#                  macro-step win), not 10 % drifts.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
}

run_tests=1
bench_check=0
soak=0
for arg in "$@"; do
    case "$arg" in
    --no-test) run_tests=0 ;;
    --bench-check) bench_check=1 ;;
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
    # replayed twice and diffed, both bit for bit.
    cargo test --workspace --release -q
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
    echo "== cluster bench (test mode)"
    cargo bench -q -p powerprog-bench --bench cluster -- --test
    echo "== micro bench (test mode)"
    # Runs each micro bench once, the node's macro-step benches included.
    cargo bench -q -p powerprog-bench --bench micro -- --test
fi

if [[ "$soak" -eq 1 ]]; then
    budget="${SOAK_SECONDS:-60}"
    cargo build -q --release -p powerprog-core

    echo "== shard-soak (seeded 4-shard crash run, replayed and diffed bit for bit)"
    shard_a="$(mktemp -d)"
    shard_b="$(mktemp -d)"
    for dir in "$shard_a" "$shard_b"; do
        timeout 120 target/release/repro loadgen --quick --shards 4 --seed 7 --out "$dir" >/dev/null || {
            echo "ci.sh: shard-soak run panicked, hung, or failed" >&2
            exit 1
        }
    done
    if grep -q "VIOLATED" "$shard_a/loadgen.csv"; then
        echo "ci.sh: shard-soak breached an invariant" >&2
        cat "$shard_a/loadgen.csv" >&2
        exit 1
    fi
    # The CSV's sum_fp column fingerprints every tick's machine-wide
    # Σ grants, so this diff is a bit-for-bit replay check of the whole
    # sharded crash/recovery run, not just its summary counters.
    diff -r "$shard_a" "$shard_b" || {
        echo "ci.sh: sharded loadgen is not deterministic under a fixed seed" >&2
        exit 1
    }
    rm -rf "$shard_a" "$shard_b"

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

if [[ "$bench_check" -eq 1 ]]; then
    echo "== bench-regression check (tolerance ${BENCH_TOLERANCE:-0.5})"
    baseline="BENCH_cluster.json"
    if [[ ! -f "$baseline" ]]; then
        echo "ci.sh: missing $baseline — run scripts/bench_snapshot.sh and commit it" >&2
        exit 1
    fi
    fresh="$(mktemp)"
    trap 'rm -f "$fresh"' EXIT
    # CRITERION_FILTER is explicitly cleared: a filter leaked from the
    # environment would skip benches, and every skipped bench would read
    # as GONE below — a confusing way to fail a correct tree.
    CRITERION_FILTER="" CRITERION_JSON="$fresh" \
        CRITERION_SAMPLES="${CRITERION_SAMPLES:-15}" \
        cargo bench -q -p powerprog-bench --bench cluster
    if [[ ! -s "$fresh" ]]; then
        echo "ci.sh: bench run produced no results — harness problem" >&2
        exit 1
    fi
    # Compare per-bench minima: fail when fresh > baseline * (1 + tol).
    # A bench present in the baseline but absent from the run is GONE
    # and fails outright: deleting (or renaming) a bench must force a
    # deliberate re-snapshot, never silently shrink the gate.
    # Both files carry one {"name":...,"min_s":...} object per bench
    # (the baseline wraps them in a JSON array; the field layout is ours,
    # so field-anchored extraction is reliable).
    awk -v tol="${BENCH_TOLERANCE:-0.5}" '
        function fields(line) {
            match(line, /"name":"[^"]*"/)
            name = substr(line, RSTART + 8, RLENGTH - 9)
            match(line, /"min_s":[0-9.eE+-]+/)
            low = substr(line, RSTART + 8, RLENGTH - 8) + 0
        }
        FNR == NR {
            if ($0 ~ /"name"/) { fields($0); base[name] = low }
            next
        }
        /"name"/ {
            fields($0)
            if (!(name in base)) {
                printf "NEW   %-48s min %.6fs (no baseline)\n", name, low
                next
            }
            ratio = low / base[name]
            status = (ratio > 1 + tol) ? "FAIL" : "ok"
            printf "%-5s %-48s min %.6fs vs %.6fs (x%.2f)\n", \
                status, name, low, base[name], ratio
            if (ratio > 1 + tol) bad = 1
            seen[name] = 1
        }
        END {
            gone = 0
            for (n in base) {
                if (!(n in seen)) {
                    printf "GONE  %-48s benched in baseline only\n", n
                    gone++
                    bad = 1
                }
            }
            if (gone) {
                printf "%d baseline bench(es) missing from the run — ", gone
                print "re-snapshot deliberately or restore them"
            }
            exit bad ? 1 : 0
        }
    ' "$baseline" "$fresh" || {
        echo "ci.sh: bench regression beyond ${BENCH_TOLERANCE:-0.5}, or a baseline bench missing from the run" >&2
        exit 1
    }
fi

echo "CI gate passed."
