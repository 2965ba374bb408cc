#!/usr/bin/env bash
# Profile the simulation hot path.
#
# With `perf` on the PATH this records the `micro` bench binary and prints
# the symbol-level breakdown (plus a flamegraph SVG when the inferno or
# flamegraph tools are installed). Without `perf` it runs the same bench
# binary under scripts/ptrace_sample.py, a small sampler built from
# python3, ptrace and addr2line: it stops every running thread of the
# command every 2 ms (PROFILE_INTERVAL, in seconds), records the
# instruction pointer, and prints the shares of leaf functions, of
# functions anywhere in the inline chain and of source lines.
#
# The sampler takes any command, so an end-to-end workload can be
# profiled directly, for example:
#   cargo build --release --offline --manifest-path powerbench/Cargo.toml
#   scripts/ptrace_sample.py -- powerbench/target/release/powerbench \
#       --workload cluster_hier_halo_4096 --seconds 10
#
# Usage: scripts/profile.sh [filter]
#
#   filter   substring selecting which benches of the `micro` target run
#            (CRITERION_FILTER; default: all of them), so
#            `scripts/profile.sh member_phases_1024` profiles just the
#            1024-member phase bench.
set -euo pipefail
cd "$(dirname "$0")/.."

bench="micro"
filter="${1:-}"
export CRITERION_FILTER="$filter"

cargo bench -q -p powerprog-bench --bench "$bench" --no-run
# Find the freshest bench binary for the target.
bin="$(ls -t target/release/deps/"${bench}"-* 2>/dev/null |
    grep -v '\.d$' | head -n1)"
if [[ -z "$bin" ]]; then
    echo "profile.sh: no bench binary for '$bench'" >&2
    exit 1
fi

if command -v perf >/dev/null 2>&1; then
    echo "== perf profile of bench '$bench'${filter:+ (filter: $filter)}"
    out="target/profile"
    mkdir -p "$out"
    perf record -g --output="$out/perf.data" -- \
        env CRITERION_SAMPLES="${CRITERION_SAMPLES:-5}" "$bin" --bench
    perf report --input="$out/perf.data" --stdio --percent-limit 1 |
        head -n 60
    if command -v inferno-collapse-perf >/dev/null 2>&1 &&
        command -v inferno-flamegraph >/dev/null 2>&1; then
        perf script --input="$out/perf.data" |
            inferno-collapse-perf |
            inferno-flamegraph >"$out/flamegraph.svg"
        echo "wrote $out/flamegraph.svg"
    elif command -v stackcollapse-perf.pl >/dev/null 2>&1 &&
        command -v flamegraph.pl >/dev/null 2>&1; then
        perf script --input="$out/perf.data" |
            stackcollapse-perf.pl |
            flamegraph.pl >"$out/flamegraph.svg"
        echo "wrote $out/flamegraph.svg"
    else
        echo "(no flamegraph tooling found; perf.data kept in $out/)"
    fi
    exit 0
fi

echo "== no perf on PATH: ptrace samples of bench '$bench'${filter:+ (filter: $filter)}"
CRITERION_SAMPLES="${CRITERION_SAMPLES:-5}" \
    python3 scripts/ptrace_sample.py --interval "${PROFILE_INTERVAL:-0.002}" \
    -- "$bin" --bench
