#!/usr/bin/env bash
# Build and run the benchmark from the checkout root.
#
#   perf/run.sh [--seed N] [--smoke] [--seconds S] [--out F]
#       every workload, untraced then traced; prints every metric, writes
#       perf/out/{results.json, trace_<workload>.json, breakdown_<workload>.md};
#       exits nonzero when an output check fails
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; last stdout line is the result as JSON
#   perf/run.sh check | compare A.json B.json | catalog
#
# Two builds, both offline and into one target directory: the repo's stock
# `dtrain-proc-worker` from the root workspace, and this package (`perf`,
# `perf-proc-worker`) from its own.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-perf/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet -p dtrain-proc --bin dtrain-proc-worker 1>&2
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml 1>&2

perf="$target/release/perf"
case "${1:-}" in
    check | compare | catalog) exec "$perf" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$perf" "$@"
    fi
done
exec "$perf" all "$@"
