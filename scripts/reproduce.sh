#!/usr/bin/env bash
# Regenerate every table and figure of the paper, plus the extension
# studies, writing CSVs to results/. Takes ~9 minutes on a 2-vCPU cloud VM
# (unpinned; it was 19.6 minutes there before the desim kernel stopped
# routing every resume through a scheduler thread, with byte-identical
# CSVs); add --quick after -- for a smoke-scale pass (~10 seconds).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --workspace
mkdir -p results
for b in table1_summary table2_accuracy fig1_convergence table3_sensitivity \
         fig2_scalability fig3_breakdown fig4_optimizations \
         table4_dgc_accuracy ablations straggler_study; do
  echo "=== $b ==="
  ./target/release/$b --csv results "$@"
done
echo "done — see results/"
