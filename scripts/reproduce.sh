#!/usr/bin/env bash
# Regenerate every table and figure of the paper, plus the extension
# studies, writing CSVs to results/. Takes about a minute and a half on a
# 2-vCPU cloud VM, pinned or not (it was 19.6 minutes there while every
# resume went through a scheduler thread, 8.5–9 while simulated processes
# were parked OS threads handing a baton to each other, and is what it is
# now that they are user-space contexts on one thread — byte-identical
# CSVs each time). The committed results/*.csv are this script's output and
# CI's `reproduce` job fails if they are not. There is one scale.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --workspace
mkdir -p results
for b in table1_summary table2_accuracy fig1_convergence table3_sensitivity \
         fig2_scalability fig3_breakdown fig4_optimizations \
         table4_dgc_accuracy ablations straggler_study fault_study; do
  echo "=== $b ==="
  ./target/release/$b --csv results
done
echo "done — see results/"
