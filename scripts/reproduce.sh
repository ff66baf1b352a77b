#!/usr/bin/env bash
# Regenerate every table and figure of the paper, plus the extension
# studies: every committed results/**/*.csv and BENCH_008-010.json. It was
# 19.6 minutes on a 2-vCPU cloud VM while every resume went through a
# scheduler thread, 8.5-9 while simulated processes were parked OS threads,
# and is about two minutes now that they are user-space contexts on one
# thread, with byte-identical files each time. The committed files are this
# script's output and CI's `reproduce` job fails if they are not. There is
# one scale; `dtrain-study <name>` runs one study.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p dtrain-bench -- all
echo "done — see results/ and BENCH_008-010.json"
