#!/usr/bin/env bash
# A/B one benchmark workload between two checkouts of this repository:
#
#   scripts/ab_pairs.sh <parent-checkout> <change-checkout> <workload> <pairs> <seconds> [seed]
#
# Runs `perf/run.sh --workload W --seed S --seconds T --trace 0` in each
# checkout, alternating which side goes first (P C, C P, P C, ...), and
# keeps each run's last stdout line, its result as JSON. Prints one line
# per pair with every end-to-end metric of both sides and their ratio C/P,
# then each side's median and the median of the per-pair ratios. A run that
# fails or does not report `"correct":true` leaves its whole pair out of the
# medians; the summary counts such runs per side, and the script then exits
# 1. The seed defaults to 11. Each checkout builds into its own `perf/target` (unless
# CARGO_TARGET_DIR is set); the build rewrites one line of
# `perf/Cargo.lock`, so the script restores that file in both checkouts
# with `git checkout` when it exits.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    echo "usage: $0 <parent-checkout> <change-checkout> <workload> <pairs> <seconds> [seed]" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
seconds="$5"
seed="${6:-11}"

runs="$(mktemp -d)"
touch "$runs/bad.P" "$runs/bad.C"
restore() {
    for side in "$parent" "$change"; do
        git -C "$side" checkout --quiet -- perf/Cargo.lock || true
    done
    rm -rf "$runs"
}
trap restore EXIT

# One run of side `$1` ("P" or "C") for pair `$2`: its metrics as
# `name value` lines in $runs/$1.$2 if it was correct, else a line in
# $runs/bad.$1.
run() {
    local dir="$parent"
    [ "$1" = C ] && dir="$change"
    local json
    json="$(cd "$dir" && bash perf/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)" || true
    case "$json" in
        *'"correct":true'*) ;;
        *)
            echo "side $1, pair $2: run failed or incorrect: $json" >&2
            echo "$2" >>"$runs/bad.$1"
            return
            ;;
    esac
    # `"wall_s":{"value":0.41,...}` → `wall_s 0.41`, one per metric.
    grep -o '"[a-z_]*":{"value":[-+0-9.eE]*' <<<"$json" |
        sed 's/^"\([a-z_]*\)":{"value":/\1 /' >"$runs/$1.$2"
}

echo "# $workload, seed $seed, $seconds s per run, $pairs pairs; P = $parent, C = $change"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        order="P C"
    else
        order="C P"
    fi
    for side in $order; do
        run "$side" "$i"
    done
    if [ ! -f "$runs/P.$i" ] || [ ! -f "$runs/C.$i" ]; then
        printf 'pair %2d (%s): left out, a run failed or was incorrect\n' "$i" "$order"
        rm -f "$runs/P.$i" "$runs/C.$i"
        continue
    fi
    printf 'pair %2d (%s):' "$i" "$order"
    join "$runs/P.$i" "$runs/C.$i" |
        awk '{ r = $2 != 0 ? $3 / $2 : 0; printf "  %s %.4g %.4g (%.3f)", $1, $2, $3, r }'
    echo
done

# Medians over the pairs whose runs were both correct: each side's, and of
# the per-pair ratios.
bad_p="$(wc -l <"$runs/bad.P")"
bad_c="$(wc -l <"$runs/bad.C")"
median() { sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
side() { for f in "$runs/$1".*; do [ -f "$f" ] && cat "$f"; done; true; }
for metric in $(side P | cut -d' ' -f1 | sort -u); do
    p="$(side P | awk -v m="$metric" '$1 == m { print $2 }' | median)"
    c="$(side C | awk -v m="$metric" '$1 == m { print $2 }' | median)"
    ratio="$(for i in $(seq 1 "$pairs"); do
        [ -f "$runs/P.$i" ] || continue
        join "$runs/P.$i" "$runs/C.$i" | awk -v m="$metric" '$1 == m && $2 != 0 { print $3 / $2 }'
    done | median)"
    printf 'median %-14s P %.4g  C %.4g  pair ratio C/P %.3f\n' "$metric" "$p" "$c" "$ratio"
done
echo "failed or incorrect runs: P $bad_p, C $bad_c (their pairs left out of the medians)"
[ "$bad_p" -eq 0 ] && [ "$bad_c" -eq 0 ]
