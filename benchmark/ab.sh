#!/usr/bin/env bash
# Compares two revisions on one workload: interleaved pairs, medians and
# quartiles per side (README, "Comparing two revisions").
#
#   benchmark/ab.sh <rev-a> <rev-b> <workload> [pairs=10] [extra benchmark args]
#
# Both revisions are exported into a scratch directory and measured by the
# benchmark of *this* working tree, so the instrument is the same on both sides
# whatever the revisions did to it. Extra arguments (`--instance 3`) go to both.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,10p' "$0" >&2
    exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=${4:-10}
shift $(( $# < 4 ? $# : 4 ))

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
unset CARGO_TARGET_DIR

for side in a b; do
    rev_var=rev_$side
    mkdir "$work/$side"
    git -C "$root" archive "${!rev_var}" | tar -x -C "$work/$side"
    rm -rf "$work/$side/benchmark"
    git -C "$root" ls-files -co --exclude-standard benchmark BENCHMARK.json |
        tar -C "$root" -cf - -T - | tar -x -C "$work/$side"
    cargo build --release --quiet --offline --manifest-path "$work/$side/benchmark/Cargo.toml"
done
seconds=$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")

for pair in $(seq 1 "$pairs"); do
    # Alternate which side goes first.
    if [ $(( pair % 2 )) -eq 1 ]; then order="a b"; else order="b a"; fi
    for side in $order; do
        "$work/$side/benchmark/target/release/a2a_benchmark" --workload "$workload" \
            --seed "$pair" --seconds "$seconds" --trace 0 "$@" 2>/dev/null |
            tail -n 1 >>"$work/$side.jsonl"
    done
    echo "pair $pair of $pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$work/a.jsonl" "$work/b.jsonl" "$rev_a" "$rev_b" <<'EOF'
import json, statistics, sys
contract, path_a, path_b, rev_a, rev_b = sys.argv[1:]
runs = {side: [json.loads(line) for line in open(path)] for side, path in (("a", path_a), ("b", path_b))}
for side, rev in (("a", rev_a), ("b", rev_b)):
    failed = sum(run["failed"] for run in runs[side])
    print(f"{side} = {rev}: {len(runs[side])} runs, {failed} failed checks")
for metric in json.load(open(contract))["end_to_end"]:
    name, sign = metric["name"], -1 if metric["better"] == "lower" else 1
    values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs}
    quartiles = {side: statistics.quantiles(values[side], n=4) for side in values}
    wins = sum(sign * (b - a) > 0 for a, b in zip(values["a"], values["b"]))
    losses = sum(sign * (b - a) < 0 for a, b in zip(values["a"], values["b"]))
    (a1, a2, a3), (b1, b2, b3) = quartiles["a"], quartiles["b"]
    better = sign * (b2 - a2)
    if wins >= 0.9 * len(values["a"]) and better > a3 - a1:
        verdict = "b gains"
    elif -better > metric["bound"] * abs(a2):
        verdict = "b regresses past the bound"
    elif a3 - a1 > metric["bound"] * abs(a2):
        verdict = "unresolved: a's quartiles are wider than the bound"
    else:
        verdict = "no change beyond the bound"
    print(f"{name}: a {a2:.6g} [{a1:.6g}, {a3:.6g}]  b {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
          f"b/a {b2 / a2:.4f}  b wins {wins}, loses {losses} of {len(values['a'])}  -> {verdict}")
EOF
