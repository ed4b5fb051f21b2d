#!/usr/bin/env bash
# Alternating parent/change pairs of one perf/ workload — section 8 of the
# choosing-metrics guide as one command. See --help.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/perf_pairs.sh <parent-rev> <workload> [pairs=10] [seed=1]

Measures the working tree (the change) against <parent-rev> on one workload
of BENCHMARK.json:

  1. checks <parent-rev> out into a scratch directory (git archive; the
     repository's own metadata is not touched) and builds both perf
     binaries, each into a target directory of its own;
  2. runs <pairs> pairs of untraced driver runs (--seconds = run_seconds of
     BENCHMARK.json, same seed on both sides), alternating which side runs
     first;
  3. prints, for every end-to-end metric, each side's quartiles and median,
     the ratio of the medians, and in how many pairs the change read better
     (ties count for neither side), plus failed/incorrect runs per side.

A gain may be claimed when the change wins at least nine tenths of the pairs
and the medians differ by more than the parent's own q3 - q1.

Scratch space (checkout, builds, one JSON line per run) lives under
${TMPDIR:-/tmp}/cstf-perf-pairs/<parent-sha>/ and is reused by later
invocations with the same parent; delete it when done. Needs jq.
EOF
}

case "${1:-}" in
    -h | --help)
        usage
        exit 0
        ;;
esac
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    usage >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
seed=${4:-1}

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
jq -e --arg w "$workload" '.workloads | any(.name == $w)' "$repo/BENCHMARK.json" >/dev/null || {
    echo "unknown workload '$workload'; one of: $(jq -r '[.workloads[].name] | join(", ")' "$repo/BENCHMARK.json")" >&2
    exit 2
}
seconds=$(jq -r .run_seconds "$repo/BENCHMARK.json")

work=${TMPDIR:-/tmp}/cstf-perf-pairs/$sha
mkdir -p "$work"
if [ ! -d "$work/parent" ]; then
    rm -rf "$work/parent.partial"
    mkdir "$work/parent.partial"
    git -C "$repo" archive "$sha" | tar -x -C "$work/parent.partial"
    mv "$work/parent.partial" "$work/parent"
fi

# side -> checkout holding its perf/ package
checkout() {
    if [ "$1" = parent ]; then echo "$work/parent"; else echo "$repo"; fi
}

for side in parent change; do
    echo "building $side ($(checkout $side))" >&2
    CARGO_TARGET_DIR=$work/target-$side \
        cargo build --release --quiet --manifest-path "$(checkout $side)/perf/Cargo.toml"
done

runs=$work/runs/$workload-seed$seed-$(date +%Y%m%dT%H%M%S)
mkdir -p "$runs"

# One untraced driver run; its last stdout line is the result object. The
# binary writes below $CARGO_MANIFEST_DIR/out, so each side stays inside
# its own checkout.
run_side() {
    CARGO_MANIFEST_DIR=$(checkout "$1")/perf "$work/target-$1/release/perf" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1 >>"$runs/$1.jsonl"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    echo "pair $pair/$pairs: $order" >&2
    for side in $order; do
        run_side "$side"
    done
done

echo "workload $workload, seed $seed, $pairs pairs of ${seconds}s runs, parent $sha ($(nproc) cores)"
jq -rn --slurpfile parent "$runs/parent.jsonl" --slurpfile change "$runs/change.jsonl" \
    --slurpfile bench "$repo/BENCHMARK.json" '
    def quantile($p): sort | ((length - 1) * $p) as $i
        | .[$i | floor] + (.[$i | ceil] - .[$i | floor]) * ($i - ($i | floor));
    def r: (. * 1e4 | round) / 1e4;
    def summary: "\(quantile(0.25) | r) / \(quantile(0.5) | r) / \(quantile(0.75) | r)";
    def bad: map(select(.correct != true or .failed != 0)) | length;
    def ratio($den): if $den == 0 then "n/a" else . / $den | r end;
    (
        $bench[0].end_to_end[] as $m
        | [$parent[].metrics[$m.name].value] as $p
        | [$change[].metrics[$m.name].value] as $c
        | (if $m.better == "lower" then 1 else -1 end) as $sign
        | ([range(0; [$p, $c] | map(length) | min)] | map(($c[.] - $p[.]) * $sign)) as $diff
        | "\($m.name) [\($m.unit), \($m.better) is better]\n"
          + "  parent q1/median/q3: \($p | summary)\n"
          + "  change q1/median/q3: \($c | summary)\n"
          + "  change/parent medians: \($c | quantile(0.5) | ratio($p | quantile(0.5)))"
          + "   change wins \($diff | map(select(. < 0)) | length),"
          + " loses \($diff | map(select(. > 0)) | length) of \($diff | length)"
    ),
    "runs failed or incorrect: parent \($parent | bad), change \($change | bad)"'
echo "per-run results: $runs"
