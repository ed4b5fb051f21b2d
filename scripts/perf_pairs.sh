#!/usr/bin/env bash
# Alternating parent/change pairs of one perf/ workload, or of every
# workload in turn — section 8 of the choosing-metrics guide as one
# command. See --help.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/perf_pairs.sh <parent-rev> <workload|all> [pairs=10] [seed=1]

Measures the working tree (the change) against <parent-rev> on one workload
of BENCHMARK.json, or with `all` on every workload it lists, in its order:

  1. checks <parent-rev> out into a scratch directory (git archive; the
     repository's own metadata is not touched) and builds both perf
     binaries, each into a target directory of its own;
  2. runs <pairs> pairs of untraced driver runs (--seconds = run_seconds of
     BENCHMARK.json, same seed on both sides), alternating which side runs
     first;
  3. prints, for every end-to-end metric, each side's quartiles and median,
     the ratio of the medians, in how many pairs the change read better
     (ties count for neither side) and a verdict, plus failed/incorrect runs
     per side.

With `all`, steps 2 and 3 run once per workload on the same two builds, and
the output ends with a summary: one line per workload and end-to-end metric,

  <workload> <metric>: <verdict> ratio <change/parent medians> wins <n>/<pairs>

and one line per workload with its failed/incorrect runs. A change that
claims no gain must read `worse` on none of these lines.

The verdict applies the metric's `bound` and `better` direction from
BENCHMARK.json; the first that holds is printed:

  worse       the change's median is worse than the parent's by more than
              the bound (a relative share of the parent's median);
  unresolved  the parent's (q3 - q1) / median is wider than the bound, and
              not every change run beats every parent run;
  gain        the change wins at least nine tenths of the pairs and the
              medians differ, in the better direction, by more than the
              parent's q3 - q1;
  ok          otherwise.

A change may claim a gain only on a metric that reads `gain` over at least
ten pairs, and must read `worse` on none; fewer pairs give a preview.

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
pairs=${3:-10}
seed=${4:-1}

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
if [ "$2" = all ]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' "$repo/BENCHMARK.json")
else
    jq -e --arg w "$2" '.workloads | any(.name == $w)' "$repo/BENCHMARK.json" >/dev/null || {
        echo "unknown workload '$2'; one of: all, $(jq -r '[.workloads[].name] | join(", ")' "$repo/BENCHMARK.json")" >&2
        exit 2
    }
    workloads=("$2")
fi
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

# One untraced driver run of side $1 on workload $2, appended to directory
# $3; the run's last stdout line is its result object. The binary writes
# below $CARGO_MANIFEST_DIR/out, so each side stays inside its own checkout.
run_side() {
    CARGO_MANIFEST_DIR=$(checkout "$1")/perf "$work/target-$1/release/perf" \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1 >>"$3/$1.jsonl"
}

# The rules of --help as jq definitions; `metrics` yields one object per
# end-to-end metric of the runs in $parent and $change.
jq_defs='
    def quantile($p): sort | ((length - 1) * $p) as $i
        | .[$i | floor] + (.[$i | ceil] - .[$i | floor]) * ($i - ($i | floor));
    def r: (. * 1e4 | round) / 1e4;
    def summary: "\(quantile(0.25) | r) / \(quantile(0.5) | r) / \(quantile(0.75) | r)";
    def bad: map(select(.correct != true or .failed != 0)) | length;
    def ratio($den): if $den == 0 then "n/a" else . / $den | r end;
    # $x relative to the parent median $pm: a share of it, or infinite
    # when a zero median moves at all.
    def rel($x; $pm): if $pm == 0 then (if $x == 0 then 0 else infinite end) else $x / ($pm | fabs) end;
    # $p, $c: per-run values; $sign: 1 when lower is better, else -1;
    # $diff: per-pair (change - parent) * $sign, negative = change better.
    def verdict($p; $c; $bound; $sign; $diff):
        ($p | quantile(0.5)) as $pm
        | (($p | quantile(0.75)) - ($p | quantile(0.25))) as $iqr
        | ($c | quantile(0.5)) as $cm
        | if rel(($cm - $pm) * $sign; $pm) > $bound then "worse"
          elif rel($iqr; $pm) > $bound
              and ($c | map(. * $sign) | max) >= ($p | map(. * $sign) | min)
          then "unresolved"
          elif ($diff | length) > 0
              and ($diff | map(select(. < 0)) | length) * 10 >= ($diff | length) * 9
              and ($pm - $cm) * $sign > $iqr
          then "gain"
          else "ok" end;
    def metrics:
        $bench[0].end_to_end[] as $m
        | [$parent[].metrics[$m.name].value] as $p
        | [$change[].metrics[$m.name].value] as $c
        | (if $m.better == "lower" then 1 else -1 end) as $sign
        | ([range(0; [$p, $c] | map(length) | min)] | map(($c[.] - $p[.]) * $sign)) as $diff
        | {m: $m, p: $p, c: $c, verdict: verdict($p; $c; $m.bound; $sign; $diff),
           ratio: ($c | quantile(0.5) | ratio($p | quantile(0.5))),
           wins: ($diff | map(select(. < 0)) | length),
           losses: ($diff | map(select(. > 0)) | length), pairs: ($diff | length)};
'

# Evaluates jq program $3 after the definitions over the runs in directory
# $1 of workload $2.
evaluate() {
    jq -rn --slurpfile parent "$1/parent.jsonl" --slurpfile change "$1/change.jsonl" \
        --slurpfile bench "$repo/BENCHMARK.json" --arg workload "$2" "$jq_defs $3"
}

summary=()
for workload in "${workloads[@]}"; do
    runs=$work/runs/$workload-seed$seed-$(date +%Y%m%dT%H%M%S)
    mkdir -p "$runs"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        echo "$workload pair $pair/$pairs: $order" >&2
        for side in $order; do
            run_side "$side" "$workload" "$runs"
        done
    done

    echo "workload $workload, seed $seed, $pairs pairs of ${seconds}s runs, parent $sha ($(nproc) cores)"
    evaluate "$runs" "$workload" '
        (metrics
        | "\(.m.name) [\(.m.unit), \(.m.better) is better, bound \(.m.bound)]: \(.verdict)\n"
          + "  parent q1/median/q3: \(.p | summary)\n"
          + "  change q1/median/q3: \(.c | summary)\n"
          + "  change/parent medians: \(.ratio)"
          + "   change wins \(.wins), loses \(.losses) of \(.pairs)"),
        "runs failed or incorrect: parent \($parent | bad), change \($change | bad)"'
    echo "per-run results: $runs"
    mapfile -t -O "${#summary[@]}" summary < <(evaluate "$runs" "$workload" '
        (metrics | "\($workload) \(.m.name): \(.verdict) ratio \(.ratio) wins \(.wins)/\(.pairs)"),
        "\($workload) runs failed or incorrect: parent \($parent | bad), change \($change | bad)"')
done

if [ "${#workloads[@]}" -gt 1 ]; then
    echo
    echo "summary: seed $seed, $pairs pairs per workload, parent $sha"
    printf '%s\n' "${summary[@]}"
fi
