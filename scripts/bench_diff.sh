#!/usr/bin/env bash
# Every experiment's artifacts, working tree against a parent
# revision, diffed — the "nothing observable moves" check of a refactor.
# See --help.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/bench_diff.sh <parent-rev>

Shows that the working tree (the change) writes the same experiment
artifacts as <parent-rev>:

  1. checks <parent-rev> out into a scratch directory (git archive; the
     repository's own metadata is not touched) and builds cstf-bench on both
     sides, each into a target directory of its own;
  2. runs `figures all --tiny --seed 0` on both sides — every row of the
     experiment table at its smallest arguments, as CI's bench-smoke job
     does — each side into a CSTF_RESULTS_DIR of its own;
  3. prints `diff -r` of the two directories and exits non-zero unless it is
     empty.

Modeled seconds, byte counts and CSV/JSON layout are deterministic, so any
line of output is a change in behaviour. Two groups of fields vary from run
to run at one commit and are masked on both sides before the diff:

  - BENCH_jobserver.json, `burst.*_mean_queue_delay_secs`: wall-clock queue
    delays of a real job-server burst;
  - BENCH_memory.json, the `"fraction": 0.25` rows' evicted_bytes,
    spilled_bytes, spill_read_bytes and sim_secs: at a quarter of the peak
    the LRU victim depends on which task touched a block last, and the
    modeled seconds price the spilled bytes.

Scratch space lives under ${TMPDIR:-/tmp}/cstf-bench-diff/<parent-sha>/ and
is reused by later invocations with the same parent; delete it when done.
About a minute after the builds.
EOF
}

case "${1:-}" in
    -h | --help)
        usage
        exit 0
        ;;
esac
if [ $# -ne 1 ]; then
    usage >&2
    exit 2
fi

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$repo" rev-parse --verify "$1^{commit}")
work=${TMPDIR:-/tmp}/cstf-bench-diff/$sha
mkdir -p "$work"
if [ ! -d "$work/parent" ]; then
    rm -rf "$work/parent.partial"
    mkdir "$work/parent.partial"
    git -C "$repo" archive "$sha" | tar -x -C "$work/parent.partial"
    mv "$work/parent.partial" "$work/parent"
fi

# side -> its checkout
checkout() {
    if [ "$1" = parent ]; then echo "$work/parent"; else echo "$repo"; fi
}

for side in parent change; do
    src=$(checkout $side)
    echo "building $side ($src)" >&2
    CARGO_TARGET_DIR=$work/target-$side \
        cargo build --release --quiet -p cstf-bench --manifest-path "$src/Cargo.toml"
    out=$work/results-$side
    rm -rf "$out"
    mkdir "$out"
    echo "$side: figures all --tiny --seed 0" >&2
    (cd "$src" && CSTF_RESULTS_DIR=$out timeout 1800 \
        "$work/target-$side/release/figures" all --tiny --seed 0 >/dev/null)
    sed -E -i 's/("(fifo|fair)_(short|long)_mean_queue_delay_secs": )[0-9.e+-]+/\1"masked"/' \
        "$out/BENCH_jobserver.json"
    sed -E -i '/"fraction": 0\.25,/ s/("(evicted_bytes|spilled_bytes|spill_read_bytes|sim_secs)": )[0-9.e+-]+/\1"masked"/g' \
        "$out/BENCH_memory.json"
done

if diff -r "$work/results-parent" "$work/results-change"; then
    echo "identical: $(find "$work/results-change" -type f | wc -l) artifacts, parent $sha"
else
    echo "artifacts differ from parent $sha (see above; $work/results-{parent,change})" >&2
    exit 1
fi
