#!/usr/bin/env bash
# Runs every test executable of the workspace once, warm, and prints the
# ten slowest with their wall seconds and the total. With --budget <s> it
# exits 1 when the total is above <s> seconds. Doctests are not included.
#
#   scripts/test_times.sh                 # report only
#   scripts/test_times.sh --budget 45     # report, and fail above 45 s
#
# It builds the test profile first (cargo test --no-run), so the times are
# the binaries' own, not compilation. Each binary runs from its package
# directory, as under cargo test. Needs jq.
set -euo pipefail

usage() {
    sed -n '2,11p' "$0" | sed 's/^# \{0,1\}//'
}

budget=""
while [ $# -gt 0 ]; do
    case "$1" in
        --budget) budget="${2:?--budget needs a number of seconds}"; shift 2 ;;
        -h|--help) usage; exit 0 ;;
        *) echo "unknown argument: $1" >&2; usage >&2; exit 2 ;;
    esac
done

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# "<package dir> <executable>" per test binary.
binaries=$(cargo test --workspace --no-run --message-format=json 2>/dev/null |
    jq -r 'select(.reason == "compiler-artifact" and .profile.test and .executable != null)
           | "\(.manifest_path | rtrimstr("/Cargo.toml")) \(.executable)"' | sort -u)

# Proc-macro test binaries link the toolchain's libstd dynamically; cargo
# test puts it on the loader path, so do the same.
libstd="$(rustc --print sysroot)/lib/rustlib/$(rustc -vV | sed -n 's/^host: //p')/lib"
export LD_LIBRARY_PATH="$libstd${LD_LIBRARY_PATH:+:$LD_LIBRARY_PATH}"

times=$(mktemp)
trap 'rm -f "$times"' EXIT
while read -r dir bin; do
    start=$(date +%s%N)
    if ! (cd "$dir" && "$bin" -q >/dev/null 2>&1); then
        echo "FAILED: $bin" >&2
        exit 1
    fi
    end=$(date +%s%N)
    echo "$(( (end - start) / 1000000 )) $(basename "$bin")" >>"$times"
done <<<"$binaries"

echo "slowest of $(wc -l <"$times") test binaries (warm, seconds):"
sort -rn "$times" | head -10 | awk '{ printf "  %7.2f  %s\n", $1 / 1000, $2 }'
total=$(awk '{ s += $1 } END { printf "%.1f", s / 1000 }' "$times")
echo "total: ${total} s"
if [ -n "$budget" ] && awk -v t="$total" -v b="$budget" 'BEGIN { exit !(t > b) }'; then
    echo "over the tier-1 budget of ${budget} s" >&2
    exit 1
fi
