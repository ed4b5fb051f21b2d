#!/usr/bin/env bash
# Counts the non-test code lines of each crate under crates/*/src: the
# lines of a file before its first `#[cfg(test)]`, with blank lines and
# `//` comment lines (doc comments included) left out.
set -euo pipefail

usage() {
    cat <<'EOF2'
usage: scripts/loc.sh [file...]

Prints the non-test code lines of every crate under crates/*/src, one
line per crate and a total. A file's non-test lines are those before its
first `#[cfg(test)]`, without blank lines and lines that start with `//`.
Given files, prints the count of each and their total instead.
EOF2
}

case "${1:-}" in
    -h | --help) usage; exit 0 ;;
    -*) usage >&2; exit 2 ;;
esac

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# Non-test code lines of each file named on stdin, one "<count> <file>" per file.
count() {
    while read -r file; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
             { n++ }
             END { print n + 0, FILENAME }' "$file"
    done
}

if (($# > 0)); then
    printf '%s\n' "$@" | count | awk '{ print; total += $1 } END { print total, "total" }'
    exit 0
fi

total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' | sort | count | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
