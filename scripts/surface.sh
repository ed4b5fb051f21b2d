#!/usr/bin/env bash
# Keeps each library crate's public surface to what its dependents name.
# Fails when
#   * a `pub mod` in crates/{tensor,dataflow,core}/src/lib.rs is not one of
#     the modules `perf/` names by path (or the dataflow prelude), or
#   * a name that one of those lib.rs files re-exports (`pub use`, the
#     dataflow prelude included) is named in no .rs file outside that
#     crate's src/ — not by another crate, an example, perf/ or a test.
# A module that is not public and a name that is not re-exported are the
# crate's own business, so rustc's dead-code lint sees every item in them.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/surface.sh

Checks the public surface of cstf-tensor, cstf-dataflow and cstf-core:
every `pub mod` in their lib.rs must be one perf/ names by path, and every
name their lib.rs re-exports must be named by some .rs file outside the
crate's src/. Prints each offender and exits 1; exits 0 when clean.
EOF
}

case "${1:-}" in
    -h | --help) usage; exit 0 ;;
    "") ;;
    *) usage >&2; exit 2 ;;
esac

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

declare -A public_modules=(
    [tensor]="datasets io linalg mttkrp random spmv"
    [dataflow]="kernel prelude"
    [core]="cost factors planner records"
)

# Every name a `pub use` statement of file $1 brings into scope (the last
# path segment, or the alias after `as`), one per line.
reexports() {
    awk '
        /^[[:space:]]*pub use / { stmt = ""; open = 1 }
        open { stmt = stmt " " $0 }
        open && /;/ {
            open = 0
            sub(/^[[:space:]]*pub use /, "", stmt)
            sub(/;.*/, "", stmt)
            gsub(/[{}]/, ",", stmt)
            n = split(stmt, items, ",")
            for (i = 1; i <= n; i++) {
                item = items[i]
                gsub(/^[[:space:]]+|[[:space:]]+$/, "", item)
                if (item ~ / as /) sub(/.* as /, "", item)
                sub(/.*::/, "", item)
                if (item != "" && item != "self" && item != "*") print item
            }
        }
    ' "$1"
}

status=0
for crate in tensor dataflow core; do
    lib=crates/$crate/src/lib.rs
    for module in $(sed -nE 's/^[[:space:]]*pub mod ([A-Za-z_0-9]+).*/\1/p' "$lib"); do
        if ! grep -qw -- "$module" <<<"${public_modules[$crate]}"; then
            echo "$lib: \`pub mod $module\` is not a module perf/ names by path" >&2
            status=1
        fi
    done
    for name in $(reexports "$lib" | sort -u); do
        if ! git grep -qw --untracked -e "$name" -- '*.rs' ":(exclude)crates/$crate/src"; then
            echo "$lib: re-exports \`$name\`, which no .rs file outside crates/$crate/src names" >&2
            status=1
        fi
    done
done
exit $status
