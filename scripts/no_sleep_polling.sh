#!/usr/bin/env bash
# Fails if the engine sleeps anywhere but in the fault injector: a
# `thread::sleep` in crates/dataflow/src is a poll loop coming back (the
# executor's monitor once slept 2 ms before it looked whether its wave had
# finished — a floor under every job-server wave). Waits park on a condvar.
# Exempt: the `InjectedFault::Delay` arm of `run_attempt`, which *is* the
# injected straggler, and each file's trailing `#[cfg(test)]` module.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

offenders=$(git ls-files 'crates/dataflow/src/*.rs' | while read -r file; do
    awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /thread::sleep/ && !/InjectedFault::Delay/ { print file ":" FNR ":" $0 }
    ' "$file"
done)
if [ -n "$offenders" ]; then
    echo "thread::sleep outside the fault injector in crates/dataflow/src:" >&2
    echo "$offenders" >&2
    exit 1
fi
