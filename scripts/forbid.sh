#!/usr/bin/env bash
# Grep-lint for the crates that run inside every simulated cycle: `.unwrap()`
# is forbidden in non-test msp-state, msp-pipeline, msp-mem and msp-branch
# source. A panic inside the squash path or a per-cycle structure is a
# machine-killing failure mode the model checker cannot distinguish from a
# genuine invariant violation, so fallible code there must use expect()
# with an invariant message (self-documenting and allowlisted below if ever
# needed) or propagate the error.
#
# Scanning rules:
#   * only lines before the first `#[cfg(test)]` in each file are scanned
#     (unit-test modules may unwrap freely);
#   * doc-comment lines (`///`, `//!`) and plain `//` comment lines are
#     skipped;
#   * exceptions live in scripts/forbid_allowlist.txt as `<path>:<line>`
#     entries and must be re-justified when the file shifts.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=scripts/forbid_allowlist.txt
status=0

for file in crates/msp-state/src/*.rs crates/msp-pipeline/src/*.rs \
    crates/msp-mem/src/*.rs crates/msp-branch/src/*.rs; do
    while IFS=: read -r line _; do
        [ -z "${line:-}" ] && continue
        if grep -qxF "$file:$line" "$allowlist" 2>/dev/null; then
            continue
        fi
        echo "forbid: $file:$line: .unwrap() in non-test per-cycle code" >&2
        sed -n "${line}p" "$file" >&2
        status=1
    done < <(awk '
        /#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /\.unwrap\(\)/ { print FNR ":" }
    ' "$file")
done

if [ "$status" -ne 0 ]; then
    echo "forbid: use expect() with an invariant message, propagate the error," >&2
    echo "forbid: or add a justified '<path>:<line>' entry to $allowlist" >&2
fi
exit "$status"
