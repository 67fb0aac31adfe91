#!/usr/bin/env bash
# scripts/loc.sh                                          (`just loc`)
#
# Non-test lines of Rust per crate: in every crates/*/src/**/*.rs, the
# lines before the file's first `#[cfg(test)]`. This is the figure the
# simplicity PRs report in CHANGES.md ("net non-test lines"); it is
# printed for comparison against the parent commit, never gated.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
total=0
for crate in crates/*/; do
    lines="$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')"
    printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
