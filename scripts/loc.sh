#!/usr/bin/env bash
# scripts/loc.sh [REV]                                    (`just loc`)
#
# Non-test lines of Rust per crate: in every crates/*/src/**/*.rs, the
# lines before the file's first unindented `#[cfg(test)]` (an indented one
# gates a test-only field or statement inside library code). This is the figure the
# simplicity PRs report in CHANGES.md ("net non-test lines"); it is
# printed for comparison against the parent commit, never gated.
#
# With a REV (`scripts/loc.sh HEAD~1`) the same count is taken of a `git
# archive` of REV and the two are printed side by side, as the Markdown
# table of before → after per crate that CHANGES.md carries.
set -euo pipefail
if [[ $# -gt 1 ]]; then
    echo "usage: scripts/loc.sh [REV]" >&2
    exit 2
fi
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# `<crate> <lines>` per crate of the tree at $1, then the total.
count() (
    cd "$1"
    total=0
    for crate in crates/*/; do
        lines="$(find "$crate/src" -name '*.rs' -print0 | sort -z |
            xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')"
        printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
        total=$((total + lines))
    done
    printf '%-10s %6d\n' total "$total"
)

if [[ $# -eq 0 ]]; then
    count .
    exit
fi
work="$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")"
trap 'rm -rf "$work"' EXIT
git archive "$1" crates | tar -x -C "$work"
printf '| crate | non-test lines at %s → now |\n|---|---|\n' "$(git rev-parse --short "$1")"
# A crate on one side only reads `-` on the other.
awk 'NR == FNR { before[$1] = $2; next }
    $1 == "total" { for (gone in before) if (gone != "total") printf "| %s | %s → - |\n", gone, before[gone] }
    { printf "| %s | %s → %s |\n", $1, ($1 in before ? before[$1] : "-"), $2; delete before[$1] }' \
    <(count "$work") <(count .)
