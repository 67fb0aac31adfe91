#!/usr/bin/env bash
# scripts/pub-surface.sh [REV]                            (`just surface`)
#
# The public surface of each library crate: the count of `pub`
# declarations (`pub fn|struct|enum|trait|type|const|static|mod` before
# each file's first `#[cfg(test)]`, as `scripts/loc.sh` counts lines), the
# count of `pub mod` lines in the crate's `lib.rs`, the `pub` names no
# file outside the crate's own `src/` mentions as a word, and the `pub`
# names that only test files mention (`crates/*/tests`, `tests/`,
# `benchmark/tests`): a count nothing but a test reads, say. The consumers
# are every other `*.rs` in the repository: the other crates,
# `crates/*/tests`, `crates/bench/src/bin`, `tests/`, `examples/`, the
# umbrella `src/` and the ledger's `benchmark/src` and `benchmark/tests`.
#
# Printed for comparison against the parent commit, never gated. A listed
# name is not a defect by itself: a type is `pub` because a consumed `pub`
# signature returns or takes it, a method because a doctest calls it, and
# a word scan cannot tell two items of the same name apart. The gate is
# the compiler — `unreachable_pub` under `[workspace.lints.rust]` fails
# `cargo clippy -- -D warnings` for a `pub` item in a private module that
# the crate root does not re-export, and `dead_code` then sees the rest.
#
# With a REV (`scripts/pub-surface.sh HEAD~1`) the same scan is run over a
# `git archive` of REV and the four counts are printed side by side, as
# the Markdown table of before → after per crate that CHANGES.md carries.
set -euo pipefail
if [[ $# -gt 1 ]]; then
    echo "usage: scripts/pub-surface.sh [REV]" >&2
    exit 2
fi
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# The report of the tree at $1.
scan() (
    cd "$1"
    decl='^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod) '
    total=0 total_mods=0 total_unnamed=0 total_tested=0
    for crate in crates/*/; do
        crate="${crate%/}"
        # The crate's own sources; its binaries are consumers like any other.
        mapfile -t own < <(find "$crate/src" -name '*.rs' -not -path "$crate/src/bin/*" | sort)
        mapfile -t consumers < <(find crates tests examples benchmark/src benchmark/tests src -name '*.rs' \
            \( -not -path "$crate/src/*" -o -path "$crate/src/bin/*" \) | sort)
        mapfile -t tests < <(printf '%s\n' "${consumers[@]}" | grep -E '^(crates/[^/]+/tests|tests|benchmark/tests)/')
        mapfile -t others < <(printf '%s\n' "${consumers[@]}" | grep -vE '^(crates/[^/]+/tests|tests|benchmark/tests)/')
        names="$(awk -v decl="$decl" '
            FNR == 1 { test = 0 }
            /#\[cfg\(test\)\]/ { test = 1 }
            !test && $0 ~ decl {
                sub(/^[[:space:]]*pub [a-z]+ /, ""); sub(/[^A-Za-z0-9_].*/, ""); print
            }' "${own[@]}")"
        count="$(grep -c . <<<"$names" || true)"
        mods="$(grep -cE '^pub mod ' "$crate/src/lib.rs" || true)"
        unnamed=() tested=()
        for name in $(sort -u <<<"$names"); do
            if grep -qw -- "$name" "${others[@]}"; then
                continue
            elif grep -qw -- "$name" "${tests[@]}"; then
                tested+=("$name")
            else
                unnamed+=("$name")
            fi
        done
        printf '%-10s %4d pub, %2d pub mod, %3d named by no consumer, %3d by tests only\n' \
            "$(basename "$crate")" "$count" "$mods" "${#unnamed[@]}" "${#tested[@]}"
        [[ ${#unnamed[@]} -eq 0 ]] || printf '    %s\n' "${unnamed[*]}" | fold -s -w 76 | sed -e '2,$s/^/    /' -e 's/ *$//'
        [[ ${#tested[@]} -eq 0 ]] || printf '    tests only: %s\n' "${tested[*]}" | fold -s -w 76 | sed -e '2,$s/^/    /' -e 's/ *$//'
        total=$((total + count)) total_mods=$((total_mods + mods))
        total_unnamed=$((total_unnamed + ${#unnamed[@]})) total_tested=$((total_tested + ${#tested[@]}))
    done
    printf '%-10s %4d pub, %2d pub mod, %3d named by no consumer, %3d by tests only\n' \
        total "$total" "$total_mods" "$total_unnamed" "$total_tested"
)

if [[ $# -eq 0 ]]; then
    scan .
    exit
fi
work="$(mktemp -d "${TMPDIR:-/tmp}/pub-surface.XXXXXX")"
trap 'rm -rf "$work"' EXIT
git archive "$1" | tar -x -C "$work"
printf '| crate | `pub` decls | `pub mod` | named by no consumer | by tests only |\n|---|---|---|---|---|\n'
# The count lines only (`<crate> N pub, M pub mod, K named ..., T by tests
# only`); a crate on one side only reads `-` on the other.
awk '!/^[a-z]+ +[0-9]+ pub,/ { next }
    NR == FNR { before[$1] = $2 " " $4 " " $7 " " $12; next }
    $1 == "total" { for (gone in before) if (gone != "total") { split(before[gone], b); printf "| %s | %s → - | %s → - | %s → - | %s → - |\n", gone, b[1], b[2], b[3], b[4] } }
    { split($1 in before ? before[$1] : "- - - -", b); printf "| %s | %s → %s | %s → %s | %s → %s | %s → %s |\n", $1, b[1], $2, b[2], $4, b[3], $7, b[4], $12; delete before[$1] }' \
    <(scan "$work") <(scan .)
