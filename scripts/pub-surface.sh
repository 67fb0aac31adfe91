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
# The fifth count is the `pub fn` names that no non-test line of code
# anywhere mentions outside a definition, the crate's own lines included:
# an API only tests (doctests among them) call. A non-test line is one
# before its file's first unindented `#[cfg(test)]` (as `scripts/loc.sh`
# counts) outside `crates/*/tests`, `tests/` and `benchmark/tests`, and
# not a comment; `fn <name>` is dropped from every line first, so no
# definition counts as a call. Its blind spot is the word scan itself: a
# method named by a common word (`contains`, `cost`, `len`, `shards`)
# hides behind every other use of that word, and is checked by hand.
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
# `git archive` of REV and the five counts are printed side by side, as
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
    total=0 total_mods=0 total_unnamed=0 total_tested=0 total_uncalled=0
    # Every word of the repository's non-test code, for the fifth count.
    mapfile -t code < <(find crates tests examples benchmark/src benchmark/tests src -name '*.rs' |
        grep -vE '^(crates/[^/]+/tests|tests|benchmark/tests)/' | sort)
    called="$(awk '
        FNR == 1 { test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        test || /^[[:space:]]*\/\// { next }
        { gsub(/fn [A-Za-z0-9_]+/, ""); n = split($0, words, /[^A-Za-z0-9_]+/); for (i = 1; i <= n; i++) print words[i] }
        ' "${code[@]}" | sort -u)"
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
        fns="$(awk '
            FNR == 1 { test = 0 }
            /#\[cfg\(test\)\]/ { test = 1 }
            !test && /^[[:space:]]*pub fn / { sub(/^[[:space:]]*pub fn /, ""); sub(/[^A-Za-z0-9_].*/, ""); print }
            ' "${own[@]}")"
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
        uncalled=()
        for name in $(sort -u <<<"$fns"); do
            grep -qxF -- "$name" <<<"$called" || uncalled+=("$name")
        done
        printf '%-10s %4d pub, %2d pub mod, %3d named by no consumer, %3d by tests only, %3d pub fn called by tests only\n' \
            "$(basename "$crate")" "$count" "$mods" "${#unnamed[@]}" "${#tested[@]}" "${#uncalled[@]}"
        [[ ${#unnamed[@]} -eq 0 ]] || printf '    %s\n' "${unnamed[*]}" | fold -s -w 76 | sed -e '2,$s/^/    /' -e 's/ *$//'
        [[ ${#tested[@]} -eq 0 ]] || printf '    tests only: %s\n' "${tested[*]}" | fold -s -w 76 | sed -e '2,$s/^/    /' -e 's/ *$//'
        [[ ${#uncalled[@]} -eq 0 ]] || printf '    fn called by tests only: %s\n' "${uncalled[*]}" | fold -s -w 76 | sed -e '2,$s/^/    /' -e 's/ *$//'
        total=$((total + count)) total_mods=$((total_mods + mods))
        total_unnamed=$((total_unnamed + ${#unnamed[@]})) total_tested=$((total_tested + ${#tested[@]}))
        total_uncalled=$((total_uncalled + ${#uncalled[@]}))
    done
    printf '%-10s %4d pub, %2d pub mod, %3d named by no consumer, %3d by tests only, %3d pub fn called by tests only\n' \
        total "$total" "$total_mods" "$total_unnamed" "$total_tested" "$total_uncalled"
)

if [[ $# -eq 0 ]]; then
    scan .
    exit
fi
work="$(mktemp -d "${TMPDIR:-/tmp}/pub-surface.XXXXXX")"
trap 'rm -rf "$work"' EXIT
git archive "$1" | tar -x -C "$work"
printf '| crate | `pub` decls | `pub mod` | named by no consumer | by tests only | `pub fn` called by tests only |\n|---|---|---|---|---|---|\n'
# The count lines only (`<crate> N pub, M pub mod, K named ..., T by tests
# only, U pub fn ...`); a crate on one side only reads `-` on the other.
awk '!/^[a-z]+ +[0-9]+ pub,/ { next }
    NR == FNR { before[$1] = $2 " " $4 " " $7 " " $12 " " $16; next }
    $1 == "total" { for (gone in before) if (gone != "total") { split(before[gone], b); printf "| %s | %s → - | %s → - | %s → - | %s → - | %s → - |\n", gone, b[1], b[2], b[3], b[4], b[5] } }
    { split($1 in before ? before[$1] : "- - - - -", b); printf "| %s | %s → %s | %s → %s | %s → %s | %s → %s | %s → %s |\n", $1, b[1], $2, b[2], $4, b[3], $7, b[4], $12, b[5], $16; delete before[$1] }' \
    <(scan "$work") <(scan .)
