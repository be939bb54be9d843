#!/usr/bin/env bash
# scripts/loc.sh [REV]
#
# Non-test lines of Rust under crates/*/src, per crate and in total: for
# the working tree, and with REV also for that revision (read with
# `git show`, nothing is checked out) and the difference.
#
# Counting rule: every line of a .rs file counts (code, comments and
# blank lines alike) except
#   - an item under #[cfg(test)] or #[cfg(any(test, feature = "testkit"))]
#     — the attribute, any attributes and doc comments that go with it,
#     and the item through its closing brace, or through its semicolon or
#     comma when it opens no brace (a test module, function, statement,
#     macro item, struct field or field initializer), and
#   - a whole file declared by `#[cfg(test)] mod x;` or by the testkit
#     attribute before `mod x;` (x.rs or x/mod.rs beside the declaring
#     module).
# `testkit` is fd-gpu's feature for other crates' tests; only
# [dev-dependencies] turn it on, so what it gates is test code. Its lines
# are reported per crate as "gated".
#
# With REV the difference of each crate comes in three parts, which add
# up to it:
#   gated  - the change in lines under the testkit gate, negated: code
#            that left the product count by being gated, not deleted;
#   moved  - lines that arrived from (+) or left for (-) another crate:
#            a non-test line gone from one crate and new in another, with
#            leading whitespace ignored and `//!` read as `///`; lines
#            under 16 characters (braces, short statements) never count
#            as moved;
#   other  - the rest: lines deleted (-) or written (+). Only this part is
#            a reduction of the code.
#
# A separate total, outside the product: every line of every file under
# vendor/ and crates/*/benches (the offline stand-ins and micro-benchmarks),
# for the same sides.
set -euo pipefail
cd "$(dirname "$0")/.."

# Print every file of one side as "\036<path>" followed by its lines.
dump_tree() {
    local f
    for f in $(find crates/*/src -name '*.rs' | sort); do
        printf '\036%s\n' "$f"
        cat "$f"
    done
}
dump_rev() {
    local f
    for f in $(git ls-tree -r --name-only "$1" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$'); do
        printf '\036%s\n' "$f"
        git show "$1:$f"
    done
}

# One record per line: "N <crate> <lines>" (non-test), "G <crate> <lines>"
# (under the testkit gate) and "L <crate> <line>" for every non-test line
# long enough to be matched as moved.
count() {
    awk '
    # A line with string and char literals and // comments removed, so
    # that only code braces and parentheses are counted.
    function code(s) {
        gsub(/\\\\/, "", s)
        gsub(/\\"/, "", s)
        gsub(/"[^"]*"/, "", s)
        gsub(/'\''[^'\'']'\''/, "", s)
        sub(/\/\/.*/, "", s)
        return s
    }
    function drop() {               # a line of a skipped item
        if (kind == "gated") gated[file]++
    }
    /^\036/ {
        file = substr($0, 2); nf[file] = 0; gated[file] = 0; doc = 0; skip = 0
        next
    }
    skip == 1 {                     # attributes between the cfg and its item
        if ($0 ~ /^[ \t]*#\[/) { drop(); next }
        if (match($0, /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+[A-Za-z_0-9]+[ \t]*;/)) {
            drop()
            name = $0
            sub(/^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+/, "", name)
            sub(/[ \t]*;.*/, "", name)
            dir = file
            sub(/\/[^\/]*$/, "", dir)
            base = file
            sub(/^.*\//, "", base)
            sub(/\.rs$/, "", base)
            if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
            declared[dir "/" name ".rs"] = kind
            declared[dir "/" name "/mod.rs"] = kind
            skip = 0
            next
        }
        skip = 2; depth = 0; parens = 0; opened = 0
    }
    skip == 2 {                     # inside the item
        drop()
        s = code($0)
        o = gsub(/\{/, "{", s); c = gsub(/\}/, "}", s)
        depth += o - c
        parens += gsub(/\(/, "(", s) - gsub(/\)/, ")", s)
        if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && parens <= 0 && s ~ /[;,][ \t]*$/)) skip = 0
        next
    }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ {
        nf[file] -= doc; doc = 0; skip = 1; kind = "test"
        next
    }
    /^[ \t]*#\[cfg\(any\(test, feature = "testkit"\)\)\][ \t]*$/ {
        nf[file] -= doc; gated[file] += doc + 1; doc = 0; skip = 1; kind = "gated"
        next
    }
    {
        nf[file]++
        if ($0 ~ /^[ \t]*\/\/\//) doc++; else doc = 0
        line = $0
        sub(/^[ \t]+/, "", line)
        sub(/^\/\/!/, "///", line)
        if (length(line) >= 16) { nl[file]++; text[file, nl[file]] = line }
    }
    END {
        for (f in nf) {
            split(f, parts, "/")
            k = parts[2]
            if (declared[f] == "test") continue
            if (declared[f] == "gated") { g[k] += nf[f] + gated[f]; continue }
            per[k] += nf[f]
            g[k] += gated[f]
            for (i = 1; i <= nl[f]; i++) print "L", k, text[f, i]
        }
        for (k in per) print "N", k, per[k]
        for (k in g) print "G", k, g[k]
    }'
}

# Lines of the files outside the product, in the working tree or at REV.
outside='^(vendor/|crates/[^/]+/benches/)'
outside_tree() {
    git ls-files --cached --others --exclude-standard -- vendor crates |
        { grep -E "$outside" || true; } |
        while read -r f; do if [ -f "$f" ]; then cat "$f"; fi; done | wc -l
}
outside_rev() {
    git ls-tree -r --name-only "$1" -- vendor crates |
        { grep -E "$outside" || true; } |
        while read -r f; do git show "$1:$f"; done | wc -l
}

tree="$(dump_tree | count)"
if [ $# -eq 0 ]; then
    echo "non-test lines under crates/*/src (working tree); gated: lines under the testkit gate"
    printf '%s\n' "$tree" | awk '
        $1 == "N" { n[$2] = $3; total += $3 } $1 == "G" { g[$2] = $3; gtotal += $3 }
        END {
            printf "%-10s %7s %7s\n", "crate", "lines", "gated"
            for (k in n) printf "%-10s %7d %7d\n", k, n[k], g[k] | "sort"
            close("sort")
            printf "%-10s %7d %7d\n", "total", total, gtotal
        }'
    echo "all lines under vendor/ and crates/*/benches (outside the product)"
    printf '%-10s %7d\n' total "$(outside_tree)"
    exit 0
fi
rev="$1"
git rev-parse --verify -q "$rev^{commit}" >/dev/null || { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
old="$(dump_rev "$rev" | count)"
echo "non-test lines under crates/*/src: $rev -> working tree; the change = gated + moved + other (only other is deleted or written code)"
{ printf '%s\n' "$old" | sed 's/^/A /'; printf '%s\n' "$tree" | sed 's/^/B /'; } | awk '
    $2 == "N" { n[$1, $3] = $4; crates[$3] = 1; next }
    $2 == "G" { g[$1, $3] = $4; crates[$3] = 1; next }
    $2 == "L" {
        line = $0
        sub(/^[AB] L [^ ]+ /, "", line)
        cnt[$1, $3, line]++
        seen[$3 SUBSEP line] = 1
        next
    }
    END {
        # Per crate, the lines gone (A only) and new (B only), by content.
        for (key in seen) {
            split(key, kl, SUBSEP)
            d = cnt["B", kl[1], kl[2]] - cnt["A", kl[1], kl[2]]
            if (d < 0) gone[kl[2]] = gone[kl[2]] SUBSEP kl[1] " " (-d)
            if (d > 0) { fresh[kl[2], kl[1]] = d; freshlist[kl[2]] = freshlist[kl[2]] SUBSEP kl[1] }
        }
        # A line gone from one crate and new in another moved, as often as
        # both sides have it.
        for (line in gone) {
            ng = split(substr(gone[line], 2), gl, SUBSEP)
            nn = split(substr(freshlist[line], 2), fl, SUBSEP)
            for (i = 1; i <= ng; i++) {
                split(gl[i], parts, " ")
                from = parts[1]; left = parts[2]
                for (j = 1; j <= nn && left > 0; j++) {
                    to = fl[j]
                    if (to == from || fresh[line, to] <= 0) continue
                    m = (left < fresh[line, to]) ? left : fresh[line, to]
                    moved[from] -= m; moved[to] += m
                    fresh[line, to] -= m; left -= m
                }
            }
        }
        printf "%-10s %7s %7s %7s %7s %7s %7s\n", "crate", "before", "after", "change", "gated", "moved", "other"
        for (k in crates) {
            delta = n["B", k] - n["A", k]
            gated = -(g["B", k] - g["A", k])
            printf "%-10s %7d %7d %+7d %+7d %+7d %+7d\n", k, n["A", k], n["B", k], delta, gated, moved[k], delta - gated - moved[k] | "sort"
            ta += n["A", k]; tb += n["B", k]; tg += gated; tm += moved[k]
        }
        close("sort")
        printf "%-10s %7d %7d %+7d %+7d %+7d %+7d\n", "total", ta, tb, tb - ta, tg, tm, tb - ta - tg - tm
    }'
echo "all lines under vendor/ and crates/*/benches (outside the product): $rev -> working tree"
awk -v a="$(outside_rev "$rev")" -v b="$(outside_tree)" 'BEGIN { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }'
