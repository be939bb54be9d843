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
#   gated  - product lines that went under the testkit gate (-) or came
#            out from under it (+) in the same crate: a line gone from the
#            product and new under the gate, matched by content;
#   moved  - lines that arrived from (+) or left for (-) another crate:
#            a non-test line gone from one crate and new in another;
#   other  - the rest: lines deleted (-) or written (+). Only this part is
#            a reduction of the code.
# Both matches ignore leading whitespace and read `//!` as `///`. A line
# under 16 characters (a brace, a blank line, a short statement) can be
# gated, so an item moved under the gate takes its short lines with it,
# but it never counts as moved. A fourth column, outside the sum:
#   testkit - lines written (+) or deleted (-) under the testkit gate, not
#            matched as gated.
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

# One record per line of a .rs file: "P <crate> <text>" for a non-test line
# and "G <crate> <text>" for a line under the testkit gate, the text with
# leading whitespace removed and `//!` read as `///`.
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
    function text(s) {              # a line as it is matched across sides
        sub(/^[ \t]+/, "", s)
        sub(/^\/\/!/, "///", s)
        return s
    }
    function gate(s) { ng[file]++; gtext[file, ng[file]] = s }
    function drop() {               # a line of a skipped item
        if (kind == "gated") gate(text($0))
    }
    /^\036/ {
        file = substr($0, 2); np[file] = 0; ng[file] = 0; doc = 0; skip = 0
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
        np[file] -= doc; doc = 0; skip = 1; kind = "test"
        next
    }
    /^[ \t]*#\[cfg\(any\(test, feature = "testkit"\)\)\][ \t]*$/ {
        for (i = np[file] - doc + 1; i <= np[file]; i++) gate(ptext[file, i])
        np[file] -= doc; gate(text($0)); doc = 0; skip = 1; kind = "gated"
        next
    }
    {
        np[file]++
        ptext[file, np[file]] = text($0)
        if ($0 ~ /^[ \t]*\/\/\//) doc++; else doc = 0
    }
    END {
        for (f in np) {
            split(f, parts, "/")
            k = parts[2]
            if (declared[f] == "test") continue
            tag = declared[f] == "gated" ? "G" : "P"
            for (i = 1; i <= np[f]; i++) print tag, k, ptext[f, i]
            for (i = 1; i <= ng[f]; i++) print "G", k, gtext[f, i]
        }
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
        $1 == "P" { n[$2]++; total++ } $1 == "G" { g[$2]++; n[$2] += 0; gtotal++ }
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
echo "non-test lines under crates/*/src: $rev -> working tree; the change = gated + moved + other (only other is deleted or written code); testkit, outside the sum: lines written (+) or deleted (-) under the testkit gate"
{ printf '%s\n' "$old" | sed 's/^/A /'; printf '%s\n' "$tree" | sed 's/^/B /'; } | awk '
    function min(a, b) { return a < b ? a : b }
    {
        line = $0
        sub(/^[AB] [PG] [^ ]+ ?/, "", line)
        crates[$3] = 1
        if ($2 == "P") { n[$1, $3]++; pc[$1, $3, line]++ } else { gc[$1, $3, line]++ }
        seen[$3 SUBSEP line] = 1
    }
    END {
        # Per crate and text: the product lines gone (A only) and new (B
        # only). A text that left the product and arrived under the gate of
        # the same crate was gated, as often as both sides have it (and
        # the other way round, ungated); what else changed under the gate
        # was written or deleted there.
        for (key in seen) {
            split(key, kl, SUBSEP)
            k = kl[1]; line = kl[2]
            dp = pc["B", k, line] - pc["A", k, line]
            dg = gc["B", k, line] - gc["A", k, line]
            if (dp < 0 && dg > 0) { m = min(-dp, dg); gated[k] -= m; dp += m; dg -= m }
            if (dp > 0 && dg < 0) { m = min(dp, -dg); gated[k] += m; dp -= m; dg += m }
            testkit[k] += dg
            if (length(line) < 16) continue
            if (dp < 0) gone[line] = gone[line] SUBSEP k " " (-dp)
            if (dp > 0) { fresh[line, k] = dp; freshlist[line] = freshlist[line] SUBSEP k }
        }
        # A line gone from one crate and new in another moved, as often as
        # both sides have it; lines under 16 characters never count as moved.
        for (line in gone) {
            ng = split(substr(gone[line], 2), gl, SUBSEP)
            nn = split(substr(freshlist[line], 2), fl, SUBSEP)
            for (i = 1; i <= ng; i++) {
                split(gl[i], parts, " ")
                from = parts[1]; left = parts[2]
                for (j = 1; j <= nn && left > 0; j++) {
                    to = fl[j]
                    if (to == from || fresh[line, to] <= 0) continue
                    m = min(left, fresh[line, to])
                    moved[from] -= m; moved[to] += m
                    fresh[line, to] -= m; left -= m
                }
            }
        }
        printf "%-10s %7s %7s %7s %7s %7s %7s %8s\n", "crate", "before", "after", "change", "gated", "moved", "other", "testkit"
        for (k in crates) {
            delta = n["B", k] - n["A", k]
            printf "%-10s %7d %7d %+7d %+7d %+7d %+7d %+8d\n", k, n["A", k], n["B", k], delta, gated[k], moved[k], delta - gated[k] - moved[k], testkit[k] | "sort"
            ta += n["A", k]; tb += n["B", k]; tg += gated[k]; tm += moved[k]; tt += testkit[k]
        }
        close("sort")
        printf "%-10s %7d %7d %+7d %+7d %+7d %+7d %+8d\n", "total", ta, tb, tb - ta, tg, tm, tb - ta - tg - tm, tt
    }'
echo "all lines under vendor/ and crates/*/benches (outside the product): $rev -> working tree"
awk -v a="$(outside_rev "$rev")" -v b="$(outside_tree)" 'BEGIN { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }'
