#!/usr/bin/env bash
# scripts/loc.sh [REV]
#
# Non-test lines of Rust under crates/*/src, per crate and in total: for
# the working tree, and with REV also for that revision (read with
# `git show`, nothing is checked out) and the difference.
#
# Counting rule: every line of a .rs file counts (code, comments and
# blank lines alike) except
#   - an item under #[cfg(test)] — the attribute, any attributes and doc
#     comments that go with it, and the item through its closing brace or
#     semicolon (a test module, function, statement or macro item), and
#   - a whole file declared by `#[cfg(test)] mod x;` (x.rs or x/mod.rs
#     beside the declaring module).
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

# "<crate> <lines>" per crate and "total <lines>".
count() {
    awk '
    function flush() {
        if (file != "") lines[file] = n
    }
    # A line with string and char literals and // comments removed, so
    # that only code braces are counted.
    function code(s) {
        gsub(/\\\\/, "", s)
        gsub(/\\"/, "", s)
        gsub(/"[^"]*"/, "", s)
        gsub(/'\''[^'\'']'\''/, "", s)
        sub(/\/\/.*/, "", s)
        return s
    }
    /^\036/ {
        flush()
        file = substr($0, 2); n = 0; doc = 0; skip = 0
        next
    }
    skip == 1 {                     # attributes between #[cfg(test)] and its item
        if ($0 ~ /^[ \t]*#\[/) next
        if (match($0, /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+[A-Za-z_0-9]+[ \t]*;/)) {
            name = $0
            sub(/^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+/, "", name)
            sub(/[ \t]*;.*/, "", name)
            dir = file
            sub(/\/[^\/]*$/, "", dir)
            base = file
            sub(/^.*\//, "", base)
            sub(/\.rs$/, "", base)
            if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
            testfile[dir "/" name ".rs"] = 1
            testfile[dir "/" name "/mod.rs"] = 1
            skip = 0
            next
        }
        skip = 2; depth = 0; opened = 0
    }
    skip == 2 {                     # inside the item
        s = code($0)
        o = gsub(/\{/, "{", s); c = gsub(/\}/, "}", s)
        depth += o - c
        if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && s ~ /;[ \t]*$/)) skip = 0
        next
    }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ {
        n -= doc; doc = 0; skip = 1
        next
    }
    {
        n++
        if ($0 ~ /^[ \t]*\/\/\//) doc++; else doc = 0
    }
    END {
        flush()
        for (f in lines) {
            if (f in testfile) continue
            split(f, parts, "/")
            per[parts[2]] += lines[f]
            total += lines[f]
        }
        for (k in per) print k, per[k]
        print "total", total
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
    echo "non-test lines under crates/*/src (working tree)"
    printf '%s\n' "$tree" | sort | awk '$1 != "total" { printf "%-10s %7d\n", $1, $2 }'
    printf '%s\n' "$tree" | awk '$1 == "total" { printf "%-10s %7d\n", $1, $2 }'
    echo "all lines under vendor/ and crates/*/benches (outside the product)"
    printf '%-10s %7d\n' total "$(outside_tree)"
    exit 0
fi
rev="$1"
git rev-parse --verify -q "$rev^{commit}" >/dev/null || { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
old="$(dump_rev "$rev" | count)"
echo "non-test lines under crates/*/src: $rev -> working tree"
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(printf '%s\n' "$old" | sort) <(printf '%s\n' "$tree" | sort) |
    awk '{ row = sprintf("%-10s %7d %7d %+7d", $1, $2, $3, $3 - $2) }
         $1 == "total" { last = row; next } { print row } END { print last }'
echo "all lines under vendor/ and crates/*/benches (outside the product): $rev -> working tree"
awk -v a="$(outside_rev "$rev")" -v b="$(outside_tree)" 'BEGIN { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }'
