#!/bin/sh
# Non-test library lines by the rule of EXPERIMENTS E15: Rust lines in
# crates/*/src before each file's first `#[cfg(test)]`, not blank and not a
# comment. Prints the total; with a base revision, also one line per file the
# working tree changed against it (`before after path`, 0 for a file added or
# deleted) and the base's total beside this tree's (`before after (total)`).
#
#   scripts/nontest_lines.sh            # total
#   scripts/nontest_lines.sh HEAD~1     # total + the files touched since HEAD~1
set -eu
cd "$(dirname "$0")/.."

# counts the file named by $1, or stdin
count() {
    awk '/#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$@"
}

# the count of `path` ($2) at revision $1, 0 where it does not exist
count_at() {
    if git cat-file -e "$1:$2" 2>/dev/null; then git show "$1:$2" | count; else echo 0; fi
}

total=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    total=$((total + $(count "$f")))
done
echo "$total"

if [ $# -ge 1 ]; then
    base=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "unknown revision $1" >&2; exit 2; }
    { git diff --name-only "$base" -- 'crates/*/src/*.rs'
      git ls-files --others --exclude-standard -- 'crates/*/src/*.rs'; } | sort -u |
    while read -r f; do
        if [ -f "$f" ]; then after=$(count "$f"); else after=0; fi
        echo "$(count_at "$base" "$f") $after $f"
    done
    base_total=0
    for f in $(git ls-tree -r --name-only "$base" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$'); do
        base_total=$((base_total + $(git show "$base:$f" | count)))
    done
    echo "$base_total $total (total)"
fi
