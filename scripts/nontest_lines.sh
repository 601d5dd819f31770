#!/bin/sh
# Non-test library lines by the rule of EXPERIMENTS E15: Rust lines in
# crates/*/src before each file's first `#[cfg(test)]`, not blank and not a
# comment. Prints the total; with a base revision, also one line per file the
# working tree changed against it (`count path`).
#
#   scripts/nontest_lines.sh            # total
#   scripts/nontest_lines.sh HEAD~1     # total + the files touched since HEAD~1
set -eu
cd "$(dirname "$0")/.."

count() {
    awk '/#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$1"
}

total=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    total=$((total + $(count "$f")))
done
echo "$total"

if [ $# -ge 1 ]; then
    { git diff --name-only "$1" -- 'crates/*/src/*.rs'
      git ls-files --others --exclude-standard -- 'crates/*/src/*.rs'; } | sort -u |
    while read -r f; do
        if [ -f "$f" ]; then echo "$(count "$f") $f"; else echo "0 $f (deleted)"; fi
    done
fi
