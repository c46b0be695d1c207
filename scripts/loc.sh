#!/bin/sh
# Prints the three size counts the roadmap tracks from change to change:
#
#   library lines  every `.rs` file under `crates/*/src` and `src`,
#                  counted up to its first top-level `#[cfg(test)]`
#   rust lines     every tracked `.rs` file outside `vendor/` and
#                  `perfbench/`
#   api surface    the lines of `tests/api_surface.txt`
#
# A printout, not a gate. Run it from a git checkout: the second count
# reads the tracked files from git.
#
# Usage:
#   scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

library=$(find src crates/*/src -name '*.rs' | LC_ALL=C sort |
    xargs awk 'FNR == 1 { stop = 0 } /^#\[cfg\(test\)\]/ { stop = 1 } !stop { n++ } END { print n + 0 }')
rust=$(git ls-files -z -- '*.rs' ':!:vendor/' ':!:perfbench/' | xargs -0 cat | wc -l)
surface=$(wc -l <tests/api_surface.txt)

echo "library lines: $library"
echo "rust lines (outside vendor/ and perfbench/): $rust"
echo "api surface: $surface"
