#!/usr/bin/env sh
# Source size, the north star's tracked metric: lines of *.cpp and *.hpp in
# each src/ subdirectory, then the total over all of src/.
#
# Usage: scripts/src_lines.sh [SRC_DIR]   (default: the repo's src/)
set -eu
src=${1:-"$(dirname "$0")/../src"}

count() {
  find "$1" -type f \( -name '*.cpp' -o -name '*.hpp' \) -exec cat {} + |
    wc -l
}

for dir in "$src"/*/; do
  printf '%7d  %s\n' "$(count "$dir")" "$(basename "$dir")"
done
printf '%7d  total\n' "$(count "$src")"
