#!/bin/sh
# The OTA requirement x attacker matrix at one dilation must print the
# committed golden: every verdict, counterexample and state count, with
# the timings stripped. ecucsp_check must exit 0 (every verdict as pinned).
#
#   sh tests/cli_matrix_golden.sh <ecucsp_check> <dilate> <golden file>
check=$1
dilate=$2
golden=$3
out=$(mktemp)
trap 'rm -f "$out"' EXIT

"$check" --matrix --jobs 2 --no-cache --dilate "$dilate" > "$out"
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: ecucsp_check --matrix --dilate $dilate exited $rc"
  cat "$out"
  exit 1
fi
sed -E 's/, [0-9.]+ ms\)/)/; s/; wall .*//' "$out" | diff -u "$golden" -
