#!/bin/sh
# A choice of n operands is one flat node, so its memory and the evaluator's
# stack stay linear in n:
#   replicated  P = [] x:{0..11999} @ c.x -> P, one state with 12,000
#               branches, checks under a 512 MiB address-space limit;
#   written     a written chain c.0 -> P [] ... [] c.9999 -> P of 10,000
#               operands checks without overflowing the stack.
#
#   sh tests/cli_wide_choice.sh <ecucsp_check> <replicated|written>
check=$1
row=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

case $row in
  replicated)
    printf '%s\n' "channel c : {0..11999}" \
      "P = [] x:{0..11999} @ c.x -> P" \
      "assert P :[deadlock free [F]]" > "$dir/wide.csp"
    out=$(ulimit -v 524288 && "$check" --no-cache "$dir/wide.csp")
    ;;
  written)
    {
      echo "channel c : {0..9999}"
      printf 'P = c.0 -> P'
      i=1
      while [ "$i" -lt 10000 ]; do
        printf ' [] c.%d -> P' "$i"
        i=$((i + 1))
      done
      echo
      echo "assert P :[deadlock free [F]]"
    } > "$dir/wide.csp"
    out=$("$check" --no-cache --no-lint "$dir/wide.csp")
    ;;
  *)
    echo "unknown row '$row'"
    exit 2
    ;;
esac
rc=$?
if [ "$rc" -ne 0 ] || ! echo "$out" | grep -q '^check assert #1 .* passed '; then
  echo "FAIL: $row (exit $rc)"
  echo "$out"
  exit 1
fi
