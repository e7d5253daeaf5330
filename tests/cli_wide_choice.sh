#!/bin/sh
# A choice of n operands is one flat node, so its memory and the evaluator's
# stack stay linear in n:
#   replicated  P = [] x:{0..11999} @ c.x -> P, one state with 12,000
#               branches, checks under a 512 MiB address-space limit;
#   written     a written chain c.0 -> P [] ... [] c.9999 -> P of 10,000
#               operands checks without overflowing the stack;
#   interning   P = [] x:{0..99999} @ c.x -> P checks within 15 s: a new
#               event's fields are looked up in sorted domains, so interning
#               all n events of a channel is not quadratic in n.
#
#   sh tests/cli_wide_choice.sh <ecucsp_check> <replicated|written|interning>
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
  interning)
    printf '%s\n' "channel c : {0..99999}" \
      "P = [] x:{0..99999} @ c.x -> P" \
      "assert P :[deadlock free [F]]" > "$dir/wide.csp"
    out=$(timeout 15 "$check" --no-cache "$dir/wide.csp")
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
