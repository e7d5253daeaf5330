#!/bin/sh
# Hostile inputs end in a typed error with a location, or in a bounded
# answer, never in a crash:
#   parens      P = ((...(STOP)...)) nested 100,000 deep: a parse error
#               (exit 2, the script does not load);
#   prefix      a 10,000-event prefix chain: an evaluation error (exit 1),
#               or a parse error (exit 2) in a build whose parser frames are
#               large enough to run low first;
#   interleave  a 20,000-operand ||| chain: an evaluation error (exit 1);
#   seq         a 20,000-operand ; chain: an evaluation error (exit 1);
#   capl        ecucsp_lint --capl on an `on start` handler nesting 50,000
#               parentheses: one E001 parse error (exit 1);
#   lattice     a 12-bit state lattice (4,096 states) passes under the
#               default cache in under 1 s: its store key takes one walk
#               over the definition graph, not one per path through it;
#   deadline    a definition recursing through a 12-element set argument,
#               with --timeout 500, is "timed out" within 2 s: evaluation
#               polls the check's deadline.
#
#   sh tests/cli_hostile.sh <directory of the ecucsp_* tools> <row>
bin=$1
row=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# repeat <text> <n>: the text n times, without a newline.
repeat() {
  awk -v s="$1" -v n="$2" 'BEGIN { for (i = 0; i < n; i++) printf "%s", s }'
}

# ms: milliseconds since the epoch.
ms() {
  echo $(($(date +%s%N) / 1000000))
}

# script: stdin as the body of P, with a channel and an assertion.
script() {
  { echo "channel a"; printf 'P = '; cat; echo; echo "assert P :[deadlock free [F]]"; } \
    > "$dir/in.csp"
}

fail() {
  echo "FAIL: $row: $1"
  echo "$out"
  exit 1
}

check() {
  out=$(timeout 20 "$bin/ecucsp_check" "$@" "$dir/in.csp" 2>&1)
  rc=$?
}

case $row in
  parens)
    { repeat "(" 100000; printf 'STOP'; repeat ")" 100000; } | script
    check --no-lint --no-cache
    [ "$rc" -eq 2 ] || fail "exit $rc"
    echo "$out" | grep -q 'parse error at 2:[0-9]*: expression nests too deeply' ||
      fail "no parse error"
    ;;
  prefix)
    { repeat "a -> " 10000; printf 'STOP'; } | script
    check --no-lint --no-cache
    if [ "$rc" -eq 1 ]; then
      echo "$out" | grep -q "evaluation error at 2:[0-9]*: the evaluator's stack is exhausted" ||
        fail "no evaluation error"
    elif [ "$rc" -eq 2 ]; then
      echo "$out" | grep -q 'parse error at 2:[0-9]*: expression nests too deeply' ||
        fail "no parse error"
    else
      fail "exit $rc"
    fi
    ;;
  interleave | seq)
    if [ "$row" = seq ]; then op=" ; a -> SKIP"; first="a -> SKIP"; else
      op=" ||| a -> STOP"; first="a -> STOP"; fi
    { printf '%s' "$first"; repeat "$op" 20000; } | script
    check --no-lint --no-cache
    [ "$rc" -eq 1 ] || fail "exit $rc"
    echo "$out" | grep -q "evaluation error at 2:[0-9]*: the evaluator's stack is exhausted" ||
      fail "no evaluation error"
    ;;
  capl)
    { echo "variables { int x; }"; printf 'on start { x = '; repeat "(" 50000
      printf '1'; repeat ")" 50000; echo '; }'; } > "$dir/in.can"
    out=$(timeout 20 "$bin/ecucsp_lint" --capl "$dir/in.can" 2>&1)
    rc=$?
    [ "$rc" -eq 1 ] || fail "exit $rc"
    echo "$out" | grep -q 'in.can:2:[0-9]*: error: .*input nests too deeply \[E001\]' ||
      fail "no E001"
    ;;
  lattice)
    printf '%s\n' "channel a : {0..11}" "channel reset" \
      "pow2(i) = if i == 0 then 1 else 2 * pow2(i - 1)" \
      "P(m) = if m == 4095 then reset -> P(0) else [] i:{0..11} @ (if (m / pow2(i)) % 2 == 1 then STOP else a.i -> P(m + pow2(i)))" \
      "assert P(0) :[deadlock free]" > "$dir/in.csp"
    start=$(ms)
    check
    took=$(($(ms) - start))
    [ "$rc" -eq 0 ] || fail "exit $rc"
    echo "$out" | grep -q '^check assert #1 .* passed  (4096 states' || fail "not passed"
    [ "$took" -lt 1000 ] || fail "took $took ms"
    ;;
  deadline)
    printf '%s\n' "channel a : {0..11}" \
      "P(s) = [] i:{0..11} @ (if member(i, s) then STOP else a.i -> P(union(s, {i})))" \
      "assert P({}) :[deadlock free]" > "$dir/in.csp"
    start=$(ms)
    check --timeout 500
    took=$(($(ms) - start))
    [ "$rc" -eq 1 ] || fail "exit $rc"
    echo "$out" | grep -q '^check assert #1 .* timed out ' || fail "not timed out"
    [ "$took" -lt 2000 ] || fail "took $took ms"
    ;;
  *)
    echo "unknown row '$row'"
    exit 2
    ;;
esac
