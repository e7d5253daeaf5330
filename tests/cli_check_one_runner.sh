#!/bin/sh
# ecucsp_check runs every script assertion as a task on the batch
# scheduler, whatever the job count:
#   state-limit  --max-states binds without --jobs: a 3^10-state system
#                ends in a 'state limit' check line and exit 1;
#   timeout      so does --timeout: the same system ends 'timed out';
#   jobs         the check lines, counterexamples included, are
#                byte-identical at the default job count and at --jobs 4
#                once timings are stripped.
#
#   sh tests/cli_check_one_runner.sh <ecucsp_check> <state-limit|timeout|jobs>
check=$1
row=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# k interleaved cyclers C_i = p_i -> q_i -> C_i: 3^k states.
cyclers() {
  ch=""; procs=""; sys=""
  for i in $(seq 0 $(($1 - 1))); do
    ch="$ch${ch:+, }p$i, q$i"
    procs="${procs}C$i = p$i -> q$i -> C$i
"
    sys="$sys${sys:+ ||| }C$i"
  done
  printf '%s\n%s%s\n' "channel $ch" "$procs" "SYS = $sys"
}

expect_row() {  # <expected line text> <ecucsp_check options...>
  want=$1
  shift
  out=$("$check" --no-cache "$@" "$dir/sys.csp")
  rc=$?
  if [ "$rc" -ne 1 ] ||
    ! echo "$out" | grep -q "^check assert #1 .* $want "; then
    echo "FAIL: ecucsp_check $* (exit $rc)"
    echo "$out"
    exit 1
  fi
}

case $row in
  state-limit|timeout)
    { cyclers 10; echo "assert SYS :[deadlock free [F]]"; } > "$dir/sys.csp"
    if [ "$row" = state-limit ]; then
      expect_row "state limit" --max-states 100
    else
      expect_row "timed out" --timeout 1
    fi
    ;;
  jobs)
    {
      cyclers 6
      echo "SPEC = p0 -> q0 -> SPEC"
      echo "assert SYS :[deadlock free [F]]"
      echo "assert SPEC [T= C0"
      echo "assert SPEC [T= SYS"
      echo "assert SYS :[deterministic]"
    } > "$dir/sys.csp"
    strip() {
      sed -E 's/\([0-9]+ states, [0-9.]+ ms\)//' "$1" | grep -E '^(check |  )'
    }
    "$check" --no-cache "$dir/sys.csp" > "$dir/one.out"
    rc1=$?
    "$check" --no-cache --jobs 4 "$dir/sys.csp" > "$dir/four.out"
    rc4=$?
    strip "$dir/one.out" > "$dir/one.cmp"
    strip "$dir/four.out" > "$dir/four.cmp"
    # SPEC [T= SYS fails, so both runs exit 1.
    test "$rc1" -eq 1 && test "$rc4" -eq 1 &&
      test "$(grep -c '^check ' "$dir/one.cmp")" -eq 4 &&
      grep -q 'FAILED' "$dir/one.cmp" &&
      diff -u "$dir/one.cmp" "$dir/four.cmp"
    ;;
  *)
    echo "unknown row '$row'"
    exit 2
    ;;
esac
