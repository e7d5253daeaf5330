#!/bin/sh
# Command-line contract shared by the eight ecucsp_* tools:
#   * a malformed command line (unknown flag, value missing at the end of
#     the line, non-numeric, negative or out-of-range number, value outside
#     a choice row) exits 2 with nothing on stdout and an error: diagnostic
#     on stderr, before any worker thread starts or any input is read;
#   * --help exits 0 and lists exactly the tool's flags plus --help.
#
#   sh tests/cli_usage_errors.sh <directory holding ecucsp_*> <replay corpus>
bin=$1
corpus=$2
fail=0
err=$(mktemp)
out=$(mktemp)

usage_error() {
  tool=$1
  shift
  timeout 10 "$bin/$tool" "$@" > "$out" 2> "$err"
  rc=$?
  if [ "$rc" -ne 2 ] || [ -s "$out" ] || ! grep -q 'error:' "$err"; then
    echo "FAIL: $tool $* (exit $rc, $(wc -c < "$out") stdout bytes)"
    fail=1
  fi
}

# Malformed numbers that the tools used to read through atoi/strtoull.
usage_error ecucsp_check --matrix --no-cache --jobs abc
usage_error ecucsp_check --matrix --no-cache --max-states abc
usage_error ecucsp_serve --tcp 70000
usage_error ecucsp_replay --max-diverge -1 "$corpus/mini.log"
# Documented bounds and zero-rejecting rows.
usage_error ecucsp_check --matrix --no-cache --jobs 257
usage_error ecucsp_check --matrix --no-cache --dilate 65
usage_error ecucsp_check --matrix --no-cache --timeout=1x
usage_error ecucsp_check --matrix --no-cache --prune=bogus
usage_error ecucsp_client --tcp 1 --fanout 0 --ping
usage_error ecucsp_client --tcp 1 --assert 0 --ping
usage_error ecucsp_conform --tests 65537
usage_error ecucsp_conform --max-len 0
usage_error ecucsp_conform --suite bogus
usage_error ecucsp_learn --eq-tests -1
usage_error ecucsp_learn --rounds 0
usage_error ecucsp_replay --jobs 18446744073709551616 "$corpus/mini.log"
usage_error ecucsp_serve --tcp 0 --jobs 257
# An unknown flag, then a value flag whose value is missing at the end.
usage_error ecucsp_check --matrix --no-cache --bogus
usage_error ecucsp_check --matrix --no-cache --jobs
usage_error ecucsp_client --tcp 1 --ping --bogus
usage_error ecucsp_client --tcp 1 --ping --timeout
usage_error ecucsp_conform --bogus
usage_error ecucsp_conform --seed
usage_error ecucsp_extract --bogus
usage_error ecucsp_extract --dbc
usage_error ecucsp_learn --bogus
usage_error ecucsp_learn --rounds
usage_error ecucsp_lint --ota --bogus
usage_error ecucsp_lint --ota --baseline
usage_error ecucsp_replay "$corpus/mini.log" --bogus
usage_error ecucsp_replay "$corpus/mini.log" --log
usage_error ecucsp_serve --tcp 0 --bogus
usage_error ecucsp_serve --tcp 0 --memo
# No chunk or shard options: replay walks each oracle once and the store
# has one layout.
usage_error ecucsp_replay --chunk 16 "$corpus/mini.log"
usage_error ecucsp_check --matrix --no-cache --shards 4
usage_error ecucsp_serve --tcp 0 --shards 4
# No JSON-lines framing: the daemon speaks one binary framing.
usage_error ecucsp_client --sock S --json m.csp

help_lists() {
  tool=$1
  shift
  timeout 10 "$bin/$tool" --help > "$out" 2> "$err"
  rc=$?
  if [ "$rc" -ne 0 ] || [ -s "$err" ]; then
    echo "FAIL: $tool --help (exit $rc)"
    fail=1
    return
  fi
  for flag in "$@" --help; do
    if ! grep -qE -- "^  $flag( |\$)" "$out"; then
      echo "FAIL: $tool --help does not list $flag"
      fail=1
    fi
  done
  rows=$(grep -cE -- '^  --' "$out")
  if [ "$rows" -ne $(($# + 1)) ]; then
    echo "FAIL: $tool --help lists $rows flags, expected $(($# + 1))"
    fail=1
  fi
}

help_lists ecucsp_check --jobs --timeout --max-states --dilate --cache-dir \
  --no-cache --cache-stats --matrix --no-lint --inject-alphabet-mismatch \
  --prune
help_lists ecucsp_client --sock --tcp --assert --asserts --fanout --each \
  --stats --ping --timeout --max-states
help_lists ecucsp_conform --suite --seed --tests --max-len --jobs --timeout \
  --max-states --json --mutate --inject-alphabet-mismatch --cache-dir
help_lists ecucsp_extract --dbc --assert --dbc-decls --fingerprint --no-lint
help_lists ecucsp_learn --seed --jobs --rounds --eq-tests --max-len \
  --timeout --json --timing --mutate --cache-dir
help_lists ecucsp_lint --capl --dbc --cspm --json --werror --baseline \
  --write-baseline --ota --list-rules
help_lists ecucsp_replay --log --dbc --spec --jobs --max-diverge \
  --max-states --strict --lenient --json
help_lists ecucsp_serve --sock --tcp --jobs --cache-dir --max-queue --memo \
  --timeout --max-states --drain-timeout

rm -f "$err" "$out"
exit $fail
