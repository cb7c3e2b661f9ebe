#!/bin/sh
# Compares what one pmaf invocation prints with a committed expectation.
#
#   sh pin.sh <expected-file> <pmaf> [args...]
#
# The expectation is stdout without the `; wall clock:` stats line (the
# only line that differs between runs), then `--- stderr` and stderr,
# then `--- exit <code>`. Run it from this directory so the diagnostics
# name the program by its relative path.
expected=$1
shift
tmp=$(mktemp -d)
"$@" > "$tmp/stdout" 2> "$tmp/stderr"
code=$?
{
  grep -v '^; wall clock:' "$tmp/stdout"
  echo '--- stderr'
  cat "$tmp/stderr"
  echo "--- exit $code"
} > "$tmp/actual"
diff -u "$expected" "$tmp/actual"
rc=$?
rm -rf "$tmp"
exit $rc
