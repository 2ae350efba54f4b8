#!/usr/bin/env sh
# `load_openloop` range-checks its numeric flags before it spawns anything:
# an f outside deploy's [1, 64] or an alarm share outside [0, 100] is a
# usage error (exit 2). SS_DEPLOY names a binary that always fails, so a
# value that got past the check makes the run exit 1 instead, as the
# in-range controls show.
#
# Usage: tools/check_load_openloop_args.sh <load_openloop binary>
set -u

bench="${1:?usage: check_load_openloop_args.sh <load_openloop binary>}"

status=0
# expect <exit status> <flag> <value>
expect() {
  SS_DEPLOY=false "$bench" "$2" "$3" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne "$1" ]; then
    echo "error: load_openloop $2 $3 exited $code, want $1" >&2
    status=1
  fi
}

for f in -1 0 65 4294967297; do
  expect 2 --f "$f"
done
for pct in -5 101 250; do
  expect 2 --alarm-pct "$pct"
done
expect 1 --f 64
expect 1 --alarm-pct 100
[ "$status" -eq 0 ] && echo "args OK: $bench rejects every out-of-range flag"
exit "$status"
