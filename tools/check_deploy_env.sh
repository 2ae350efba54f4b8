#!/usr/bin/env sh
# `deploy` checks every SS_* setting before any role starts: a malformed
# value makes `deploy config` exit 2 (usage) instead of running with a
# default in its place, and a well-formed one is accepted.
#
# Usage: tools/check_deploy_env.sh <deploy binary>
set -u

deploy="${1:?usage: check_deploy_env.sh <deploy binary>}"

status=0
# expect <exit status> <NAME=value>: runs `deploy config` with only that one
# of the checked variables set.
expect() {
  want=$1
  setting=$2
  env -u SS_CHECKPOINT_INTERVAL -u SS_METRICS_PERIOD -u SS_PROACTIVE_PERIOD \
      -u SS_ALARM_THRESHOLD -u SS_RX_BATCH -u SS_LOG \
      "$setting" "$deploy" config >/dev/null 2>&1
  code=$?
  if [ "$code" -ne "$want" ]; then
    echo "error: $setting deploy config exited $code, want $want" >&2
    status=1
  fi
}

for setting in SS_CHECKPOINT_INTERVAL=0 SS_METRICS_PERIOD=x \
    SS_PROACTIVE_PERIOD=-1 SS_ALARM_THRESHOLD=nan SS_RX_BATCH=abc \
    SS_LOG=loud; do
  expect 2 "$setting"
done
for setting in SS_RX_BATCH=8 SS_LOG=error SS_LOG=OFF; do
  expect 0 "$setting"
done
[ "$status" -eq 0 ] && echo "env OK: $deploy rejects every malformed SS_* value"
exit "$status"
