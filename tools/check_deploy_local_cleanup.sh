#!/usr/bin/env sh
# `deploy local --supervise` with no SS_STATE_DIR makes its replicas' state
# dir under /tmp, prints it on its first line (state_dir=...), and must
# remove it after the audit, whatever files the replicas wrote there: under
# PBFT wal, snapshot and epoch, under MinBFT usig as well.
#
# Usage: tools/check_deploy_local_cleanup.sh <deploy binary>
set -u

deploy="${1:?usage: check_deploy_local_cleanup.sh <deploy binary>}"

status=0
for protocol in pbft minbft; do
  out=$(env -u SS_STATE_DIR -u SS_TRACE_DIR -u SS_PROACTIVE_PERIOD \
        SS_PROTOCOL=$protocol timeout 120 \
        "$deploy" local --f 1 --supervise --rounds 1 2>/dev/null)
  dir=$(printf '%s\n' "$out" | sed -n 's/^deploy: f=.* state_dir=\([^ ]*\)$/\1/p')
  if ! printf '%s\n' "$out" | grep -qx 'deploy: SUCCESS'; then
    echo "error: $protocol: deploy local did not print 'deploy: SUCCESS'" >&2
    status=1
  fi
  if [ -z "$dir" ]; then
    echo "error: $protocol: deploy local printed no state_dir" >&2
    status=1
  elif [ -e "$dir" ]; then
    echo "error: $protocol: $dir survived the run:" >&2
    find "$dir" >&2
    case $dir in /tmp/smart-scada-state-*) rm -rf "$dir" ;; esac
    status=1
  fi
done
exit $status
