#!/usr/bin/env sh
# How the deploy binary is linked (DESIGN.md §10). Where the configure check
# in src/core/CMakeLists.txt ran a static-pie program, deploy must be
# static-pie: no NEEDED entry (no shared C/C++ runtime mapped into each
# replica), ELF type DYN (a position-independent image, loaded at a random
# base), a GNU_RELRO segment and a non-executable stack. Where it did not
# (a sanitizer build), deploy must be dynamic. So a later build change
# cannot bring back the shared runtime, or a fixed-address image, unseen.
#
# Usage: tools/check_deploy_link.sh <binary> static|dynamic
# Exits 77 (ctest's SKIP_RETURN_CODE) when readelf is not installed.
set -eu

binary="${1:?usage: check_deploy_link.sh <binary> static|dynamic}"
want="${2:?usage: check_deploy_link.sh <binary> static|dynamic}"
if ! command -v readelf >/dev/null 2>&1; then
  echo "readelf not found; skipping the link check of $binary"
  exit 77
fi

needed=$(readelf -d "$binary" | grep '(NEEDED)' || true)
status=0
fail() {
  echo "error: $binary: $1" >&2
  status=1
}

case "$want" in
  static)
    [ -z "$needed" ] || fail "links shared objects:
$needed"
    readelf -h "$binary" | grep -Eq 'Type:[[:space:]]+DYN' ||
      fail "is not a position-independent (ET_DYN) image"
    readelf -lW "$binary" | grep -q 'GNU_RELRO' ||
      fail "has no GNU_RELRO segment"
    readelf -lW "$binary" | grep 'GNU_STACK' | grep -Eq 'RW[[:space:]]' ||
      fail "has an executable or unmarked stack"
    ;;
  dynamic)
    [ -n "$needed" ] || fail "has no NEEDED entry, want a dynamic link"
    ;;
  *)
    echo "usage: check_deploy_link.sh <binary> static|dynamic" >&2
    exit 2
    ;;
esac
[ "$status" -eq 0 ] || exit "$status"
echo "link OK: $binary is $want"
