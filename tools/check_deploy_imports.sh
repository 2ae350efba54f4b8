#!/usr/bin/env sh
# Two guarantees about the C++ runtime the deploy binary uses, checked in
# one `nm` pass:
#
# - No C++ stream: the first std::ifstream, std::ostringstream or std::cout
#   a process touches initialises every libstdc++ locale facet, about
#   0.45 MB resident in each of the n = 3f+1 replica processes (DESIGN.md
#   §10). Files go through common/file.h and storage::PosixEnv, text
#   through snprintf and std::string.
# - No thread: every role is one single-threaded process (DESIGN.md §13),
#   which is why CI runs no ThreadSanitizer job. Code that starts a thread
#   must bring that job back.
#
# A dynamic binary is judged by what it imports (`nm -D --undefined-only`).
# A static one (no NEEDED entry, as the static-pie deploy is) imports
# nothing, so it is judged by its full symbol table (`nm`): the runtime code
# it uses is linked in under the same names.
#
# Usage: tools/check_deploy_imports.sh <binary>
# Exits 1 on a stream or thread symbol; 2 when the binary cannot be read
# as ELF or, being static, has no symbol table; 77 (ctest's
# SKIP_RETURN_CODE) when nm or readelf is not installed.
set -eu

binary="${1:?usage: check_deploy_imports.sh <binary>}"
for tool in nm readelf; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "$tool not found; skipping the import check of $binary"
    exit 77
  fi
done

if ! dynamic=$(readelf -d "$binary"); then
  echo "error: cannot read $binary as ELF" >&2
  exit 2
fi
if printf '%s\n' "$dynamic" | grep -q '(NEEDED)'; then
  kind="imports"
  symbols=$(nm -D --undefined-only -C "$binary")
else
  kind="links in"
  symbols=$(nm -C "$binary" 2>/dev/null || true)
  if [ -z "$symbols" ]; then
    echo "error: $binary is static and has no symbol table to check" >&2
    exit 2
  fi
fi
streams=$(printf '%s\n' "$symbols" |
  grep -E 'std::locale|std::ios_base|basic_ios|basic_[a-z]*stream|basic_filebuf|std::(i|o|io)stream\b' ||
  true)
threads=$(printf '%s\n' "$symbols" |
  grep -E 'std::thread\b|pthread_create' ||
  true)

status=0
if [ -n "$streams" ]; then
  echo "error: $binary $kind C++ stream or locale symbols:" >&2
  echo "$streams" >&2
  echo "read files with read_whole_file (common/file.h), write them with" >&2
  echo "storage::PosixEnv, and format with snprintf or std::string" >&2
  status=1
fi
if [ -n "$threads" ]; then
  echo "error: $binary $kind thread-start symbols:" >&2
  echo "$threads" >&2
  echo "deploy roles are single-threaded (DESIGN.md §13); a change that" >&2
  echo "starts a thread needs the ThreadSanitizer CI job back" >&2
  status=1
fi
[ "$status" -eq 0 ] || exit "$status"
echo "imports OK: $binary $kind no iostream, locale or thread-start symbol"
