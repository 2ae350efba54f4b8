#!/usr/bin/env sh
# Two guarantees about what the deploy binary imports, checked in one
# `nm -D` pass:
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
# Usage: tools/check_deploy_imports.sh <binary>
# Exits 77 (ctest's SKIP_RETURN_CODE) when nm is not installed.
set -eu

binary="${1:?usage: check_deploy_imports.sh <binary>}"
if ! command -v nm >/dev/null 2>&1; then
  echo "nm not found; skipping the import check of $binary"
  exit 77
fi

imports=$(nm -D --undefined-only -C "$binary")
streams=$(printf '%s\n' "$imports" |
  grep -E 'std::locale|std::ios_base|basic_ios|basic_[a-z]*stream|basic_filebuf|std::(i|o|io)stream\b' ||
  true)
threads=$(printf '%s\n' "$imports" |
  grep -E 'std::thread\b|pthread_create' ||
  true)

status=0
if [ -n "$streams" ]; then
  echo "error: $binary imports C++ stream or locale symbols:" >&2
  echo "$streams" >&2
  echo "read files with read_whole_file (common/file.h), write them with" >&2
  echo "storage::PosixEnv, and format with snprintf or std::string" >&2
  status=1
fi
if [ -n "$threads" ]; then
  echo "error: $binary imports thread-start symbols:" >&2
  echo "$threads" >&2
  echo "deploy roles are single-threaded (DESIGN.md §13); a change that" >&2
  echo "starts a thread needs the ThreadSanitizer CI job back" >&2
  status=1
fi
[ "$status" -eq 0 ] || exit "$status"
echo "imports OK: $binary imports no iostream, locale or thread-start symbol"
