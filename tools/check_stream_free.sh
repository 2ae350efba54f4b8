#!/usr/bin/env sh
# A deploy role constructs no C++ stream: the first std::ifstream,
# std::ostringstream or std::cout a process touches initialises every
# libstdc++ locale facet, about 0.45 MB resident in each of the n = 3f+1
# replica processes (DESIGN.md §10). This gate fails if the binary imports
# any iostream or locale symbol; files go through common/file.h and
# storage::PosixEnv, text through snprintf and std::string.
#
# Usage: tools/check_stream_free.sh <binary>
# Exits 77 (ctest's SKIP_RETURN_CODE) when nm is not installed.
set -eu

binary="${1:?usage: check_stream_free.sh <binary>}"
if ! command -v nm >/dev/null 2>&1; then
  echo "nm not found; skipping the stream-free check of $binary"
  exit 77
fi

imports=$(nm -D --undefined-only -C "$binary")
offenders=$(printf '%s\n' "$imports" |
  grep -E 'std::locale|std::ios_base|basic_ios|basic_[a-z]*stream|basic_filebuf|std::(i|o|io)stream\b' ||
  true)

if [ -n "$offenders" ]; then
  echo "error: $binary imports C++ stream or locale symbols:" >&2
  echo "$offenders" >&2
  echo "read files with read_whole_file (common/file.h), write them with" >&2
  echo "storage::PosixEnv, and format with snprintf or std::string" >&2
  exit 1
fi
echo "stream-free OK: $binary imports no iostream or locale symbol"
