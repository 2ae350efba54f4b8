// Whole-file reads through POSIX open/read, shared by the durability layer
// (storage::PosixEnv) and the socket deployment's config loader
// (net::Resolver::from_file).
//
// No C++ stream is involved: the first std::ifstream or std::ostringstream a
// process constructs initialises every libstdc++ locale facet, about
// 0.45 MB resident that a replica process would keep for its whole life
// (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "common/bytes.h"

namespace ss {

/// The most one read() call asks for; a larger file takes several calls.
inline constexpr std::size_t kReadChunk = 64 * 1024;

/// The bytes of `path`; nullopt when it does not exist. Any other failure
/// to open or read it (a directory, a permission error, an I/O error)
/// throws std::runtime_error naming the path and the errno text.
std::optional<Bytes> read_whole_file(const std::string& path);

/// Throws std::runtime_error("<what> <path>: <strerror(errno)>").
[[noreturn]] void throw_errno(const std::string& what, const std::string& path);

}  // namespace ss
