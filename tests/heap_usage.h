// Heap bytes in use, for footprint tests that bound what a structure keeps
// resident: glibc's mallinfo2() bytes in arena chunks (uordblks) plus bytes
// in mmap'd chunks (hblkhd), read before and after building the structure.
// Sanitizer runtimes replace malloc, so there the figure means nothing and
// the tests skip.
#pragma once

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SS_HEAP_USAGE_MEASURABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SS_HEAP_USAGE_MEASURABLE 0
#endif
#endif
#if !defined(SS_HEAP_USAGE_MEASURABLE) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#define SS_HEAP_USAGE_MEASURABLE 1
#endif
#ifndef SS_HEAP_USAGE_MEASURABLE
#define SS_HEAP_USAGE_MEASURABLE 0
#endif

namespace ss::test {

/// Bytes the allocator has handed out and not yet had back.
inline std::size_t heap_in_use() {
#if SS_HEAP_USAGE_MEASURABLE
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

}  // namespace ss::test

/// Skips the calling test where heap_in_use() cannot be read.
#define SS_REQUIRE_HEAP_USAGE()                                          \
  do {                                                                   \
    if (!SS_HEAP_USAGE_MEASURABLE) {                                     \
      GTEST_SKIP() << "heap usage is not measurable in this build";      \
    }                                                                    \
  } while (0)
