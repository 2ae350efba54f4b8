#include "common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ss {

void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

std::optional<Bytes> read_whole_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("open", path);
  }
  // Sized from fstat plus one byte, so a file that does not change while it
  // is read needs no buffer growth to see its end. A file that reports no
  // size (procfs) starts at one page. A full buffer doubles, by at most
  // kReadChunk: a 1 KiB procfs read never zero-fills 64 KiB of heap.
  struct stat st{};
  Bytes out(::fstat(fd, &st) == 0 && st.st_size > 0
                ? static_cast<std::size_t>(st.st_size) + 1
                : 4096);
  std::size_t size = 0;
  for (;;) {
    if (size == out.size()) out.resize(size + std::min(size, kReadChunk));
    const ssize_t n = ::read(fd, out.data() + size,
                             std::min(out.size() - size, kReadChunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      errno = err;
      throw_errno("read", path);
    }
    if (n == 0) break;
    size += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(size);
  return out;
}

}  // namespace ss
