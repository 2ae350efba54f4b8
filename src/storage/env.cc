#include "storage/env.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <vector>

#include "common/file.h"

namespace ss::storage {

namespace {

class PosixAppendFile final : public AppendFile {
 public:
  PosixAppendFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixAppendFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  void append(ByteView data) override {
    std::size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("write", path_);
      }
      done += static_cast<std::size_t>(n);
    }
  }

  void sync() override {
    if (::fsync(fd_) != 0) throw_errno("fsync", path_);
  }

  /// Writes every piece, in order: writev(2) over up to IOV_MAX pieces at a
  /// time, resuming mid-piece after a short write.
  void append_pieces(const Pieces& data) {
    std::vector<iovec> iov;
    data.for_each([&iov](ByteView piece) {
      if (piece.empty()) return;
      iov.push_back(iovec{const_cast<std::uint8_t*>(piece.data()),
                          piece.size()});
    });
    std::size_t first = 0;
    while (first < iov.size()) {
      const int count =
          static_cast<int>(std::min<std::size_t>(iov.size() - first, IOV_MAX));
      ssize_t n = ::writev(fd_, iov.data() + first, count);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("writev", path_);
      }
      auto done = static_cast<std::size_t>(n);
      while (first < iov.size() && done >= iov[first].iov_len) {
        done -= iov[first].iov_len;
        ++first;
      }
      if (done > 0) {
        auto* base = static_cast<std::uint8_t*>(iov[first].iov_base);
        iov[first].iov_base = base + done;
        iov[first].iov_len -= done;
      }
    }
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

std::optional<Bytes> PosixEnv::read_file(const std::string& path) const {
  return read_whole_file(path);
}

void PosixEnv::write_file(const std::string& path, ByteView data) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", path);
  PosixAppendFile file(fd, path);
  file.append(data);
  file.sync();
  // file's destructor closes fd (it took ownership).
}

void PosixEnv::write_file(const std::string& path, const Pieces& data) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", path);
  PosixAppendFile file(fd, path);
  file.append_pieces(data);
  file.sync();
}

std::unique_ptr<AppendFile> PosixEnv::open_append(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw_errno("open", path);
  return std::make_unique<PosixAppendFile>(fd, path);
}

void PosixEnv::rename_file(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) throw_errno("rename", from);
}

void PosixEnv::sync_dir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("open dir", dir);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync dir", dir);
  }
  ::close(fd);
}

void PosixEnv::remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    throw_errno("unlink", path);
  }
}

bool PosixEnv::file_exists(const std::string& path) const {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void PosixEnv::truncate_file(const std::string& path, std::size_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    throw_errno("truncate", path);
  }
}

void PosixEnv::create_dirs(const std::string& dir) {
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    partial = dir.substr(0, i == dir.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      throw_errno("mkdir", partial);
    }
  }
}

// --------------------------------------------------------------------------
// MemEnv

namespace {

class MemAppendFile final : public AppendFile {
 public:
  MemAppendFile(Bytes* data, std::size_t* synced_size,
                std::function<void()> on_sync)
      : data_(data), synced_size_(synced_size), on_sync_(std::move(on_sync)) {}

  void append(ByteView data) override {
    data_->insert(data_->end(), data.begin(), data.end());
  }

  void sync() override {
    *synced_size_ = data_->size();
    if (on_sync_) on_sync_();
  }

 private:
  Bytes* data_;
  std::size_t* synced_size_;
  std::function<void()> on_sync_;
};

}  // namespace

std::optional<Bytes> MemEnv::read_file(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.data;
}

void MemEnv::write_file(const std::string& path, ByteView data) {
  FileState& file = files_[path];
  file.data.assign(data.begin(), data.end());
  file.synced_size = file.data.size();
  note_sync(path);
}

void MemEnv::write_file(const std::string& path, const Pieces& data) {
  FileState& file = files_[path];
  // A fresh buffer of the exact size: assigning into the old one would
  // keep its capacity when the file shrinks.
  Bytes bytes;
  bytes.reserve(data.size());
  data.for_each([&bytes](ByteView piece) {
    bytes.insert(bytes.end(), piece.begin(), piece.end());
  });
  file.data = std::move(bytes);
  file.synced_size = file.data.size();
  note_sync(path);
}

std::unique_ptr<AppendFile> MemEnv::open_append(const std::string& path) {
  FileState& file = files_[path];
  // NOTE: the handle points into the map entry; MemEnv must outlive handles,
  // and remove_file on a file with an open handle is not supported (the
  // durability layer never does either).
  return std::make_unique<MemAppendFile>(&file.data, &file.synced_size,
                                         [this, path] { note_sync(path); });
}

void MemEnv::rename_file(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) {
    throw std::runtime_error("rename: no such file " + from);
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
}

void MemEnv::remove_file(const std::string& path) { files_.erase(path); }

bool MemEnv::file_exists(const std::string& path) const {
  return files_.count(path) > 0;
}

void MemEnv::truncate_file(const std::string& path, std::size_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    throw std::runtime_error("truncate: no such file " + path);
  }
  FileState& file = it->second;
  if (size < file.data.size()) file.data.resize(size);
  if (file.synced_size > file.data.size()) {
    file.synced_size = file.data.size();
  }
}

void MemEnv::drop_unsynced(const std::string& prefix) {
  for (auto& [path, file] : files_) {
    if (path.compare(0, prefix.size(), prefix) != 0) continue;
    if (file.data.size() > file.synced_size) {
      file.data.resize(file.synced_size);
    }
  }
}

Bytes* MemEnv::raw(const std::string& path) {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second.data;
}

}  // namespace ss::storage

