// Filesystem seam for the durability layer.
//
// The WAL and checkpoint store never touch POSIX directly; they go through
// Env, which has two implementations:
//
//  * PosixEnv — real files, real fsync. Used by the multi-process socket
//    deployment, where a replica must survive `kill -9`.
//  * MemEnv — an in-memory filesystem for the deterministic simulator and
//    the tests. It models the one property that matters for crash safety:
//    bytes appended since the last sync() may be LOST on a crash
//    (drop_unsynced() is the simulated `kill -9`), while synced bytes and
//    completed renames survive.
//
// The seam mirrors the transport seam (net::Transport): the exact recovery
// code that runs against real disks runs in simulation, so torn-tail and
// crash-restart scenarios are exercised by the chaos engine without any I/O.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/serialization.h"

namespace ss::storage {

/// An open append-only file handle. Writes become durable only after sync().
class AppendFile {
 public:
  virtual ~AppendFile() = default;
  virtual void append(ByteView data) = 0;
  /// Flushes appended bytes to stable storage (fsync on PosixEnv).
  virtual void sync() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Whole-file read; nullopt when the file does not exist.
  virtual std::optional<Bytes> read_file(const std::string& path) const = 0;

  /// Creates/truncates `path` with `data` and syncs the file itself. The
  /// caller is responsible for the containing-directory fsync (see
  /// sync_dir) when the file's *existence* must be durable.
  virtual void write_file(const std::string& path, ByteView data) = 0;
  /// write_file of the pieces' bytes, in order, without joining them first.
  virtual void write_file(const std::string& path, const Pieces& data) = 0;

  /// Opens `path` for appending, creating it when missing.
  virtual std::unique_ptr<AppendFile> open_append(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual void rename_file(const std::string& from, const std::string& to) = 0;

  /// Fsyncs the directory itself — the step that makes a rename durable.
  /// Without it, a crash after rename can resurrect the old directory entry.
  virtual void sync_dir(const std::string& dir) = 0;

  virtual void remove_file(const std::string& path) = 0;
  virtual bool file_exists(const std::string& path) const = 0;
  virtual void truncate_file(const std::string& path, std::size_t size) = 0;
  /// mkdir -p.
  virtual void create_dirs(const std::string& dir) = 0;
};

/// Real files. All failures throw std::runtime_error: the durability layer
/// treats an I/O error as fatal for the process (a replica with a broken
/// disk must not limp along pretending to be durable).
class PosixEnv final : public Env {
 public:
  std::optional<Bytes> read_file(const std::string& path) const override;
  void write_file(const std::string& path, ByteView data) override;
  /// Gathers the pieces into writev(2) calls: one syscall per IOV_MAX
  /// pieces, not one write per piece.
  void write_file(const std::string& path, const Pieces& data) override;
  std::unique_ptr<AppendFile> open_append(const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void sync_dir(const std::string& dir) override;
  void remove_file(const std::string& path) override;
  bool file_exists(const std::string& path) const override;
  void truncate_file(const std::string& path, std::size_t size) override;
  void create_dirs(const std::string& dir) override;
};

/// Deterministic in-memory filesystem with an unsynced-tail crash model.
class MemEnv final : public Env {
 public:
  std::optional<Bytes> read_file(const std::string& path) const override;
  void write_file(const std::string& path, ByteView data) override;
  void write_file(const std::string& path, const Pieces& data) override;
  std::unique_ptr<AppendFile> open_append(const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void sync_dir(const std::string& dir) override { (void)dir; }
  void remove_file(const std::string& path) override;
  bool file_exists(const std::string& path) const override;
  void truncate_file(const std::string& path, std::size_t size) override;
  void create_dirs(const std::string& dir) override { (void)dir; }

  /// The simulated `kill -9`: every file whose path starts with `prefix`
  /// loses the bytes appended since its last sync(). The deployment passes
  /// the killed replica's state-dir prefix so one process's death cannot
  /// drop unsynced bytes from another replica's files; an empty prefix
  /// crashes the whole "machine".
  void drop_unsynced(const std::string& prefix = "");

  /// Direct mutable access for tests that corrupt bytes on "disk".
  Bytes* raw(const std::string& path);

  /// Observation hook fired on every sync (explicit AppendFile::sync and the
  /// implicit sync of write_file) with the synced path. The chaos engine's
  /// gray-failure family uses it to charge fsync-stall time to the replica
  /// whose state dir the path belongs to — a degraded disk, modeled at the
  /// exact seam where a real fsync would block.
  using SyncObserver = std::function<void(const std::string& path)>;
  void set_sync_observer(SyncObserver observer) {
    sync_observer_ = std::move(observer);
  }

 private:
  friend class MemAppendFile;
  void note_sync(const std::string& path) {
    if (sync_observer_) sync_observer_(path);
  }
  struct FileState {
    Bytes data;
    std::size_t synced_size = 0;
  };
  std::map<std::string, FileState> files_;
  SyncObserver sync_observer_;
};

}  // namespace ss::storage
