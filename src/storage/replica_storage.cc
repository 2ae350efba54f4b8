#include "storage/replica_storage.h"

#include <charconv>
#include <chrono>
#include <stdexcept>

#include "common/bytes.h"

namespace ss::storage {

namespace {

/// The counter in `path`, 0 when the file does not exist. A file that
/// exists but holds no counter throws: read as 0, it would restart the USIG
/// counter below values already certified, or reuse a key epoch.
template <typename T>
T read_counter(const Env& env, const std::string& path) {
  const std::optional<Bytes> raw = env.read_file(path);
  if (!raw) return 0;
  const char* text = reinterpret_cast<const char*>(raw->data());
  const char* end = text + raw->size();
  T value = 0;
  const auto [last, error] = std::from_chars(text, end, value);
  if (raw->empty() || error != std::errc{} || last != end) {
    throw std::runtime_error("replica storage: " + path + " holds no counter");
  }
  return value;
}

std::uint64_t wall_ns() {
  // Wall-clock time feeds latency histograms only, never anything the
  // deterministic simulation compares across replicas or runs.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ReplicaStorage::ReplicaStorage(Env& env, std::string dir,
                               std::string metrics_prefix)
    : env_(env),
      dir_(std::move(dir)),
      wal_(env_, dir_),
      checkpoints_(env_, dir_),
      fsync_ns_(obs::Registry::instance().histogram("storage.fsync_ns")) {
  epoch_ = read_counter<std::uint32_t>(env_, dir_ + "/epoch");
  usig_lease_ = read_counter<std::uint64_t>(env_, dir_ + "/usig");
  metrics_ = obs::Registry::instance().add_source(
      std::move(metrics_prefix), [this](const obs::Registry::Emit& emit) {
        emit("decisions_logged", static_cast<double>(stats_.decisions_logged));
        emit("checkpoints_written",
             static_cast<double>(stats_.checkpoints_written));
        emit("recoveries", static_cast<double>(stats_.recoveries));
        emit("records_replayed", static_cast<double>(stats_.records_replayed));
        emit("wal_records_recovered",
             static_cast<double>(wal_.stats().records_recovered));
        emit("wal_torn_bytes_dropped",
             static_cast<double>(wal_.stats().torn_bytes_dropped));
        emit("wal_appends", static_cast<double>(wal_.stats().appends));
        emit("wal_truncations", static_cast<double>(wal_.stats().truncations));
        emit("key_epoch", static_cast<double>(epoch_));
      });
}

void ReplicaStorage::append_decision(ConsensusId cid, ByteView batch) {
  std::uint64_t start = wall_ns();
  wal_.append(cid.value, batch);
  fsync_ns_.record(static_cast<std::int64_t>(wall_ns() - start));
  ++stats_.decisions_logged;
}

void ReplicaStorage::write_checkpoint(const CheckpointMeta& meta,
                                      Pieces full_snapshot) {
  checkpoints_.write(meta, std::move(full_snapshot));
  // Only after the checkpoint's rename is durable may the WAL prefix it
  // covers disappear; the reverse order could lose decisions on a crash.
  std::uint64_t truncations_before = wal_.stats().truncations;
  wal_.truncate_through(meta.cid.value);
  ++stats_.checkpoints_written;
  if (wal_.stats().truncations != truncations_before) {
    ++obs::Registry::instance().counter("storage.wal_truncations");
  }
}

std::uint32_t ReplicaStorage::bump_epoch() {
  write_counter("epoch", ++epoch_);
  return epoch_;
}

void ReplicaStorage::write_usig_lease(std::uint64_t lease) {
  usig_lease_ = lease;
  write_counter("usig", lease);
}

void ReplicaStorage::write_counter(const char* name, std::uint64_t value) {
  // Written under a tmp name, synced, renamed over the old file and the
  // rename made durable, as CheckpointStore writes a snapshot: rewritten in
  // place, a kill between write_file's truncation and its write would
  // leave an empty file.
  const std::string path = dir_ + "/" + name;
  env_.write_file(path + ".tmp", ss::bytes_of(std::to_string(value)));
  env_.rename_file(path + ".tmp", path);
  env_.sync_dir(dir_);
}

void ReplicaStorage::note_recovery(std::uint64_t duration_ns,
                                   std::uint64_t records_replayed) {
  ++stats_.recoveries;
  stats_.records_replayed = records_replayed;
  ++obs::Registry::instance().counter("storage.recoveries");
  obs::Registry::instance()
      .histogram("storage.recovery_ns")
      .record(static_cast<std::int64_t>(duration_ns));
}

}  // namespace ss::storage
