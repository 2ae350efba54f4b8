#include "storage/replica_storage.h"

#include <chrono>
#include <cstdlib>

#include "common/bytes.h"

namespace ss::storage {

namespace {

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
  if (std::optional<Bytes> raw = env_.read_file(dir_ + "/epoch")) {
    std::string text(raw->begin(), raw->end());
    epoch_ = static_cast<std::uint32_t>(std::strtoul(text.c_str(), nullptr, 10));
  }
  if (std::optional<Bytes> raw = env_.read_file(dir_ + "/usig")) {
    std::string text(raw->begin(), raw->end());
    usig_lease_ = std::strtoull(text.c_str(), nullptr, 10);
  }
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
  ++epoch_;
  // write_file creates/truncates and syncs the file itself; a torn write
  // at worst loses the bump, which peers tolerate (the replica comes back
  // presenting its previous epoch, still accepted as current).
  std::string text = std::to_string(epoch_);
  env_.write_file(dir_ + "/epoch", ss::bytes_of(text));
  return epoch_;
}

void ReplicaStorage::write_usig_lease(std::uint64_t lease) {
  usig_lease_ = lease;
  std::string text = std::to_string(lease);
  env_.write_file(dir_ + "/usig", ss::bytes_of(text));
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
