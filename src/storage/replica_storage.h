// Per-replica durable state: one WAL + one checkpoint store under a state
// directory, plus the observability hooks for both.
//
// Layout of a state dir (e.g. $SS_STATE_DIR/replica-2):
//   snapshot       — newest atomic checkpoint (see checkpoint.h)
//   snapshot.tmp   — transient, only during a checkpoint write
//   wal            — decided batches since that checkpoint (see wal.h)
//   wal.tmp        — transient, only during a WAL truncation
//   epoch          — the session-key epoch, in decimal
//   usig           — the USIG counter lease (MinBFT), in decimal
//   epoch.tmp, usig.tmp — transient, only while either is rewritten
//
// The ordering invariant the two files maintain together: the WAL record
// for cid is durable BEFORE the decision executes, and the WAL is truncated
// only AFTER the checkpoint covering those cids is durably renamed into
// place. Recovery therefore always finds checkpoint ∪ WAL ⊇ everything the
// replica ever acted on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace ss::storage {

struct ReplicaStorageStats {
  std::uint64_t decisions_logged = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t records_replayed = 0;  ///< WAL records replayed, last recovery
};

class ReplicaStorage {
 public:
  /// Opens (creating if needed) the state dir, scans the WAL, and repairs
  /// any torn tail. `metrics_prefix` names this replica's polled stats
  /// source in the obs registry (e.g. "storage/replica-2").
  ReplicaStorage(Env& env, std::string dir, std::string metrics_prefix);

  /// Newest valid checkpoint, or nullopt for a fresh (or wiped) replica.
  std::optional<Checkpoint> load_checkpoint() { return checkpoints_.load(); }

  /// The WAL records recovery replays, in append order: the first call
  /// hands over those the open-time scan found (see Wal::take_recovered).
  std::vector<Wal::Record> take_wal_records() { return wal_.take_recovered(); }
  /// The intact WAL records on disk now, read back from the file.
  std::vector<Wal::Record> wal_records() const { return wal_.records(); }

  /// Durably logs a decided batch. Returns only once the record is synced;
  /// the fsync latency lands in the storage.fsync_ns histogram.
  void append_decision(ConsensusId cid, ByteView batch);

  /// Durably replaces the checkpoint, written from the snapshot's pieces,
  /// then drops the WAL prefix it covers.
  void write_checkpoint(const CheckpointMeta& meta, Pieces full_snapshot);

  /// Records a completed crash recovery (for the recoveries counter and the
  /// storage.recovery_ns histogram).
  void note_recovery(std::uint64_t duration_ns, std::uint64_t records_replayed);

  /// Durable session-key epoch (see bft::Replica::key_epoch). 0 until the
  /// first bump; survives crashes — a reincarnation must never reuse a
  /// pre-crash epoch, or stolen keys would verify again.
  std::uint32_t key_epoch() const { return epoch_; }
  /// Increments and durably persists the key epoch; returns the new value.
  std::uint32_t bump_epoch();

  /// Durable USIG counter lease (see crypto::Usig). A lease that read back
  /// lower would be a safety violation — a reincarnation that reuses a
  /// counter value forges "monotonic" certificates — so the lease is
  /// persisted BEFORE any certificate it covers is issued. Like the key
  /// epoch, it is replaced atomically: a crash leaves the old value or the
  /// new one, and the constructor throws on a file it cannot parse.
  std::uint64_t usig_lease() const { return usig_lease_; }
  void write_usig_lease(std::uint64_t lease);

  const ReplicaStorageStats& stats() const { return stats_; }
  const WalStats& wal_stats() const { return wal_.stats(); }
  const std::string& dir() const { return dir_; }

 private:
  /// Durably replaces <dir>/<name> with `value` in decimal.
  void write_counter(const char* name, std::uint64_t value);

  Env& env_;
  std::string dir_;
  Wal wal_;
  CheckpointStore checkpoints_;
  std::uint32_t epoch_ = 0;
  std::uint64_t usig_lease_ = 0;
  ReplicaStorageStats stats_;
  obs::SourceHandle metrics_;
  /// "storage.fsync_ns", resolved once: recorded per WAL append.
  obs::Histogram& fsync_ns_;
};

}  // namespace ss::storage
