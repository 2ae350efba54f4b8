// Atomic on-disk checkpoints of replica state.
//
// A checkpoint bundles the consensus frontier (cid + deterministic batch
// timestamp), the digest of the application snapshot (what cross-replica
// convergence checks compare), and the replica's full snapshot blob (app
// state + request-dedup table + reply cache — the same encoding state
// transfer ships over the wire).
//
// Write protocol (crash-atomic):
//   1. write snapshot.tmp and fsync it          — data durable, name not
//   2. rename snapshot.tmp -> snapshot          — atomic swap
//   3. fsync the containing directory           — the NAME is now durable
//
// A crash between 1 and 2 leaves a stale snapshot.tmp next to the previous
// good checkpoint; load() must (and does) ignore it. A crash between 2 and
// 3 may come back with either the old or the new checkpoint — both are
// self-consistent because the WAL is only truncated after step 3. The file
// carries a trailing CRC-32 so a torn step-1 write that somehow got renamed
// (or plain bit rot) reads as "no checkpoint", never as corrupt state.
//
// File layout: u32 magic, varint cid, i64 timestamp, blob app digest, blob
// full snapshot, u32 CRC-32 of everything before it. The snapshot is written
// from its pieces where they lie (the event log's and the historian's
// blocks among them) and the CRC is chained over them, so a checkpoint never
// joins the state into one buffer; loading takes the file buffer over as
// the snapshot instead of copying it out.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "storage/env.h"

namespace ss::storage {

/// What a checkpoint records besides the snapshot itself.
struct CheckpointMeta {
  ConsensusId cid{0};           ///< state is valid as of this decided instance
  SimTime last_timestamp = 0;   ///< deterministic timestamp at that frontier
  crypto::Digest app_digest{};  ///< Sha256 of the application snapshot
};

struct Checkpoint : CheckpointMeta {
  Bytes full_snapshot;  ///< Replica::full_snapshot_pieces payload
};

class CheckpointStore {
 public:
  CheckpointStore(Env& env, std::string dir);

  /// Loads the newest valid checkpoint. Stale `snapshot.tmp` leftovers from
  /// a crashed write are removed, not loaded; a checkpoint that fails its
  /// CRC or decode is treated as absent.
  std::optional<Checkpoint> load();

  /// Same validation as load(), but strictly read-only: a stale
  /// `snapshot.tmp` is still ignored, but left on disk untouched. For
  /// orchestrator-side audits of a state dir kept for inspection, where the
  /// tmp file is evidence of an interrupted write the user may want to
  /// examine.
  std::optional<Checkpoint> load_read_only() const;

  /// Durably replaces the checkpoint (tmp + rename + dir fsync, see above)
  /// with one whose snapshot is `full_snapshot`'s pieces, in order.
  void write(const CheckpointMeta& meta, Pieces full_snapshot);
  /// The same, for a snapshot held in one buffer.
  void write(const Checkpoint& checkpoint);

  const std::string& path() const { return path_; }

 private:
  std::optional<Checkpoint> parse_current() const;

  Env& env_;
  std::string dir_;
  std::string path_;
  std::string tmp_path_;
};

}  // namespace ss::storage
