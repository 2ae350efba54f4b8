// Checksummed write-ahead log of decided batches.
//
// One record per decided consensus instance, appended before the batch is
// executed and fsync'd before the replica acts on the decision:
//
//   [u32 len][u32 crc32][u64 seq][len payload bytes]      (all little-endian)
//
// `len` is the payload size, `seq` the ConsensusId, and the CRC covers
// seq + payload. Recovery scans front to back and TRUNCATES at the first
// record that is short, oversized, or fails its CRC — a torn tail from a
// crash mid-append is indistinguishable from bit rot, and both mean "these
// decisions were never durably logged", not "abort". Everything before the
// first bad byte is intact by construction (records are only ever appended).
//
// Checkpoints bound the log: truncate_through(seq) drops the durable prefix
// a checkpoint already covers by rewriting the suffix to wal.tmp and
// renaming it into place (with a directory fsync), so a crash at any point
// leaves either the old or the new log, never a spliced one.
//
// The log lives on disk only. The records found at open are held until
// recovery takes them; after that the Wal keeps no record in memory, only
// the highest seq it holds. A checkpoint normally covers every record, and
// then the truncation swaps in an empty log without reading the old one;
// only a real suffix (a checkpoint taken mid-replay) reads the file back to
// find the suffix's byte offset.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "storage/env.h"

namespace ss::storage {

struct WalStats {
  std::uint64_t records_recovered = 0;  ///< intact records found at open
  std::uint64_t torn_bytes_dropped = 0; ///< tail bytes discarded at open
  std::uint64_t appends = 0;
  std::uint64_t truncations = 0;
};

class Wal {
 public:
  struct Record {
    std::uint64_t seq = 0;
    Bytes payload;
  };

  /// Opens (creating if missing) `dir`/wal, scans it, and truncates any
  /// torn tail in place so the next append lands on a clean boundary.
  Wal(Env& env, std::string dir);

  /// The intact records, in the order written. While the log is as the
  /// open-time scan found it, hands over the records that scan kept (they
  /// are held only until this call or the first append or truncation);
  /// later — a replica rebooted in place, with this Wal still open — reads
  /// the file back instead.
  std::vector<Record> take_recovered();

  /// The intact records on disk now, read back from the file.
  std::vector<Record> records() const;

  /// Appends one record and fsyncs. The record is durable when this returns.
  void append(std::uint64_t seq, ByteView payload);

  /// Drops every record with seq <= `through` (atomic rewrite + rename +
  /// directory fsync). No-op when nothing would be dropped.
  void truncate_through(std::uint64_t through);

  const WalStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

 private:
  /// One intact record where it lies in the file's bytes; `end` is the
  /// offset just past it.
  struct Located {
    std::uint64_t seq = 0;
    ByteView payload;
    std::size_t end = 0;
  };
  /// The record at byte `pos` of `data`, or nullopt at the end of the data
  /// or where the record is torn or fails its CRC.
  static std::optional<Located> record_at(ByteView data, std::size_t pos);
  /// Appends `data`'s intact records to `out`; returns where they end.
  static std::size_t collect(ByteView data, std::vector<Record>& out);
  static Bytes encode_record(std::uint64_t seq, ByteView payload);
  void scan_and_repair();
  /// Keeps max_seq_ the highest seq the log holds.
  void note_seq(std::uint64_t seq);
  /// Swaps `kept` in as the whole log, durably (tmp + rename + dir fsync).
  void replace_with(ByteView kept);
  /// Frees the records found at open: the log has moved on from them.
  void drop_recovered();

  Env& env_;
  std::string dir_;
  std::string path_;
  std::unique_ptr<AppendFile> file_;
  /// Found at open; held while `recovered_current_`.
  std::vector<Record> recovered_;
  bool recovered_current_ = true;
  /// The highest seq of the records in the file; nullopt when it holds none.
  std::optional<std::uint64_t> max_seq_;
  WalStats stats_;
};

}  // namespace ss::storage
