// Unit tests for the durability layer: CRC framing, WAL torn-tail repair,
// atomic checkpoints, and the crash model of the in-memory Env.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/serialization.h"
#include "obs/metrics.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/replica_storage.h"
#include "storage/wal.h"
#include "heap_usage.h"

namespace ss::storage {
namespace {

Bytes payload_of(const std::string& s) { return bytes_of(s); }

// --- crc32 -----------------------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(ByteView{}), 0x00000000u);
  EXPECT_NE(crc32(bytes_of("abc")), crc32(bytes_of("abd")));
}

TEST(Crc32, ChainsAcrossPieces) {
  // The CRC of a buffer equals the CRC chained over any split of it, so a
  // checkpoint written in pieces carries the CRC of the joined file.
  const Bytes whole = bytes_of("123456789");
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    ByteView head(whole.data(), cut);
    ByteView tail(whole.data() + cut, whole.size() - cut);
    EXPECT_EQ(crc32(tail, crc32(head)), 0xCBF43926u) << "cut at " << cut;
  }
  EXPECT_EQ(crc32(ByteView{}, 0xCBF43926u), 0xCBF43926u);
}

// --- MemEnv crash model ----------------------------------------------------

TEST(MemEnv, DropUnsyncedLosesOnlyUnsyncedBytes) {
  MemEnv env;
  auto file = env.open_append("f");
  file->append(payload_of("durable"));
  file->sync();
  file->append(payload_of("+lost"));

  env.drop_unsynced();  // the simulated kill -9

  EXPECT_EQ(env.read_file("f").value(), payload_of("durable"));
}

TEST(MemEnv, DropUnsyncedScopedByPrefixSparesOtherReplicas) {
  MemEnv env;
  auto mine = env.open_append("replica-1/wal");
  mine->append(payload_of("mine-unsynced"));
  auto theirs = env.open_append("replica-10/wal");
  theirs->append(payload_of("theirs-unsynced"));

  // Killing replica 1 must not touch replica 10's in-flight bytes (note the
  // trailing "/": "replica-1" alone would prefix-match "replica-10" too).
  env.drop_unsynced("replica-1/");

  EXPECT_EQ(env.read_file("replica-1/wal").value(), Bytes{});
  EXPECT_EQ(env.read_file("replica-10/wal").value(),
            payload_of("theirs-unsynced"));
}

TEST(MemEnv, RenameIsAtomicReplace) {
  MemEnv env;
  env.write_file("a", payload_of("new"));
  env.write_file("b", payload_of("old"));
  env.rename_file("a", "b");
  EXPECT_FALSE(env.file_exists("a"));
  EXPECT_EQ(env.read_file("b").value(), payload_of("new"));
}

// --- WAL -------------------------------------------------------------------

TEST(Wal, AppendRecoverRoundtrip) {
  MemEnv env;
  {
    Wal wal(env, "d");
    wal.append(1, payload_of("one"));
    wal.append(2, payload_of("two"));
    wal.append(3, payload_of("three"));
  }
  Wal reopened(env, "d");
  ASSERT_EQ(reopened.records().size(), 3u);
  EXPECT_EQ(reopened.records()[0].seq, 1u);
  EXPECT_EQ(reopened.records()[2].payload, payload_of("three"));
  EXPECT_EQ(reopened.stats().records_recovered, 3u);
  EXPECT_EQ(reopened.stats().torn_bytes_dropped, 0u);
}

TEST(Wal, TornTailIsTruncatedNotFatal) {
  MemEnv env;
  std::size_t intact_size = 0;
  {
    Wal wal(env, "d");
    wal.append(1, payload_of("one"));
    wal.append(2, payload_of("two"));
    intact_size = env.raw("d/wal")->size();
    wal.append(3, payload_of("three"));
  }
  // A crash mid-append: only part of record 3 made it to disk.
  env.raw("d/wal")->resize(intact_size + 5);

  Wal reopened(env, "d");
  ASSERT_EQ(reopened.records().size(), 2u);
  EXPECT_EQ(reopened.stats().torn_bytes_dropped, 5u);
  // The torn bytes are gone from disk and the next append lands cleanly.
  reopened.append(3, payload_of("retry"));
  Wal again(env, "d");
  ASSERT_EQ(again.records().size(), 3u);
  EXPECT_EQ(again.records()[2].payload, payload_of("retry"));
}

TEST(Wal, FlippedByteDropsTheRecordAndEverythingAfter) {
  MemEnv env;
  std::size_t first_two = 0;
  {
    Wal wal(env, "d");
    wal.append(1, payload_of("one"));
    wal.append(2, payload_of("two"));
    first_two = env.raw("d/wal")->size();
    wal.append(3, payload_of("three"));
    wal.append(4, payload_of("four"));
  }
  // Bit rot inside record 3's payload: CRC fails, and record 4 — although
  // intact on disk — is unreachable past the corruption point.
  (*env.raw("d/wal"))[first_two + 20] ^= 0xff;

  Wal reopened(env, "d");
  ASSERT_EQ(reopened.records().size(), 2u);
  EXPECT_EQ(reopened.records()[1].seq, 2u);
  EXPECT_GT(reopened.stats().torn_bytes_dropped, 0u);
}

TEST(Wal, TrailingGarbageIsDropped) {
  MemEnv env;
  {
    Wal wal(env, "d");
    wal.append(1, payload_of("one"));
  }
  Bytes garbage = payload_of("garbage!");
  Bytes* raw = env.raw("d/wal");
  raw->insert(raw->end(), garbage.begin(), garbage.end());

  Wal reopened(env, "d");
  ASSERT_EQ(reopened.records().size(), 1u);
  EXPECT_EQ(reopened.stats().torn_bytes_dropped, garbage.size());
}

TEST(Wal, TruncateThroughDropsThePrefixDurably) {
  MemEnv env;
  {
    Wal wal(env, "d");
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      wal.append(seq, payload_of("r" + std::to_string(seq)));
    }
    wal.truncate_through(3);
    ASSERT_EQ(wal.records().size(), 2u);
    EXPECT_EQ(wal.records()[0].seq, 4u);
    // The handle survives the rewrite: appends keep working.
    wal.append(6, payload_of("r6"));
  }
  Wal reopened(env, "d");
  ASSERT_EQ(reopened.records().size(), 3u);
  EXPECT_EQ(reopened.records()[0].seq, 4u);
  EXPECT_EQ(reopened.records()[2].seq, 6u);
}

TEST(Wal, TruncateThroughIsANoOpBelowTheFirstRecord) {
  MemEnv env;
  Wal wal(env, "d");
  wal.append(5, payload_of("five"));
  wal.truncate_through(4);
  EXPECT_EQ(wal.records().size(), 1u);
  EXPECT_EQ(wal.stats().truncations, 0u);
}

TEST(Wal, RecoveredRecordsAreHandedOverOnceThenReadFromDisk) {
  MemEnv env;
  {
    Wal wal(env, "d");
    wal.append(1, payload_of("one"));
    wal.append(2, payload_of("two"));
  }
  Wal reopened(env, "d");
  std::vector<Wal::Record> taken = reopened.take_recovered();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[1].payload, payload_of("two"));
  // A replica rebooted in place recovers again with the Wal still open: it
  // gets what the disk holds now, appends since the open included.
  reopened.append(3, payload_of("three"));
  reopened.truncate_through(1);
  std::vector<Wal::Record> again = reopened.take_recovered();
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].seq, 2u);
  EXPECT_EQ(again[1].payload, payload_of("three"));
}

TEST(WalFootprint, AppendsKeepNoRecordInMemory) {
  // The log lives in the file only: 20 000 appends without a truncation
  // leave nothing on the heap but the (in-memory) file's own buffer.
  SS_REQUIRE_HEAP_USAGE();
  constexpr std::uint64_t kAppends = 20000;
  const Bytes payload(64, 0x5a);
  MemEnv env;
  Wal wal(env, "d");
  const std::size_t before = test::heap_in_use();
  const std::size_t file_before = env.raw("d/wal")->capacity();
  for (std::uint64_t seq = 1; seq <= kAppends; ++seq) wal.append(seq, payload);
  const std::size_t file_growth = env.raw("d/wal")->capacity() - file_before;
  const std::size_t used = test::heap_in_use() - before;
  EXPECT_LE(used, file_growth + 64 * 1024)
      << (used - file_growth) / kAppends << " bytes per record beyond the file";
  EXPECT_EQ(wal.stats().appends, kAppends);
}

/// Forwards to a MemEnv and samples the heap in use around every call, so a
/// test can bound what an operation holds at its peak (a buffer read back
/// is live until the calls after the read).
class HeapProbeEnv final : public Env {
 public:
  explicit HeapProbeEnv(MemEnv& env) : env_(env) {}

  std::size_t peak() const { return peak_; }
  void reset_peak() { peak_ = test::heap_in_use(); }

  std::optional<Bytes> read_file(const std::string& path) const override {
    std::optional<Bytes> data = env_.read_file(path);
    sample();
    return data;
  }
  void write_file(const std::string& path, ByteView data) override {
    sample();
    env_.write_file(path, data);
    sample();
  }
  void write_file(const std::string& path, const Pieces& data) override {
    sample();
    env_.write_file(path, data);
    sample();
  }
  std::unique_ptr<AppendFile> open_append(const std::string& path) override {
    sample();
    auto file = env_.open_append(path);
    sample();
    return file;
  }
  void rename_file(const std::string& from, const std::string& to) override {
    sample();
    env_.rename_file(from, to);
    sample();
  }
  void sync_dir(const std::string& dir) override {
    sample();
    env_.sync_dir(dir);
  }
  void remove_file(const std::string& path) override { env_.remove_file(path); }
  bool file_exists(const std::string& path) const override {
    return env_.file_exists(path);
  }
  void truncate_file(const std::string& path, std::size_t size) override {
    env_.truncate_file(path, size);
  }
  void create_dirs(const std::string& dir) override { env_.create_dirs(dir); }

 private:
  void sample() const { peak_ = std::max(peak_, test::heap_in_use()); }

  MemEnv& env_;
  mutable std::size_t peak_ = 0;
};

TEST(WalFootprint, TruncatingACoveredLogReadsNothingBack) {
  // A checkpoint normally covers every record the log holds; the log then
  // empties without being read back into memory.
  SS_REQUIRE_HEAP_USAGE();
  MemEnv mem;
  HeapProbeEnv env(mem);
  Wal wal(env, "d");
  const Bytes payload(1024, 0x5a);
  for (std::uint64_t seq = 1; seq <= 1024; ++seq) wal.append(seq, payload);
  ASSERT_GT(mem.raw("d/wal")->size(), std::size_t{1} << 20);
  const std::size_t before = test::heap_in_use();
  env.reset_peak();
  wal.truncate_through(1024);
  const std::size_t grown = env.peak() > before ? env.peak() - before : 0;
  EXPECT_LT(grown, 16u * 1024) << "bytes at the peak of the truncation";
  EXPECT_TRUE(wal.records().empty());
  EXPECT_EQ(wal.stats().truncations, 1u);
  // The emptied log takes appends and truncates as before.
  wal.append(1025, payload);
  wal.truncate_through(1024);
  EXPECT_EQ(wal.records().size(), 1u);
  EXPECT_EQ(wal.stats().truncations, 1u);
}

/// Forwards to a MemEnv and keeps, before and after every call that
/// changes a file, the disk a `kill -9` at that moment would leave. A
/// write_file also leaves the state PosixEnv passes through between its
/// open(O_TRUNC) and its write: the file there, and empty.
class CrashPointEnv final : public Env {
 public:
  explicit CrashPointEnv(MemEnv& env) : env_(env) {}

  std::vector<MemEnv> images;

  std::optional<Bytes> read_file(const std::string& path) const override {
    return env_.read_file(path);
  }
  void write_file(const std::string& path, ByteView data) override {
    around([&] {
      truncated(path);
      env_.write_file(path, data);
    });
  }
  void write_file(const std::string& path, const Pieces& data) override {
    around([&] {
      truncated(path);
      env_.write_file(path, data);
    });
  }
  std::unique_ptr<AppendFile> open_append(const std::string& path) override {
    std::unique_ptr<AppendFile> file;
    around([&] { file = env_.open_append(path); });
    return file;
  }
  void rename_file(const std::string& from, const std::string& to) override {
    around([&] { env_.rename_file(from, to); });
  }
  void sync_dir(const std::string& dir) override {
    around([&] { env_.sync_dir(dir); });
  }
  void remove_file(const std::string& path) override {
    around([&] { env_.remove_file(path); });
  }
  bool file_exists(const std::string& path) const override {
    return env_.file_exists(path);
  }
  void truncate_file(const std::string& path, std::size_t size) override {
    around([&] { env_.truncate_file(path, size); });
  }
  void create_dirs(const std::string& dir) override { env_.create_dirs(dir); }

 private:
  template <typename F>
  void around(F&& step) {
    capture();
    step();
    capture();
  }
  void capture() {
    MemEnv image = env_;
    image.drop_unsynced();
    images.push_back(std::move(image));
  }
  void truncated(const std::string& path) {
    capture();
    images.back().write_file(path, ByteView{});
  }

  MemEnv& env_;
};

std::vector<std::uint64_t> seqs_after_crash(MemEnv& image) {
  Wal reopened(image, "d");
  std::vector<std::uint64_t> seqs;
  for (const Wal::Record& r : reopened.records()) seqs.push_back(r.seq);
  return seqs;
}

TEST(Wal, EveryStepOfATruncationLeavesTheOldOrTheNewLogAfterACrash) {
  const std::vector<std::uint64_t> all{1, 2, 3, 4, 5};
  // through = 5 covers every record (the log empties without a read);
  // through = 3 leaves a real suffix.
  for (const auto& [through, kept] :
       {std::make_pair(std::uint64_t{5}, std::vector<std::uint64_t>{}),
        std::make_pair(std::uint64_t{3}, std::vector<std::uint64_t>{4, 5})}) {
    MemEnv mem;
    {
      Wal wal(mem, "d");
      for (std::uint64_t seq : all) wal.append(seq, payload_of("r"));
    }
    CrashPointEnv env(mem);
    Wal wal(env, "d");
    env.images.clear();
    wal.truncate_through(through);
    // Write the new log, rename it into place, sync the directory, reopen.
    ASSERT_GE(env.images.size(), 8u) << through;
    bool saw_old = false;
    bool saw_new = false;
    for (MemEnv& image : env.images) {
      const std::vector<std::uint64_t> seqs = seqs_after_crash(image);
      saw_old |= seqs == all;
      saw_new |= seqs == kept;
      EXPECT_TRUE(seqs == all || seqs == kept) << through;
    }
    EXPECT_TRUE(saw_old && saw_new) << through;
    wal.append(6, payload_of("r"));
    std::vector<std::uint64_t> after = kept;
    after.push_back(6);
    EXPECT_EQ(seqs_after_crash(mem), after) << through;
  }
}

// --- checkpoints -----------------------------------------------------------

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.cid = ConsensusId{42};
  ckpt.last_timestamp = 123456;
  ckpt.app_digest.fill(0xAB);
  ckpt.full_snapshot = payload_of("snapshot-bytes");
  return ckpt;
}

TEST(CheckpointStore, WriteLoadRoundtrip) {
  MemEnv env;
  CheckpointStore store(env, "d");
  EXPECT_FALSE(store.load().has_value());

  store.write(sample_checkpoint());
  std::optional<Checkpoint> loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cid.value, 42u);
  EXPECT_EQ(loaded->last_timestamp, 123456);
  EXPECT_EQ(loaded->app_digest[0], 0xAB);
  EXPECT_EQ(loaded->full_snapshot, payload_of("snapshot-bytes"));
  EXPECT_FALSE(env.file_exists("d/snapshot.tmp"));
}

TEST(CheckpointStore, SecondWriteAtomicallyReplacesTheFirst) {
  MemEnv env;
  CheckpointStore store(env, "d");
  store.write(sample_checkpoint());
  Checkpoint newer = sample_checkpoint();
  newer.cid = ConsensusId{84};
  store.write(newer);
  EXPECT_EQ(store.load()->cid.value, 84u);
}

TEST(CheckpointStore, StaleTmpFromACrashedWriteIsIgnoredAndRemoved) {
  MemEnv env;
  CheckpointStore store(env, "d");
  store.write(sample_checkpoint());
  // Crash between "write tmp" and "rename": a possibly-torn tmp survives
  // next to the previous good checkpoint.
  env.write_file("d/snapshot.tmp", payload_of("torn half-written junk"));

  std::optional<Checkpoint> loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cid.value, 42u);
  EXPECT_FALSE(env.file_exists("d/snapshot.tmp"));
}

TEST(CheckpointStore, ReadOnlyLoadIgnoresButKeepsStaleTmp) {
  MemEnv env;
  CheckpointStore store(env, "d");
  store.write(sample_checkpoint());
  env.write_file("d/snapshot.tmp", payload_of("torn half-written junk"));

  // An audit must see the good checkpoint without destroying the tmp file —
  // it is the evidence of the interrupted write.
  std::optional<Checkpoint> loaded = store.load_read_only();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cid.value, 42u);
  EXPECT_TRUE(env.file_exists("d/snapshot.tmp"));
}

/// The checkpoint file of `ckpt` in the format's own terms (magic, cid,
/// timestamp, digest blob, snapshot blob, CRC of all of it), encoded in
/// one buffer as checkpoints were before they were written in pieces.
Bytes checkpoint_file_bytes(const Checkpoint& ckpt) {
  Writer w;
  w.u32(0x53435031);  // "SCP1"
  w.id(ckpt.cid);
  w.i64(ckpt.last_timestamp);
  w.blob(ByteView(ckpt.app_digest.data(), ckpt.app_digest.size()));
  w.blob(ckpt.full_snapshot);
  const std::uint32_t crc = crc32(w.bytes());
  w.u32(crc);
  return std::move(w).take();
}

TEST(CheckpointStore, PiecesWriteTheSameBytesAsOneBuffer) {
  Checkpoint ckpt = sample_checkpoint();
  Bytes block(3000);
  for (std::size_t k = 0; k < block.size(); ++k) {
    block[k] = static_cast<std::uint8_t>(k * 7 + 1);
  }
  // Owned bytes, a view, owned bytes again, an empty view: the layout a
  // replica's snapshot has (encoded fields around views of logged blocks).
  Pieces pieces;
  pieces.writer().str("header");
  pieces.view(block);
  pieces.writer().varint(300);
  pieces.view(ByteView{});
  Writer joined;
  pieces.write_to(joined);
  ckpt.full_snapshot = joined.bytes();

  MemEnv env;
  CheckpointStore store(env, "d");
  store.write(ckpt, std::move(pieces));
  const Bytes from_pieces = *env.raw("d/snapshot");
  EXPECT_EQ(from_pieces, checkpoint_file_bytes(ckpt));
  store.write(ckpt);
  EXPECT_EQ(*env.raw("d/snapshot"), from_pieces);

  std::optional<Checkpoint> loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cid.value, 42u);
  EXPECT_EQ(loaded->last_timestamp, 123456);
  EXPECT_EQ(loaded->app_digest, ckpt.app_digest);
  EXPECT_EQ(loaded->full_snapshot, ckpt.full_snapshot);
}

TEST(PosixEnv, PiecesBeyondOneWritevCallLandInOrder) {
  // More pieces than one writev(2) call takes (IOV_MAX is 1024 on Linux).
  char tmpl[] = "/tmp/ss_storage_pieces_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/f";
  std::vector<Bytes> blocks;
  for (int k = 0; k < 2500; ++k) {
    blocks.push_back(Bytes(static_cast<std::size_t>(k % 7 + 1),
                           static_cast<std::uint8_t>(k)));
  }
  Pieces pieces;
  Bytes expected;
  for (const Bytes& block : blocks) {
    pieces.view(block);
    pieces.writer().u8(0xee);
    expected.insert(expected.end(), block.begin(), block.end());
    expected.push_back(0xee);
  }
  PosixEnv env;
  env.write_file(path, pieces);
  EXPECT_EQ(env.read_file(path).value(), expected);
  std::string cleanup = "rm -rf " + std::string(tmpl);
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

TEST(CheckpointStore, CorruptCheckpointReadsAsAbsent) {
  MemEnv env;
  CheckpointStore store(env, "d");
  store.write(sample_checkpoint());
  (*env.raw("d/snapshot"))[3] ^= 0x01;
  EXPECT_FALSE(store.load().has_value());
}

// --- ReplicaStorage --------------------------------------------------------

TEST(ReplicaStorage, CheckpointTruncatesTheWalItCovers) {
  MemEnv env;
  ReplicaStorage store(env, "d", "storage/test-0");
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    store.append_decision(ConsensusId{seq}, payload_of("b" + std::to_string(seq)));
  }
  Checkpoint ckpt = sample_checkpoint();
  ckpt.cid = ConsensusId{4};
  Pieces snapshot;
  snapshot.view(ckpt.full_snapshot);
  store.write_checkpoint(ckpt, std::move(snapshot));

  ASSERT_EQ(store.wal_records().size(), 2u);
  EXPECT_EQ(store.wal_records()[0].seq, 5u);
  EXPECT_EQ(store.load_checkpoint()->cid.value, 4u);
  EXPECT_EQ(store.stats().decisions_logged, 6u);
  EXPECT_EQ(store.stats().checkpoints_written, 1u);
  EXPECT_EQ(store.wal_stats().truncations, 1u);

  // Everything survives a "process restart" (a fresh ReplicaStorage).
  ReplicaStorage reopened(env, "d", "storage/test-0b");
  ASSERT_EQ(reopened.wal_records().size(), 2u);
  EXPECT_EQ(reopened.load_checkpoint()->cid.value, 4u);
}

TEST(ReplicaStorage, EveryStepOfAnEpochOrLeaseAdvanceLeavesTheOldOrTheNewValue) {
  MemEnv mem;
  {
    ReplicaStorage store(mem, "d", "storage/test-counters-0");
    for (int k = 0; k < 3; ++k) store.bump_epoch();
    store.write_usig_lease(128);
  }
  CrashPointEnv env(mem);
  ReplicaStorage store(env, "d", "storage/test-counters-1");
  env.images.clear();
  EXPECT_EQ(store.bump_epoch(), 4u);
  store.write_usig_lease(256);
  bool saw_old = false;
  bool saw_new = false;
  for (MemEnv& image : env.images) {
    ReplicaStorage reopened(image, "d", "storage/test-counters-image");
    const std::uint32_t epoch = reopened.key_epoch();
    const std::uint64_t lease = reopened.usig_lease();
    EXPECT_TRUE(epoch == 3 || epoch == 4) << epoch;
    EXPECT_TRUE(lease == 128 || lease == 256) << lease;
    saw_old |= epoch == 3 && lease == 128;
    saw_new |= epoch == 4 && lease == 256;
  }
  EXPECT_TRUE(saw_old && saw_new);
  // Per counter: the tmp write (with its truncated image), the rename and
  // the directory sync, each captured before and after.
  EXPECT_GE(env.images.size(), 14u);
}

TEST(ReplicaStorage, ACounterFileThatHoldsNoCounterThrows) {
  for (const char* file : {"d/epoch", "d/usig"}) {
    for (const char* text : {"", "12x", "-1", "99999999999999999999999"}) {
      MemEnv env;
      env.write_file(file, payload_of(text));
      EXPECT_THROW(ReplicaStorage(env, "d", "storage/test-unreadable"),
                   std::runtime_error)
          << file << " = \"" << text << "\"";
    }
  }
}

TEST(ReplicaStorage, NoteRecoveryFeedsTheMetrics) {
  MemEnv env;
  ReplicaStorage store(env, "d", "storage/test-1");
  std::uint64_t before = obs::Registry::instance().counter("storage.recoveries");
  store.note_recovery(/*duration_ns=*/5000, /*records_replayed=*/3);
  EXPECT_EQ(store.stats().recoveries, 1u);
  EXPECT_EQ(store.stats().records_replayed, 3u);
  EXPECT_EQ(obs::Registry::instance().counter("storage.recoveries"),
            before + 1);
  EXPECT_GT(
      obs::Registry::instance().histogram("storage.recovery_ns").count(), 0u);
}

// --- PosixEnv: the same protocol against a real filesystem -----------------

TEST(PosixEnv, WalAndCheckpointRoundtripOnRealFiles) {
  char tmpl[] = "/tmp/ss_storage_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  std::string dir = std::string(tmpl) + "/state";

  PosixEnv env;
  {
    Wal wal(env, dir);
    wal.append(1, payload_of("one"));
    wal.append(2, payload_of("two"));
    wal.truncate_through(1);
    CheckpointStore store(env, dir);
    store.write(sample_checkpoint());
  }
  {
    Wal wal(env, dir);
    ASSERT_EQ(wal.records().size(), 1u);
    EXPECT_EQ(wal.records()[0].seq, 2u);
    CheckpointStore store(env, dir);
    ASSERT_TRUE(store.load().has_value());
    EXPECT_EQ(store.load()->cid.value, 42u);
  }

  // Torn tail on a real file: chop bytes off the end.
  std::size_t size = env.read_file(dir + "/wal")->size();
  env.truncate_file(dir + "/wal", size - 3);
  Wal repaired(env, dir);
  EXPECT_EQ(repaired.records().size(), 0u);
  EXPECT_EQ(repaired.stats().torn_bytes_dropped, size - 3);

  std::string cleanup = "rm -rf " + std::string(tmpl);
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

}  // namespace
}  // namespace ss::storage
