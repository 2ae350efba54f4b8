// Unit tests for src/common: serialization, bytes, rng, config, ids.
#include <gtest/gtest.h>

#include <limits>

#include "common/bytes.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "common/types.h"

namespace ss {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes data{0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001deadbeefff"), data);
  EXPECT_EQ(from_hex("0001DEADBEEFFF"), data);
}

TEST(Bytes, HexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, StringConversion) {
  Bytes b = bytes_of("scada");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(string_of(b), "scada");
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a{1, 2, 3};
  Bytes b{1, 2, 3};
  Bytes c{1, 2, 4};
  Bytes d{1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
}

TEST(Serialization, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  Writer w;
  w.varint(GetParam());
  Reader r(w.bytes());
  EXPECT_EQ(r.varint(), GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, 1ULL << 63,
                      std::numeric_limits<std::uint64_t>::max()));

TEST(Serialization, StringsAndBlobs) {
  Writer w;
  w.str("");
  w.str("hello scada");
  w.blob(Bytes{9, 8, 7});
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello scada");
  EXPECT_EQ(r.blob(), (Bytes{9, 8, 7}));
}

TEST(Serialization, TruncationThrows) {
  Writer w;
  w.u64(1);
  Bytes data = std::move(w).take();
  data.pop_back();
  Reader r(data);
  EXPECT_THROW(r.u64(), DecodeError);
}

TEST(Serialization, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
}

TEST(Serialization, MalformedVarintThrows) {
  Bytes data(11, 0x80);  // never terminates
  Reader r(data);
  EXPECT_THROW(r.varint(), DecodeError);
}

// A value has one byte form: the one Writer::varint writes.
TEST(Serialization, NonCanonicalVarintThrows) {
  const Bytes overlong{0x81, 0x80, 0x00};  // 1 with two padding groups
  Reader r1(overlong);
  EXPECT_THROW(r1.varint(), DecodeError);
  Bytes past_64_bits(9, 0xff);  // 2^64-1 with six bits past the 64th
  past_64_bits.push_back(0x7f);
  Reader r2(past_64_bits);
  EXPECT_THROW(r2.varint(), DecodeError);
  const Bytes zero{0x00};  // a single zero byte is 0's canonical form
  Reader r3(zero);
  EXPECT_EQ(r3.varint(), 0u);
}

TEST(Serialization, RandomVarintsRoundTrip) {
  Rng rng(0x5eed);
  for (int i = 0; i < 2000; ++i) {
    // Every length from 1 to 10 bytes: a random value shifted down.
    const std::uint64_t v = rng.next() >> (i % 64);
    Writer w;
    w.varint(v);
    Reader r(w.bytes());
    ASSERT_EQ(r.varint(), v);
    ASSERT_TRUE(r.done());
  }
}

TEST(Serialization, BooleanRejectsGarbage) {
  Bytes data{7};
  Reader r(data);
  EXPECT_THROW(r.boolean(), DecodeError);
}

TEST(Serialization, BlobLengthBeyondBufferThrows) {
  Writer w;
  w.varint(1000);  // claims 1000 bytes, provides none
  Reader r(w.bytes());
  EXPECT_THROW(r.blob(), DecodeError);
}

TEST(Serialization, BlobViewReadsInPlace) {
  Writer w;
  w.blob(Bytes{9, 8, 7});
  w.u8(1);
  Reader r(w.bytes());
  ByteView blob = r.blob_view();
  EXPECT_EQ(blob.data(), w.bytes().data() + 1);  // no copy
  EXPECT_EQ(Bytes(blob.begin(), blob.end()), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.u8(), 1);
  Writer lying;
  lying.varint(1000);
  Reader bad(lying.bytes());
  EXPECT_THROW(bad.blob_view(), DecodeError);
}

/// Pieces' bytes joined, in order.
Bytes joined(const Pieces& pieces) {
  Writer w;
  pieces.write_to(w);
  return std::move(w).take();
}

TEST(Pieces, AppendKeepsOrderAndTakesOwnedBytesOver) {
  const Bytes lying = {0xa1, 0xa2};  // a view's bytes stay where they lie
  Pieces tail(8);
  tail.writer().u8(3);
  tail.view(lying);
  tail.writer().u8(4);
  const std::uint8_t* owned_before = nullptr;
  tail.for_each([&](ByteView piece) {
    if (piece.size() == 1 && piece[0] == 3) owned_before = piece.data();
  });

  Pieces head;
  head.writer().u8(1);
  head.adopt(Bytes{2});
  head.append(std::move(tail));
  head.writer().u8(5);

  EXPECT_EQ(joined(head), (Bytes{1, 2, 3, 0xa1, 0xa2, 4, 5}));
  EXPECT_EQ(head.size(), 7u);
  // The appended owned bytes did not move, and the view still points at
  // the original buffer.
  bool owned_kept = false;
  bool view_kept = false;
  head.for_each([&](ByteView piece) {
    owned_kept |= piece.data() == owned_before;
    view_kept |= piece.data() == lying.data();
  });
  EXPECT_TRUE(owned_kept);
  EXPECT_TRUE(view_kept);
  EXPECT_EQ(tail.size(), 0u);  // NOLINT(bugprone-use-after-move)

  Pieces empty;
  head.append(std::move(empty));
  EXPECT_EQ(joined(head), (Bytes{1, 2, 3, 0xa1, 0xa2, 4, 5}));
}

TEST(StrongIds, ComparisonAndHash) {
  ItemId a{1}, b{2}, c{1};
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(a.next(), b);
  EXPECT_EQ(std::hash<ItemId>{}(a), std::hash<ItemId>{}(c));
}

TEST(StrongIds, SerializationRoundTrip) {
  Writer w;
  w.id(ConsensusId{123456789});
  w.id(ReplicaId{3});
  Reader r(w.bytes());
  EXPECT_EQ(r.id<ConsensusId>(), ConsensusId{123456789});
  EXPECT_EQ(r.id<ReplicaId>(), ReplicaId{3});
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    std::int64_t v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(11);
  Rng child = parent.fork();
  // The child stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

class QuorumMath : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QuorumMath, QuorumsIntersectAndTolerate) {
  std::uint32_t f = GetParam();
  GroupConfig g = GroupConfig::for_f(f);
  EXPECT_EQ(g.n, 3 * f + 1);
  // Byzantine quorum: any two quorums intersect in at least f+1 replicas.
  EXPECT_GE(2 * g.quorum(), g.n + f + 1);
  // A quorum must be reachable with f replicas down.
  EXPECT_LE(g.quorum(), g.n - f);
  EXPECT_EQ(g.reply_quorum(), f + 1);
  EXPECT_EQ(g.sync_quorum(), 2 * f + 1);
  EXPECT_GE(g.majority(), g.n / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(FSweep, QuorumMath, ::testing::Values(1, 2, 3, 5, 10));

TEST(GroupConfig, RejectsInsufficientReplicas) {
  EXPECT_THROW(GroupConfig(3, 1), std::invalid_argument);
  EXPECT_NO_THROW(GroupConfig(4, 1));
  EXPECT_NO_THROW(GroupConfig(5, 1));
}

TEST(GroupConfig, RejectsAnFWhoseGroupSizeOverflows) {
  // 3f + 1 and 2f + 1 used to wrap in 32 bits: for_f(2^32 - 1) gave
  // n = 2^32 - 2 with a reply quorum of 0.
  EXPECT_THROW(GroupConfig::for_f(0xFFFFFFFF), std::invalid_argument);
  EXPECT_THROW(GroupConfig::for_f(0x55555555), std::invalid_argument);
  EXPECT_THROW(GroupConfig::for_protocol(Protocol::kMinBft, 0x80000000),
               std::invalid_argument);
  EXPECT_THROW(GroupConfig(0xFFFFFFFE, 0xFFFFFFFF), std::invalid_argument);

  // The largest f whose group size fits still builds, with sane quorums.
  GroupConfig pbft = GroupConfig::for_f(0x55555554);
  EXPECT_EQ(pbft.n, 0xFFFFFFFDu);
  EXPECT_EQ(pbft.reply_quorum(), 0x55555555u);
  EXPECT_GE(2 * std::uint64_t{pbft.quorum()}, std::uint64_t{pbft.n} + pbft.f + 1);
  EXPECT_LE(pbft.quorum(), pbft.n - pbft.f);
  GroupConfig minbft = GroupConfig::for_protocol(Protocol::kMinBft, 0x7FFFFFFF);
  EXPECT_EQ(minbft.n, 0xFFFFFFFFu);
  EXPECT_EQ(minbft.quorum(), 0x80000000u);
}

TEST(GroupConfig, LeaderRotation) {
  GroupConfig g = GroupConfig::for_f(1);
  EXPECT_EQ(g.leader_for(0), ReplicaId{0});
  EXPECT_EQ(g.leader_for(1), ReplicaId{1});
  EXPECT_EQ(g.leader_for(4), ReplicaId{0});
  EXPECT_EQ(g.replica_ids().size(), 4u);
}

TEST(Time, UnitHelpers) {
  EXPECT_EQ(micros(1), 1000);
  EXPECT_EQ(millis(1), 1000000);
  EXPECT_EQ(seconds(1), 1000000000);
}

}  // namespace
}  // namespace ss
