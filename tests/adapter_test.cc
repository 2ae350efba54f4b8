// Unit tests for the Adapter in isolation: request routing, ContextInfo
// stamping, queries, malformed input, timeout-vote authentication, and
// snapshot/restore with timer re-arming.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bft/replica.h"
#include "core/adapter.h"
#include "core/requests.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace ss::core {
namespace {

// A tiny fake capturing pushes without a real Replica... the Adapter only
// needs push_to_client and charge(), so we use a real Replica with a null
// application around a *second* master? Simpler: the Adapter works without
// a replica attached (pushes are skipped); routing decisions are still
// visible through master counters and adapter stats.

struct AdapterHarness {
  sim::EventLoop loop;
  sim::Network net{loop, 0, 0};
  crypto::Keychain keys{"adapter-test"};
  GroupConfig group = GroupConfig::for_f(1);
  scada::ScadaMaster master;
  Adapter adapter;
  ItemId item;

  AdapterHarness()
      : master(make_master_options()),
        adapter(net, group, ReplicaId{0}, keys, master, make_options()) {
    adapter.register_client("hmi", ClientId{1});
    adapter.register_client("frontend", ClientId{2});
    item = master.add_item("x");
    // Subscribe the HMI so updates produce pushes.
    scada::Subscribe sub{scada::Channel::kDa, ItemId{0}, "hmi"};
    bft::ExecuteContext ctx;
    ctx.client = ClientId{1};
    adapter.execute_ordered(ctx,
                            CoreRequest::scada(scada::ScadaMessage{sub}).encode());
  }

  static scada::MasterOptions make_master_options() {
    scada::MasterOptions options;
    options.deterministic = true;
    return options;
  }

  static AdapterOptions make_options() {
    AdapterOptions options;
    options.write_timeout = millis(100);
    return options;
  }

  bft::ExecuteContext ctx(std::uint64_t cid, SimTime ts, std::uint32_t client) {
    bft::ExecuteContext c;
    c.cid = ConsensusId{cid};
    c.timestamp = ts;
    c.client = ClientId{client};
    return c;
  }
};

TEST(AdapterTest, StampsDeterministicContext) {
  AdapterHarness h;
  scada::ItemUpdate update;
  update.ctx.op = OpId{9};
  update.item = h.item;
  update.value = scada::Variant{5.0};

  Bytes reply = h.adapter.execute_ordered(
      h.ctx(7, millis(33), 2),
      CoreRequest::scada(scada::ScadaMessage{update}).encode());
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0], 1);  // positive ack

  // The master saw the update with the agreed timestamp, not a local clock.
  const scada::Item* mirror = h.master.item(h.item);
  EXPECT_EQ(mirror->timestamp, millis(33));
  // 2: the harness's Subscribe plus this update.
  EXPECT_EQ(h.adapter.stats().scada_requests, 2u);
}

TEST(AdapterTest, MalformedRequestNegativeAckNoCrash) {
  AdapterHarness h;
  bft::ExecuteContext ctx = h.ctx(1, millis(1), 2);
  Bytes reply = h.adapter.execute_ordered(ctx, Bytes{0xff, 0xff, 0xff});
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0], 0);  // deterministic negative ack
  // Valid CoreRequest wrapping garbage SCADA bytes: also a negative ack.
  CoreRequest req{CoreRequestKind::kScada, Bytes{0x77, 0x01}};
  reply = h.adapter.execute_ordered(ctx, req.encode());
  EXPECT_EQ(reply[0], 0);
}

TEST(AdapterTest, WriteArmsTimeoutAndWriteResultCancels) {
  AdapterHarness h;
  scada::WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = scada::Variant{1.0};
  h.adapter.execute_ordered(
      h.ctx(1, millis(1), 1),
      CoreRequest::scada(scada::ScadaMessage{write}).encode());
  EXPECT_EQ(h.adapter.stats().timeouts_armed, 1u);
  EXPECT_TRUE(h.master.has_pending_write(OpId{5}));

  scada::WriteResult result;
  result.ctx.op = OpId{5};
  result.item = h.item;
  result.status = scada::WriteStatus::kOk;
  h.adapter.execute_ordered(
      h.ctx(2, millis(2), 2),
      CoreRequest::scada(scada::ScadaMessage{result}).encode());
  EXPECT_EQ(h.adapter.stats().timeouts_cancelled, 1u);
  EXPECT_FALSE(h.master.has_pending_write(OpId{5}));

  // The timer never fires.
  h.loop.run_until(seconds(1));
  EXPECT_EQ(h.adapter.stats().timeout_votes_sent, 0u);
}

TEST(AdapterTest, ExpiredWriteBroadcastsVotes) {
  AdapterHarness h;
  scada::WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = scada::Variant{1.0};
  h.adapter.execute_ordered(
      h.ctx(1, millis(1), 1),
      CoreRequest::scada(scada::ScadaMessage{write}).encode());

  h.loop.run_until(seconds(1));
  // One vote to each of the 3 peers.
  EXPECT_EQ(h.adapter.stats().timeout_votes_sent, 3u);
}

TEST(AdapterTest, TimeoutResultInjectsSyntheticWriteResult) {
  AdapterHarness h;
  scada::WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = scada::Variant{1.0};
  h.adapter.execute_ordered(
      h.ctx(1, millis(1), 1),
      CoreRequest::scada(scada::ScadaMessage{write}).encode());

  Bytes reply = h.adapter.execute_ordered(
      h.ctx(2, millis(2), 100), CoreRequest::timeout_result(OpId{5}).encode());
  EXPECT_EQ(reply[0], 1);
  EXPECT_FALSE(h.master.has_pending_write(OpId{5}));
  EXPECT_EQ(h.adapter.stats().timeout_injections, 1u);

  // Duplicate injection (another adapter also voted): idempotent no-op.
  h.adapter.execute_ordered(h.ctx(3, millis(3), 101),
                            CoreRequest::timeout_result(OpId{5}).encode());
  EXPECT_EQ(h.adapter.stats().timeout_injections, 1u);
}

TEST(AdapterTest, ForgedTimeoutVotesIgnored) {
  AdapterHarness h;
  scada::WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = scada::Variant{1.0};
  h.adapter.execute_ordered(
      h.ctx(1, millis(1), 1),
      CoreRequest::scada(scada::ScadaMessage{write}).encode());

  // A vote frame with a garbage MAC must be discarded.
  TimeoutVote vote{OpId{5}, ReplicaId{1}};
  Bytes body = vote.encode();
  Writer w;
  w.str("adapter/1");
  w.blob(body);
  crypto::Digest bad_mac{};
  w.raw(ByteView(bad_mac));
  h.net.send("adapter/1", h.adapter.endpoint(), std::move(w).take());
  h.loop.run_until(millis(10));
  EXPECT_EQ(h.adapter.stats().timeout_votes_received, 0u);
}

TEST(AdapterTest, AuthenticTimeoutVotesCounted) {
  AdapterHarness h;
  scada::WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = scada::Variant{1.0};
  h.adapter.execute_ordered(
      h.ctx(1, millis(1), 1),
      CoreRequest::scada(scada::ScadaMessage{write}).encode());

  // A properly MAC'd vote from adapter/1.
  TimeoutVote vote{OpId{5}, ReplicaId{1}};
  Bytes body = vote.encode();
  Writer material;
  material.str("adapter/1");
  material.str(h.adapter.endpoint());
  material.blob(body);
  crypto::Digest mac =
      h.keys.mac("adapter/1", h.adapter.endpoint(), material.bytes());
  Writer w;
  w.str("adapter/1");
  w.blob(body);
  w.raw(ByteView(mac));
  h.net.send("adapter/1", h.adapter.endpoint(), std::move(w).take());
  h.loop.run_until(millis(10));
  EXPECT_EQ(h.adapter.stats().timeout_votes_received, 1u);
}

TEST(AdapterTest, QueriesServeLocalState) {
  AdapterHarness h;
  scada::ItemUpdate update;
  update.ctx.op = OpId{1};
  update.item = h.item;
  update.value = scada::Variant{7.5};
  h.adapter.execute_ordered(
      h.ctx(1, millis(1), 2),
      CoreRequest::scada(scada::ScadaMessage{update}).encode());

  Bytes reply = h.adapter.execute_unordered(
      ClientId{1}, encode_query(QueryKind::kReadItem, h.item));
  Reader r(reply);
  ASSERT_TRUE(r.boolean());
  scada::Item item = scada::Item::decode(r);
  EXPECT_DOUBLE_EQ(item.value.as_double(), 7.5);

  Bytes digest_reply = h.adapter.execute_unordered(
      ClientId{1}, encode_query(QueryKind::kStateDigest));
  EXPECT_EQ(digest_reply.size(), 32u);
  crypto::Digest expected = h.master.state_digest();
  EXPECT_EQ(Bytes(expected.begin(), expected.end()), digest_reply);

  Bytes count_reply = h.adapter.execute_unordered(
      ClientId{1}, encode_query(QueryKind::kEventCount));
  Reader cr(count_reply);
  EXPECT_EQ(cr.varint(), h.master.storage().size());
}

/// `field` of the registry source `source` in Registry::json(); -1 when
/// either is absent.
double source_metric(const std::string& source, const std::string& field) {
  const std::string json = obs::Registry::instance().json();
  const std::size_t at = json.find("\"" + source + "\":{");
  if (at == std::string::npos) return -1;
  const std::string key = "\"" + field + "\":";
  const std::size_t end = json.find('}', at);
  const std::size_t found = json.find(key, at);
  if (found == std::string::npos || found > end) return -1;
  return std::strtod(json.c_str() + found + key.size(), nullptr);
}

TEST(AdapterTest, RegistryReportsTheReplicatedLogsEncodedSizes) {
  AdapterHarness h;
  h.master.handlers(h.item).emplace<scada::MonitorHandler>(
      scada::MonitorHandler::Condition::kAbove, 10.0);
  for (std::uint64_t op = 1; op <= 40; ++op) {
    scada::ItemUpdate update;
    update.ctx.op = OpId{(std::uint64_t{5} << 40) | op};
    update.item = h.item;
    update.value = scada::Variant{1e9 + static_cast<double>(op)};
    h.adapter.execute_ordered(
        h.ctx(op, millis(static_cast<SimTime>(op)), 2),
        CoreRequest::scada(scada::ScadaMessage{update}).encode());
  }
  ASSERT_EQ(h.master.storage().resident(), 40u);
  const std::string source = adapter_principal(ReplicaId{0});
  EXPECT_EQ(source_metric(source, "master.events_resident"), 40.0);
  EXPECT_EQ(source_metric(source, "master.event_log_bytes"),
            static_cast<double>(h.master.storage().log_bytes()));
  EXPECT_EQ(source_metric(source, "master.historian_bytes"),
            static_cast<double>(h.master.historian().bytes()));
  EXPECT_GT(h.master.storage().log_bytes(), 0u);
  EXPECT_GT(h.master.historian().bytes(), 0u);
}

TEST(AdapterTest, RestoreReArmsPendingWriteTimers) {
  AdapterHarness h;
  scada::WriteValue write;
  write.ctx.op = OpId{5};
  write.item = h.item;
  write.value = scada::Variant{1.0};
  h.adapter.execute_ordered(
      h.ctx(1, millis(1), 1),
      CoreRequest::scada(scada::ScadaMessage{write}).encode());
  Bytes snapshot = h.adapter.snapshot();

  // A second harness restores the snapshot: the pending write must get a
  // fresh logical-timeout timer.
  AdapterHarness other;
  other.adapter.restore(snapshot);
  EXPECT_TRUE(other.master.has_pending_write(OpId{5}));
  other.loop.run_until(seconds(1));
  EXPECT_EQ(other.adapter.stats().timeout_votes_sent, 3u);
}

TEST(AdapterTest, UnknownSourceCounted) {
  AdapterHarness h;
  scada::ItemUpdate update;
  update.ctx.op = OpId{1};
  update.item = h.item;
  update.value = scada::Variant{1.0};
  // Client 99 is not registered: the message is still executed (the BFT
  // layer authenticated it), but output routing records the gap.
  Bytes reply = h.adapter.execute_ordered(
      h.ctx(1, millis(1), 99),
      CoreRequest::scada(scada::ScadaMessage{update}).encode());
  EXPECT_EQ(reply[0], 1);
}

}  // namespace
}  // namespace ss::core
