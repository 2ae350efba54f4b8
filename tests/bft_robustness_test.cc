// Robustness tests: request forwarding, flood bounds, and fuzz-ish garbage
// input at every endpoint (a Byzantine sender can put any bytes on the
// wire; nothing may crash, hang, or corrupt state).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/bft_harness.h"

namespace ss::bft {
namespace {

using testing::Cluster;
using testing::KvApp;

TEST(Forwarding, LeaderDeafToClientStillOrdersWithoutViewChange) {
  Cluster cluster;
  // The client's link to the leader (replica 0) is dead both ways; every
  // other link is fine. Without request forwarding this forces a view
  // change; with it, a follower hands the request to the leader.
  cluster.net.set_policy("client/1", "replica/0", sim::LinkPolicy::cut_link());
  cluster.net.set_policy("replica/0", "client/1", sim::LinkPolicy::cut_link());

  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(10));

  EXPECT_EQ(completed, 5);
  // The leader stayed in office the whole time...
  EXPECT_EQ(cluster.replicas[0]->regency(), 0u);
  EXPECT_EQ(cluster.replicas[0]->stats().view_changes, 0u);
  // ...because followers forwarded what it could not hear.
  std::uint64_t forwarded = 0;
  for (auto& replica : cluster.replicas) {
    forwarded += replica->stats().requests_forwarded;
  }
  EXPECT_GE(forwarded, 1u);
}

TEST(Forwarding, DisabledFallsBackToViewChange) {
  ReplicaOptions options;
  options.forward_to_leader = false;
  Cluster cluster(1, options);
  cluster.net.set_policy("client/1", "replica/0", sim::LinkPolicy::cut_link());
  cluster.net.set_policy("replica/0", "client/1", sim::LinkPolicy::cut_link());

  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("k", "v"), [&](Bytes) { done = true; });
  cluster.run_for(seconds(10));

  EXPECT_TRUE(done);
  EXPECT_GE(cluster.replicas[1]->regency(), 1u);  // had to change leader
}

// ---------------------------------------------------------------------------
// Suspicion that is lost must come again. A request's suspect timer fires
// once; a client retransmission of the still-pending request is what
// re-arms it, so the vote against a leader that never proposes is sent
// again after a loss burst swallowed the first one.

class LostSuspicion : public ::testing::TestWithParam<Protocol> {};

INSTANTIATE_TEST_SUITE_P(Engines, LostSuspicion,
                         ::testing::Values(Protocol::kPbft, Protocol::kMinBft),
                         [](const auto& info) {
                           return info.param == Protocol::kPbft ? "Pbft"
                                                                : "MinBft";
                         });

TEST_P(LostSuspicion, CensoredRequestExecutesAfterTheFirstVoteIsLost) {
  Cluster cluster(1, {}, 0xFA111, GetParam());
  const std::uint32_t n = cluster.group.n;
  // The leader never proposes, so this client's request is the only one
  // pending. Every link between two followers loses its first message:
  // the first leader-change vote each follower sends.
  cluster.replicas[0]->set_byzantine(ByzantineMode::kSilent);
  sim::LinkPolicy burst;
  burst.drop_first_n = 1;
  for (std::uint32_t i = 1; i < n; ++i) {
    for (std::uint32_t j = 1; j < n; ++j) {
      if (i == j) continue;
      cluster.net.set_policy(crypto::replica_principal(ReplicaId{i}),
                             crypto::replica_principal(ReplicaId{j}), burst);
    }
  }

  auto client = cluster.make_client(1);
  SimTime done_at = -1;
  client->invoke_ordered(KvApp::put("k", "v"),
                         [&](Bytes) { done_at = cluster.loop.now(); });
  // The first suspicion fires at request_timeout (400 ms) and is lost. A
  // retransmission comes within the client's backoff cap (1.2 s) and re-arms
  // the suspect timer for another request_timeout; the new leader then
  // orders the request in a few round trips.
  cluster.run_for(seconds(3));
  EXPECT_GE(done_at, 0) << "the request never executed";
  for (std::uint32_t i = 1; i < n; ++i) {
    EXPECT_EQ(cluster.apps[i]->applied(), 1u) << i;
  }
}

TEST(FloodProtection, ExcessPendingRequestsAreDropped) {
  ReplicaOptions options;
  options.max_pending_per_client = 8;
  options.max_batch = 1;
  Cluster cluster(1, options);

  // Freeze ordering so pending requests accumulate: cut the leader off
  // from the followers' votes.
  for (std::uint32_t i = 1; i < 4; ++i) {
    cluster.net.set_policy(crypto::replica_principal(ReplicaId{i}),
                           "replica/0", sim::LinkPolicy::cut_link());
  }

  ClientOptions client_options;
  client_options.reply_timeout = seconds(30);  // no retransmit churn
  auto client = cluster.make_client(1, client_options);
  for (int i = 0; i < 40; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"), {});
  }
  cluster.run_for(seconds(1));
  EXPECT_GE(cluster.replicas[0]->stats().requests_flood_dropped, 30u);
}

// ---------------------------------------------------------------------------
// Garbage-input fuzzing: random byte strings, truncated real messages, and
// type-confused envelopes against replicas and clients.

TEST(Fuzz, RandomBytesNeverCrashAnyEndpoint) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  Rng rng(0xF022);

  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.below(200), 0);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    std::string to = i % 5 == 4
                         ? "client/1"
                         : crypto::replica_principal(
                               ReplicaId{static_cast<std::uint32_t>(i % 4)});
    cluster.net.send("attacker", to, std::move(garbage));
  }
  cluster.run_for(seconds(1));

  // The system still works afterwards.
  bool done = false;
  client->invoke_ordered(KvApp::put("after", "fuzz"),
                         [&](Bytes) { done = true; });
  cluster.run_for(seconds(5));
  EXPECT_TRUE(done);
  EXPECT_TRUE(cluster.apps_converged());
  // And the garbage was rejected at decode/MAC stage, not executed.
  for (auto& replica : cluster.replicas) {
    EXPECT_EQ(replica->stats().requests_executed, 1u);
    EXPECT_GE(replica->stats().decode_failures +
                  replica->stats().mac_failures,
              1u);
  }
}

TEST(Fuzz, BitFlippedRealTrafficIsRejectedByMacs) {
  Cluster cluster;
  // 5% of all replica-to-replica bytes get corrupted in flight.
  sim::LinkPolicy corrupt;
  corrupt.corrupt_prob = 0.05;
  for (ReplicaId a : cluster.group.replica_ids()) {
    for (ReplicaId b : cluster.group.replica_ids()) {
      if (a == b) continue;
      cluster.net.set_policy(crypto::replica_principal(a),
                             crypto::replica_principal(b), corrupt);
    }
  }
  ClientOptions client_options;
  client_options.reply_timeout = millis(200);
  client_options.max_retries = 100;
  auto client = cluster.make_client(1, client_options);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(30));
  EXPECT_EQ(completed, 10);
  EXPECT_TRUE(cluster.apps_converged());
  std::uint64_t rejected = 0;
  for (auto& replica : cluster.replicas) {
    rejected += replica->stats().mac_failures +
                replica->stats().decode_failures;
  }
  EXPECT_GE(rejected, 1u);
}

TEST(Fuzz, TypeConfusedEnvelopesIgnored) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("x", "1"), [&](Bytes) { done = true; });
  cluster.run_for(seconds(2));
  ASSERT_TRUE(done);

  // Take a legitimate STOP body but label the envelope as a PROPOSE, with a
  // valid MAC for the mislabeled type: the decoder must reject it.
  Stop stop{5, ReplicaId{1}};
  Bytes body = stop.encode();
  Bytes material = envelope_mac_material(MsgType::kPropose, "replica/1",
                                         "replica/0", /*epoch=*/0, body);
  Envelope env;
  env.type = MsgType::kPropose;
  env.sender = "replica/1";
  env.body = body;
  env.mac = cluster.keys.mac("replica/1", "replica/0", material);
  cluster.net.send("replica/1", "replica/0", env.encode());
  cluster.run_for(seconds(1));

  EXPECT_EQ(cluster.replicas[0]->regency(), 0u);  // no spurious view change
  EXPECT_GE(cluster.replicas[0]->stats().decode_failures, 1u);
}

}  // namespace
}  // namespace ss::bft
