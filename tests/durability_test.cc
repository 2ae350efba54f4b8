// Crash-restart durability of a replica: recovery from the on-disk
// checkpoint + WAL suffix, torn-tail repair under real corruption, state
// transfer for decisions missed while down, and rejoining an in-progress
// view change. Runs against the simulated cluster with a MemEnv "disk"
// whose crash model drops unsynced bytes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bft/messages.h"
#include "heap_usage.h"
#include "storage/env.h"
#include "storage/replica_storage.h"
#include "storage/wal.h"
#include "tests/bft_harness.h"

namespace ss::bft {
namespace {

using testing::Cluster;
using testing::KvApp;

/// Cluster where every replica logs to a shared in-memory "disk".
struct DurableCluster : Cluster {
  storage::MemEnv env;
  std::vector<std::unique_ptr<storage::ReplicaStorage>> stores;
  std::vector<Bytes> genesis;
  std::uint32_t reopen_count = 0;

  explicit DurableCluster(std::uint32_t f = 1, ReplicaOptions options = {})
      : Cluster(f, options) {
    for (std::uint32_t i = 0; i < group.n; ++i) {
      stores.push_back(std::make_unique<storage::ReplicaStorage>(
          env, dir(i), "test-storage/replica-" + std::to_string(i)));
      replicas[i]->set_storage(stores[i].get());
      // The image a fresh process would boot from, captured pre-traffic.
      genesis.push_back(replicas[i]->full_snapshot());
    }
  }

  std::string dir(std::uint32_t i) const {
    return "replica-" + std::to_string(i);
  }

  /// kill -9: all unsynced bytes on the whole "disk" are lost. (Every WAL
  /// append syncs before the decision executes, so for the other replicas
  /// this is a no-op — which is exactly the property under test.)
  void kill(std::uint32_t i) {
    env.drop_unsynced();
    replicas[i]->crash();
  }

  /// Process restart: reopen the state dir from disk (re-running the WAL
  /// scan/repair, like a fresh process would) and reboot the replica in
  /// place from its genesis image.
  void restart(std::uint32_t i) {
    stores[i].reset();  // release the metrics source prefix first
    stores[i] = std::make_unique<storage::ReplicaStorage>(
        env, dir(i),
        "test-storage/replica-" + std::to_string(i) + "-reopen-" +
            std::to_string(++reopen_count));
    replicas[i]->set_storage(stores[i].get());
    replicas[i]->reboot(genesis[i]);
  }

  /// One ordered put, driven to completion. Sequential rounds give exactly
  /// one decision per put, so cids in these tests are predictable.
  void put_round(ClientProxy& client, const std::string& key,
                 const std::string& value) {
    bool done = false;
    client.invoke_ordered(KvApp::put(key, value), [&](Bytes) { done = true; });
    run_for(millis(300));
    ASSERT_TRUE(done) << "put " << key << " did not complete";
  }
};

TEST(Durability, RestartRecoversFromDiskAlone) {
  ReplicaOptions options;
  options.checkpoint_interval = 4;
  DurableCluster cluster(1, options);
  auto client = cluster.make_client(1);

  for (int i = 0; i < 6; ++i) {
    cluster.put_round(*client, "k" + std::to_string(i), "v" + std::to_string(i));
  }
  const std::uint64_t frontier = cluster.replicas[2]->last_decided().value;
  const std::uint64_t applied = cluster.apps[2]->applied();
  const auto data = cluster.apps[2]->data();
  ASSERT_GE(frontier, 6u);

  cluster.kill(2);
  ASSERT_TRUE(cluster.replicas[2]->crashed());
  cluster.restart(2);

  // reboot() is synchronous, so everything below is proven to come from
  // disk alone — no message from a peer has been delivered yet.
  EXPECT_EQ(cluster.replicas[2]->last_decided().value, frontier);
  EXPECT_EQ(cluster.apps[2]->applied(), applied);
  EXPECT_EQ(cluster.apps[2]->data(), data);
  EXPECT_EQ(cluster.stores[2]->stats().recoveries, 1u);
  // Checkpoint at cid 4 + WAL suffix replayed through the execute path.
  EXPECT_EQ(cluster.replicas[2]->last_checkpoint_cid().value, 4u);
  EXPECT_EQ(cluster.stores[2]->stats().records_replayed, frontier - 4);

  // The rejoined replica keeps serving: another round converges with no
  // state transfer (it was already at the frontier).
  cluster.put_round(*client, "after", "restart");
  EXPECT_TRUE(cluster.apps_converged());
  EXPECT_EQ(cluster.replicas[2]->stats().state_transfers, 0u);
}

// Regression: in socket mode a SIGKILL can land between the WAL append for
// a boundary decision and the checkpoint rename it triggers, leaving a WAL
// that spans a checkpoint boundary. Replay then writes a checkpoint MID
// iteration, and that checkpoint truncates the WAL's own record vector —
// which used to invalidate the replay loop's iterators (UB). The sim cannot
// be killed inside that window (append/execute/checkpoint run in one
// event), so the test plants the boundary record directly.
TEST(Durability, ReplayAcrossCheckpointBoundarySurvivesMidReplayTruncation) {
  ReplicaOptions options;
  options.checkpoint_interval = 4;
  DurableCluster cluster(1, options);
  auto client = cluster.make_client(1);

  // 7 rounds: checkpoint at 4, WAL holding 5..7.
  for (int i = 0; i < 7; ++i) {
    cluster.put_round(*client, "k" + std::to_string(i), "v");
  }
  ASSERT_EQ(cluster.replicas[2]->last_decided().value, 7u);
  ASSERT_EQ(cluster.replicas[2]->last_checkpoint_cid().value, 4u);

  cluster.kill(2);

  // Decisions 8..10 reached the WAL (appended + synced) but the process
  // died before the checkpoint at 8 was renamed into place. Records PAST
  // the boundary matter: the mid-replay truncation destroys exactly those
  // trailing vector slots, so an iterator left dangling by it would read
  // freed payloads. Empty batches keep the records decodable without
  // forging client authenticators (replay does not re-validate what
  // consensus already ordered).
  {
    storage::Wal wal(cluster.env, cluster.dir(2));
    for (std::uint64_t seq = 8; seq <= 10; ++seq) {
      wal.append(seq, Batch{}.encode());
    }
  }

  cluster.restart(2);

  // Replay covered 5..10, crossing the interval-4 boundary at 8: the
  // mid-replay checkpoint truncated the WAL without derailing the loop,
  // and disk holds the boundary checkpoint plus the replayed suffix.
  EXPECT_EQ(cluster.replicas[2]->last_decided().value, 10u);
  EXPECT_EQ(cluster.replicas[2]->last_checkpoint_cid().value, 8u);
  EXPECT_EQ(cluster.stores[2]->stats().records_replayed, 6u);
  ASSERT_EQ(cluster.stores[2]->wal_records().size(), 2u);
  EXPECT_EQ(cluster.stores[2]->wal_records()[0].seq, 9u);
  ASSERT_TRUE(cluster.stores[2]->load_checkpoint().has_value());
  EXPECT_EQ(cluster.stores[2]->load_checkpoint()->cid.value, 8u);
  // No traffic afterwards: the planted cid-8 batch is not what the live
  // replicas will decide at cid 8, so this replica must stay retired.
}

TEST(Durability, MissedDecisionsAreFilledByStateTransfer) {
  ReplicaOptions options;
  options.checkpoint_interval = 4;
  DurableCluster cluster(1, options);
  auto client = cluster.make_client(1);

  for (int i = 0; i < 4; ++i) {
    cluster.put_round(*client, "pre" + std::to_string(i), "x");
  }
  cluster.kill(2);
  for (int i = 0; i < 6; ++i) {
    cluster.put_round(*client, "miss" + std::to_string(i), "y");
  }
  const std::uint64_t live_frontier = cluster.replicas[0]->last_decided().value;
  ASSERT_GE(live_frontier, 10u);

  cluster.restart(2);
  // Disk gets it back to the kill point (checkpoint at 4, empty WAL)...
  EXPECT_EQ(cluster.replicas[2]->last_decided().value, 4u);
  // ...and the bounded state transfer kicked off by reboot() fills the gap.
  cluster.run_for(seconds(1));
  EXPECT_EQ(cluster.replicas[2]->last_decided().value, live_frontier);
  EXPECT_TRUE(cluster.apps_converged());
  EXPECT_EQ(cluster.replicas[2]->stats().state_transfers, 1u);
  // Completing the transfer persisted a durable checkpoint at the new
  // frontier, so the WAL has no gap if the process dies again right away.
  ASSERT_TRUE(cluster.stores[2]->load_checkpoint().has_value());
  EXPECT_EQ(cluster.stores[2]->load_checkpoint()->cid.value, live_frontier);

  cluster.kill(2);
  cluster.restart(2);
  EXPECT_EQ(cluster.replicas[2]->last_decided().value, live_frontier);
  EXPECT_TRUE(cluster.apps_converged());
}

// Satellite: corrupt the WAL tail in three ways (bit flip, torn truncate,
// trailing garbage) and require recovery to the last intact record plus a
// successful write round afterwards.
TEST(Durability, TornWalTailRecoversToLastIntactRecord) {
  enum class Corruption { kFlipByte, kTruncate, kExtend };
  for (Corruption mode :
       {Corruption::kFlipByte, Corruption::kTruncate, Corruption::kExtend}) {
    SCOPED_TRACE(static_cast<int>(mode));
    DurableCluster cluster;  // default checkpoint interval: no checkpoint yet
    auto client = cluster.make_client(1);
    for (int i = 0; i < 5; ++i) {
      cluster.put_round(*client, "k" + std::to_string(i), "v");
    }
    ASSERT_EQ(cluster.replicas[2]->last_decided().value, 5u);

    cluster.kill(2);
    Bytes* wal = cluster.env.raw(cluster.dir(2) + "/wal");
    ASSERT_NE(wal, nullptr);
    switch (mode) {
      case Corruption::kFlipByte:
        (*wal)[wal->size() - 3] ^= 0xff;
        break;
      case Corruption::kTruncate:
        wal->resize(wal->size() - 10);
        break;
      case Corruption::kExtend:
        wal->insert(wal->end(), 9, std::uint8_t{0x5A});
        break;
    }

    cluster.restart(2);
    // Flip/truncate lose the final record; trailing garbage loses nothing.
    const std::uint64_t recovered = cluster.replicas[2]->last_decided().value;
    if (mode == Corruption::kExtend) {
      EXPECT_EQ(recovered, 5u);
    } else {
      EXPECT_EQ(recovered, 4u);
    }
    EXPECT_EQ(cluster.apps[2]->applied(), recovered);
    EXPECT_GT(cluster.stores[2]->wal_stats().torn_bytes_dropped, 0u);

    // The log is repaired in place: the next round both completes and
    // lands on the rejoined replica (catching up the lost record first).
    cluster.run_for(millis(500));
    cluster.put_round(*client, "post", "corruption");
    EXPECT_TRUE(cluster.apps_converged());
    EXPECT_EQ(cluster.replicas[2]->last_decided().value,
              cluster.replicas[0]->last_decided().value);
  }
}

// Satellite: a replica restarting into an in-progress view change. With the
// leader crashed and one replica down, the remaining two replicas' STOPs
// cannot reach the 2f+1 sync quorum — the system is stuck until the killed
// replica comes back from disk and joins the view change.
TEST(Durability, RestartDuringViewChangeAdoptsNewRegency) {
  ReplicaOptions options;
  options.checkpoint_interval = 4;
  DurableCluster cluster(1, options);
  auto client = cluster.make_client(1);

  for (int i = 0; i < 5; ++i) {
    cluster.put_round(*client, "k" + std::to_string(i), "v");
  }

  cluster.kill(2);
  cluster.replicas[0]->crash();  // the regency-0 leader

  bool done = false;
  client->invoke_ordered(KvApp::put("vc", "pending"),
                         [&](Bytes) { done = true; });
  cluster.run_for(seconds(1));
  // Two live replicas suspect the leader but cannot install regency 1.
  EXPECT_FALSE(done);
  EXPECT_EQ(cluster.replicas[1]->regency(), 0u);
  EXPECT_EQ(cluster.replicas[3]->regency(), 0u);

  cluster.restart(2);
  EXPECT_EQ(cluster.replicas[2]->last_decided().value, 5u);
  cluster.run_for(seconds(3));

  // The rejoined replica completed the quorum: the view change installed a
  // new regency everywhere (replica 2 adopting it via the f+1 peer-evidence
  // path if it missed the STOPs), and the stranded write went through.
  EXPECT_TRUE(done);
  const std::uint64_t regency = cluster.replicas[1]->regency();
  EXPECT_GE(regency, 1u);
  EXPECT_EQ(cluster.replicas[2]->regency(), regency);
  EXPECT_EQ(cluster.replicas[3]->regency(), regency);
  EXPECT_TRUE(cluster.apps_converged());

  // Forced checkpoints at the converged frontier must carry one digest.
  for (std::uint32_t i = 1; i <= 3; ++i) cluster.replicas[i]->checkpoint_now();
  ASSERT_TRUE(cluster.replicas[1]->last_checkpoint_digest().has_value());
  for (std::uint32_t i = 2; i <= 3; ++i) {
    EXPECT_EQ(cluster.replicas[i]->last_checkpoint_cid().value,
              cluster.replicas[1]->last_checkpoint_cid().value);
    EXPECT_EQ(*cluster.replicas[i]->last_checkpoint_digest(),
              *cluster.replicas[1]->last_checkpoint_digest());
  }
}

TEST(StateTransfer, ApplicationPiecesAreItsSnapshot) {
  KvApp app;
  ExecuteContext ctx;
  app.execute_ordered(ctx, KvApp::put("a", std::string(5000, 'x')));
  app.execute_ordered(ctx, KvApp::put("b", ""));
  Writer joined;
  app.state_pieces().write_to(joined);
  EXPECT_EQ(joined.bytes(), app.snapshot());
}

// A Byzantine peer answers a StateRequest with replies for 100 invented
// cids. The requester holds one reply per peer, the newest, and still
// completes the transfer from the f+1 correct replies.
TEST(StateTransfer, SprayedCidsHoldOneReplyPerPeer) {
  Cluster cluster(1);
  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("pre", "x"), [&](Bytes) { done = true; });
  cluster.run_for(millis(300));
  ASSERT_TRUE(done);
  cluster.replicas[3]->crash();
  for (int i = 0; i < 3; ++i) {
    done = false;
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { done = true; });
    cluster.run_for(millis(300));
    ASSERT_TRUE(done);
  }
  const std::uint64_t frontier = cluster.replicas[0]->last_decided().value;

  // Replica 2 turns Byzantine: silent toward the protocol, while "it"
  // sprays state replies carrying invented cids and snapshots.
  cluster.replicas[2]->set_byzantine(ByzantineMode::kSilent);
  cluster.replicas[3]->recover();
  for (std::uint64_t k = 1; k <= 100; ++k) {
    StateReply fake;
    fake.replica = ReplicaId{2};
    fake.cid = ConsensusId{frontier + k};
    fake.snapshot = Bytes(4096, static_cast<std::uint8_t>(k));
    Envelope env;
    env.type = MsgType::kStateReply;
    env.sender = "replica/2";
    env.body = fake.encode();
    env.mac = cluster.keys.mac(
        "replica/2", "replica/3", 0,
        envelope_mac_material(env.type, env.sender, "replica/3", 0, env.body));
    cluster.net.send("replica/2", "replica/3", env.encode());
  }
  // The spray lands one hop after the StateRequest leaves; the correct
  // replies need two.
  cluster.run_for(micros(75));
  EXPECT_EQ(cluster.replicas[3]->held_state_replies(), 1u);
  EXPECT_EQ(cluster.replicas[3]->stats().state_transfers, 0u);

  cluster.run_for(millis(200));
  EXPECT_EQ(cluster.replicas[3]->stats().state_transfers, 1u);
  EXPECT_EQ(cluster.replicas[3]->last_decided().value, frontier);
  EXPECT_EQ(cluster.replicas[3]->held_state_replies(), 0u);
  EXPECT_EQ(cluster.apps[3]->data(), cluster.apps[0]->data());
}

// A replica reincarnated behind a state of over 1 MB holds that state at
// most about three times over while the transfer lands and its checkpoint
// is written: the state it restored, the checkpoint file (the in-memory
// "disk"), and the third correct reply still queued behind the quorum.
TEST(StateTransferFootprint, ReincarnationBehindAMegabyteHoldsTheStateThrice) {
  SS_REQUIRE_HEAP_USAGE();
  ReplicaOptions options;
  options.checkpoint_interval = 4;
  DurableCluster cluster(1, options);
  auto client = cluster.make_client(1);
  cluster.put_round(*client, "warm", "x");
  cluster.kill(2);
  for (int i = 0; i < 20; ++i) {
    cluster.put_round(*client, "k" + std::to_string(i),
                      std::string(64 * 1024, static_cast<char>('a' + i)));
  }
  const std::size_t snapshot = cluster.replicas[0]->full_snapshot().size();
  ASSERT_GE(snapshot, std::size_t{1} << 20);

  // The heap is sampled whenever replica 2 syncs a file: the checkpoint
  // written right after the transfer applies is one of those moments.
  std::size_t peak = 0;
  cluster.env.set_sync_observer([&](const std::string& path) {
    if (path.rfind(cluster.dir(2) + "/", 0) == 0) {
      peak = std::max(peak, test::heap_in_use());
    }
  });
  const std::size_t before = test::heap_in_use();
  cluster.restart(2);
  cluster.run_for(millis(500));
  cluster.env.set_sync_observer(nullptr);

  ASSERT_EQ(cluster.replicas[2]->stats().state_transfers, 1u);
  ASSERT_EQ(cluster.replicas[2]->last_checkpoint_cid(),
            cluster.replicas[0]->last_decided());
  ASSERT_GT(peak, before);
  const double ratio =
      static_cast<double>(peak - before) / static_cast<double>(snapshot);
  EXPECT_LE(ratio, 3.3) << (peak - before) << " heap bytes over a "
                        << snapshot << "-byte snapshot";
  EXPECT_TRUE(cluster.apps_converged());
}

}  // namespace
}  // namespace ss::bft
