// Proactive-recovery edge cases the supervisor test doesn't cover: durable
// reincarnation of the *current leader* mid-view (must trigger a clean view
// change, not a stall), the session-key epoch handover window (old-epoch
// traffic accepted inside the window, rejected after it), the supervisor's
// restart-budget amnesty, and the durable epoch counter's crash semantics.
#include <gtest/gtest.h>

#include "bft/messages.h"
#include "core/replicated_deployment.h"
#include "core/supervisor.h"
#include "crypto/keychain.h"
#include "storage/env.h"
#include "storage/replica_storage.h"

namespace ss::core {
namespace {

ReplicatedOptions durable_options() {
  ReplicatedOptions options;
  options.costs = sim::CostModel::zero();
  options.costs.hop_latency = micros(50);
  options.durable = true;
  options.checkpoint_interval = 8;
  return options;
}

// ---------------------------------------------------------------------------
// Leader reincarnation mid-view

TEST(ProactiveRecovery, LeaderReincarnationTriggersCleanViewChange) {
  ReplicatedDeployment system(durable_options());
  ItemId item = system.add_point("sensor");
  system.start();

  // Establish traffic under the initial leader (replica 0, regency 0).
  for (int i = 0; i < 5; ++i) {
    system.frontend().field_update(item, scada::Variant{double(i)});
    system.run_until(system.loop().now() + millis(100));
  }
  ASSERT_EQ(system.replica(0).regency(), 0u);

  // Reincarnate the leader while traffic keeps flowing: the group must
  // view-change to a new leader instead of stalling until it returns.
  system.kill_replica_process(0);
  int sent = 5;
  for (int i = 0; i < 10; ++i) {
    system.frontend().field_update(item, scada::Variant{double(100 + i)});
    ++sent;
    system.run_until(system.loop().now() + millis(200));
  }
  EXPECT_GT(system.replica(1).regency(), 0u);
  EXPECT_EQ(system.hmi().counters().updates_received,
            static_cast<std::uint64_t>(sent));

  // The rebooted ex-leader rejoins the new view on a fresh epoch.
  system.restart_replica_process(0);
  system.run_until(system.loop().now() + seconds(2));
  EXPECT_FALSE(system.replica(0).crashed());
  EXPECT_GT(system.replica(0).key_epoch(), 0u);
  system.frontend().field_update(item, scada::Variant{999.0});
  system.run_until(system.loop().now() + seconds(1));
  EXPECT_EQ(system.hmi().counters().updates_received,
            static_cast<std::uint64_t>(sent + 1));
  // The phase traffic for that update carried the installed regency, so the
  // ex-leader has adopted it (state transfer alone doesn't ship regencies).
  EXPECT_EQ(system.replica(0).regency(), system.replica(1).regency());
  // Quiesce (no new client traffic), then verify all masters converged.
  system.net().set_policy(kFrontendEndpoint, kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());
  system.run_until(system.loop().now() + seconds(3));
  EXPECT_TRUE(system.masters_converged());
}

// ---------------------------------------------------------------------------
// Key-epoch handover window edges

/// Injects a WRITE envelope from `from_replica` MACed with `epoch`-keys into
/// `to_replica` — the adversary's stolen-key forgery from the chaos engine,
/// reduced to a single deterministic message.
void inject_with_epoch(ReplicatedDeployment& system, std::uint32_t from_replica,
                       std::uint32_t to_replica, std::uint32_t epoch) {
  const std::string from = crypto::replica_principal(ReplicaId{from_replica});
  const std::string to = crypto::replica_principal(ReplicaId{to_replica});
  bft::PhaseVote vote;
  vote.cid = ConsensusId{1};
  vote.voter = ReplicaId{from_replica};
  bft::Envelope env;
  env.type = bft::MsgType::kWrite;
  env.sender = from;
  env.epoch = epoch;
  env.body = vote.encode();
  env.mac = system.keys().mac(
      from, to, epoch,
      bft::envelope_mac_material(env.type, from, to, epoch, env.body));
  system.net().send(from, to, env.encode());
}

TEST(ProactiveRecovery, OldEpochAcceptedInsideHandoverWindow) {
  ReplicatedOptions options = durable_options();
  options.epoch_handover_window = millis(500);
  ReplicatedDeployment system(options);
  ItemId item = system.add_point("sensor");
  system.start();

  // Reincarnate replica 1; traffic makes every peer adopt its new epoch.
  system.kill_replica_process(1);
  system.run_until(system.loop().now() + millis(200));
  system.restart_replica_process(1);
  for (int i = 0; i < 2; ++i) {
    system.frontend().field_update(item, scada::Variant{double(i)});
    system.run_until(system.loop().now() + millis(100));
  }
  ASSERT_GT(system.replica(1).key_epoch(), 0u);

  // An epoch-(current-1) message lands while the handover window is open:
  // accepted (no rejection counted) — in-flight traffic MACed just before
  // the reboot must not be dropped.
  std::uint64_t before = system.replica_stats(0).epoch_rejections;
  inject_with_epoch(system, 1, 0, system.replica(1).key_epoch() - 1);
  system.run_until(system.loop().now() + millis(100));
  EXPECT_EQ(system.replica_stats(0).epoch_rejections, before);
}

TEST(ProactiveRecovery, OldEpochRejectedAfterHandoverWindow) {
  ReplicatedOptions options = durable_options();
  options.epoch_handover_window = millis(500);
  ReplicatedDeployment system(options);
  ItemId item = system.add_point("sensor");
  system.start();

  system.kill_replica_process(1);
  system.run_until(system.loop().now() + millis(200));
  system.restart_replica_process(1);
  for (int i = 0; i < 2; ++i) {
    system.frontend().field_update(item, scada::Variant{double(i)});
    system.run_until(system.loop().now() + millis(100));
  }
  std::uint32_t stolen = system.replica(1).key_epoch() - 1;

  // Let the handover window lapse, then replay: rejected and counted.
  system.run_until(system.loop().now() + millis(700));
  std::uint64_t before = system.replica_stats(0).epoch_rejections;
  inject_with_epoch(system, 1, 0, stolen);
  system.run_until(system.loop().now() + millis(100));
  EXPECT_EQ(system.replica_stats(0).epoch_rejections, before + 1);

  // A current-epoch message from the same sender still flows.
  std::uint64_t rejected = system.replica_stats(0).epoch_rejections;
  system.frontend().field_update(item, scada::Variant{42.0});
  system.run_until(system.loop().now() + millis(300));
  EXPECT_EQ(system.replica_stats(0).epoch_rejections, rejected);
  EXPECT_TRUE(system.masters_converged());
}

// ---------------------------------------------------------------------------
// Restart-budget amnesty (the --supervise reset bugfix)

TEST(RestartBudgetTest, BacksOffExponentiallyAndExhausts) {
  RestartBudget budget(/*max_attempts=*/3, /*healthy_reset_ms=*/10'000,
                       /*base_backoff_ms=*/200);
  budget.on_start(0);
  EXPECT_EQ(budget.on_death(100), 200);
  budget.on_start(300);
  EXPECT_EQ(budget.on_death(400), 400);
  budget.on_start(800);
  EXPECT_EQ(budget.on_death(900), 800);
  budget.on_start(1700);
  EXPECT_EQ(budget.on_death(1800), -1);  // budget exhausted
  EXPECT_TRUE(budget.exhausted());
}

TEST(RestartBudgetTest, SustainedHealthyUptimeGrantsAmnesty) {
  RestartBudget budget(/*max_attempts=*/3, /*healthy_reset_ms=*/10'000,
                       /*base_backoff_ms=*/200);
  budget.on_start(0);
  budget.on_death(100);
  budget.on_start(300);
  budget.on_death(400);
  EXPECT_EQ(budget.attempts(), 2u);

  // A crash *after* a long healthy stretch counts as a fresh burst: the
  // pre-death amnesty check resets the counter before charging the death.
  budget.on_start(1000);
  EXPECT_EQ(budget.on_death(20'000), 200);  // back to the base backoff
  EXPECT_EQ(budget.attempts(), 1u);

  // The periodic liveness tick resets it without waiting for a death.
  budget.on_start(30'000);
  budget.note_healthy(45'000);
  EXPECT_EQ(budget.attempts(), 0u);
}

// ---------------------------------------------------------------------------
// Durable key-epoch counter

TEST(ReplicaStorageEpoch, EpochSurvivesReopenAndUnsyncedDrop) {
  storage::MemEnv env;
  {
    storage::ReplicaStorage storage(env, "replica-9", "storage/replica-9");
    EXPECT_EQ(storage.key_epoch(), 0u);
    EXPECT_EQ(storage.bump_epoch(), 1u);
    EXPECT_EQ(storage.bump_epoch(), 2u);
  }
  // kill -9: the epoch file is written synced, so the bump survives the
  // unsynced-byte drop and the next incarnation continues from it.
  env.drop_unsynced("replica-9/");
  {
    storage::ReplicaStorage storage(env, "replica-9", "storage/replica-9");
    EXPECT_EQ(storage.key_epoch(), 2u);
    EXPECT_EQ(storage.bump_epoch(), 3u);
  }
}

}  // namespace
}  // namespace ss::core
