// Proactive-recovery edge cases the supervisor test doesn't cover: durable
// reincarnation of the *current leader* mid-view (must trigger a clean view
// change, not a stall), the session-key epoch handover window (old-epoch
// traffic accepted inside the window, rejected after it), the supervisor's
// restart-budget amnesty, the durable epoch counter's crash semantics, and a
// follower reincarnated during an alarm storm (its event log must come back
// identical, templates and inline records alike).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bft/messages.h"
#include "core/replicated_deployment.h"
#include "core/supervisor.h"
#include "crypto/keychain.h"
#include "scada/handlers.h"
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
// Reincarnation during an alarm storm

/// Every update to every one of `items` points raises an alarm; follower 2
/// is killed mid-storm and comes back by checkpoint, WAL replay and state
/// transfer. Afterwards every replica holds the same event log.
void reincarnate_during_alarm_storm(std::size_t items) {
  ReplicatedOptions options = durable_options();
  options.checkpoint_interval = 16;
  ReplicatedDeployment system(options);
  std::vector<ItemId> points;
  for (std::size_t i = 0; i < items; ++i) {
    points.push_back(system.add_point("plant/bay/" + std::to_string(i)));
  }
  system.configure_masters([&points](scada::ScadaMaster& master) {
    for (ItemId point : points) {
      master.handlers(point).emplace<scada::MonitorHandler>(
          scada::MonitorHandler::Condition::kAbove, 50.0);
    }
  });
  system.start();

  std::size_t sent = 0;
  auto update = [&] {
    system.frontend().field_update(points[sent % items],
                                   scada::Variant{100.0 + double(sent)});
    if (++sent % 8 == 0) system.run_until(system.loop().now() + millis(2));
  };
  auto storm = [&](std::size_t updates) {
    for (std::size_t k = 0; k < updates; ++k) update();
    system.run_until(system.loop().now() + millis(50));
  };
  // Past the point where every point has raised its first alarm (and, with
  // more points than the template table holds, where records go inline),
  // so the checkpoint the reboot loads holds all of it.
  storm(items + 100);
  // Kill between checkpoints, so the reboot replays a WAL suffix.
  while (system.replica(2).last_decided().value % options.checkpoint_interval ==
         0) {
    update();
    system.run_until(system.loop().now() + millis(5));
  }
  system.kill_replica_process(2);
  storm(100);
  system.restart_replica_process(2);
  EXPECT_GT(system.replica_storage(2)->stats().records_replayed, 0u);
  const std::size_t table =
      std::min(items, scada::EventStorage::kMaxTemplates);
  EXPECT_GT(system.master(2).storage().size(), items);
  EXPECT_EQ(system.master(2).storage().templates(), table);
  storm(64);
  system.net().set_policy(kFrontendEndpoint, kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());
  system.run_until(system.loop().now() + seconds(3));

  EXPECT_GE(system.replica_stats(2).state_transfers, 1u);
  EXPECT_EQ(system.master(0).storage().size(), sent);
  EXPECT_EQ(system.master(0).storage().templates(), table);
  const auto events = system.master(0).storage().query_range(0, seconds(600));
  EXPECT_EQ(events.size(), sent);
  for (std::uint32_t i = 1; i < system.n(); ++i) {
    SCOPED_TRACE(i);
    const scada::EventStorage& storage = system.master(i).storage();
    EXPECT_EQ(system.master(i).state_digest(),
              system.master(0).state_digest());
    EXPECT_EQ(storage.chain_digest(),
              system.master(0).storage().chain_digest());
    EXPECT_EQ(storage.query_range(0, seconds(600)), events);
  }
}

TEST(ProactiveRecovery, FollowerReincarnatedDuringAlarmStormConverges) {
  reincarnate_during_alarm_storm(3);
}

TEST(ProactiveRecovery, ReincarnationCarriesInlineEventTemplates) {
  // More monitored points than the template table holds: the last ones'
  // alarms cross the checkpoint and the state transfer inline.
  reincarnate_during_alarm_storm(scada::EventStorage::kMaxTemplates + 40);
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
