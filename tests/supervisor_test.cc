// Tests for the replica-supervision policy (core::Supervisor): the pure
// policy on its own (round-robin proactive recovery, uncharged scheduled
// kills, the fault-budget guard and its reap gap, budget exhaustion), the
// same policy driven over the simulated group by the 50 ms poll loop that
// `deploy local --supervise` runs over real processes (rolling durable
// reincarnation under live traffic, crash restarts that never leave two
// replicas down), and the sim substrate's queueing sanity (delivered
// throughput saturates at modeled capacity).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/replicated_deployment.h"
#include "core/supervisor.h"

namespace ss::core {
namespace {

// ---------------------------------------------------------------------------
// The policy alone

using Victims = std::vector<std::uint32_t>;

/// Reports victim `i`'s death at `now_ms` and its restart once it is due.
void cycle(Supervisor& s, std::uint32_t i, long now_ms) {
  EXPECT_EQ(s.on_death(i, now_ms), Supervisor::kReincarnationDowntimeMs);
  const long back = now_ms + Supervisor::kReincarnationDowntimeMs;
  EXPECT_TRUE(s.due_restarts(back - 1).empty());
  EXPECT_EQ(s.due_restarts(back), Victims{i});
  s.on_start(i, back);
}

TEST(SupervisorPolicy, ReincarnatesRoundRobinOncePerPeriod) {
  Supervisor s(/*n=*/4, /*proactive_period_ms=*/1000);
  EXPECT_EQ(s.due_reincarnation(999), std::nullopt);
  Victims victims;
  for (long boundary = 1000; boundary <= 5000; boundary += 1000) {
    std::optional<std::uint32_t> victim = s.due_reincarnation(boundary);
    ASSERT_TRUE(victim.has_value());
    victims.push_back(*victim);
    // Nothing more is due until the next boundary.
    EXPECT_EQ(s.due_reincarnation(boundary + 10), std::nullopt);
    cycle(s, *victim, boundary + 10);
  }
  EXPECT_EQ(victims, (Victims{0, 1, 2, 3, 0}));
  EXPECT_EQ(s.stats().reincarnations, 5u);
  EXPECT_EQ(s.stats().skipped_unhealthy, 0u);
}

TEST(SupervisorPolicy, ScheduledKillIsNotChargedToTheBudget) {
  Supervisor s(/*n=*/4, /*proactive_period_ms=*/1000);
  // Replica 0 is the victim of every fourth boundary; reincarnate it many
  // more times than the budget's 5 attempts would allow as crashes.
  for (long boundary = 1000; boundary <= 40'000; boundary += 1000) {
    std::optional<std::uint32_t> victim = s.due_reincarnation(boundary);
    ASSERT_TRUE(victim.has_value());
    cycle(s, *victim, boundary);
  }
  EXPECT_EQ(s.stats().reincarnations, 40u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(s.attempts(i), 0u);

  // A crash of an up replica is charged: 200 ms, then 400 ms.
  EXPECT_EQ(s.on_death(2, 40'100), 200);
  EXPECT_EQ(s.attempts(2), 1u);
  EXPECT_EQ(s.due_restarts(40'300), Victims{2});
  s.on_start(2, 40'300);
  EXPECT_EQ(s.on_death(2, 40'400), 400);
  EXPECT_EQ(s.attempts(2), 2u);
}

TEST(SupervisorPolicy, SkipsThePeriodWhileAReplicaIsDown) {
  Supervisor s(/*n=*/4, /*proactive_period_ms=*/1000);
  EXPECT_EQ(s.on_death(2, 900), 200);  // crash: restart due at 1100
  EXPECT_EQ(s.due_reincarnation(1000), std::nullopt);
  EXPECT_EQ(s.stats().skipped_unhealthy, 1u);
  EXPECT_EQ(s.due_restarts(1100), Victims{2});
  s.on_start(2, 1100);
  // The round-robin did not advance past the skipped period.
  EXPECT_EQ(s.due_reincarnation(2000), std::optional<std::uint32_t>{0});
  EXPECT_EQ(s.stats().reincarnations, 1u);
}

// The reap gap: a driver reports a victim's death only when it reaps it,
// one poll or more after the kill. The victim counts as down from the
// moment it is picked, so a second boundary before that report yields no
// second victim.
TEST(SupervisorPolicy, VictimCountsAsDownBeforeItsDeathIsReported) {
  Supervisor s(/*n=*/4, /*proactive_period_ms=*/20);
  EXPECT_EQ(s.due_reincarnation(20), std::optional<std::uint32_t>{0});
  EXPECT_EQ(s.due_reincarnation(40), std::nullopt);
  EXPECT_EQ(s.due_reincarnation(60), std::nullopt);
  EXPECT_EQ(s.stats().reincarnations, 1u);
  EXPECT_EQ(s.stats().skipped_unhealthy, 2u);
  EXPECT_TRUE(s.due_restarts(1000).empty());  // not dead yet: no restart
  cycle(s, 0, 70);
  EXPECT_EQ(s.due_reincarnation(280), std::optional<std::uint32_t>{1});
}

TEST(SupervisorPolicy, ReplicaTheBudgetGaveUpOnBlocksProactiveRecovery) {
  Supervisor s(/*n=*/4, /*proactive_period_ms=*/60'000);
  // A crash burst: 200·2^k backoff for 5 attempts, then give up.
  long now = 0;
  for (long expected : {200, 400, 800, 1600, 3200}) {
    EXPECT_EQ(s.on_death(1, now), expected);
    now += expected;
    EXPECT_EQ(s.due_restarts(now), Victims{1});
    s.on_start(1, now);
    now += 10;
  }
  EXPECT_EQ(s.on_death(1, now), -1);
  EXPECT_TRUE(s.due_restarts(now + 100'000).empty());
  // With replica 1 down for good, no period may take another one down.
  for (long boundary = 60'000; boundary <= 300'000; boundary += 60'000) {
    EXPECT_EQ(s.due_reincarnation(boundary), std::nullopt);
  }
  EXPECT_EQ(s.stats().reincarnations, 0u);
  EXPECT_EQ(s.stats().skipped_unhealthy, 5u);
}

TEST(SupervisorPolicy, ZeroPeriodNeverKills) {
  Supervisor s(/*n=*/4, /*proactive_period_ms=*/0);
  for (long now = 0; now <= 100'000; now += 50) {
    EXPECT_EQ(s.due_reincarnation(now), std::nullopt);
  }
  EXPECT_EQ(s.stats().reincarnations, 0u);
  EXPECT_EQ(s.stats().skipped_unhealthy, 0u);
  // Crash restarts still work.
  EXPECT_EQ(s.on_death(3, 500), 200);
  EXPECT_EQ(s.due_restarts(700), Victims{3});
}

// ---------------------------------------------------------------------------
// The policy over the simulated group

/// Drives a Supervisor over the simulated group the way `deploy local
/// --supervise` drives it over replica processes: every 50 ms it issues the
/// due proactive kill, starts the due restarts, and reports the replicas
/// that died since the last poll. Its clock starts at construction, like
/// deploy's. It also records the most replicas any poll saw down at once.
class SimSupervisor {
 public:
  SimSupervisor(ReplicatedDeployment& system, long proactive_period_ms)
      : system_(system),
        policy_(system.n(), proactive_period_ms),
        started_at_(system.loop().now()),
        alive_(system.n(), true) {
    system_.loop().schedule(kPoll, [this] { poll(); });
  }
  // The scheduled poll holds `this`.
  SimSupervisor(const SimSupervisor&) = delete;
  SimSupervisor& operator=(const SimSupervisor&) = delete;

  const Supervisor& policy() const { return policy_; }
  std::uint32_t max_down() const { return max_down_; }

 private:
  static constexpr SimTime kPoll = millis(50);

  void poll() {
    const long now_ms =
        static_cast<long>((system_.loop().now() - started_at_) / millis(1));
    if (std::optional<std::uint32_t> victim =
            policy_.due_reincarnation(now_ms)) {
      system_.kill_replica_process(*victim);
    }
    for (std::uint32_t i : policy_.due_restarts(now_ms)) {
      if (system_.replica_killed(i)) {
        system_.restart_replica_process(i);
      } else {
        system_.recover_replica(i);
      }
      alive_[i] = true;
      policy_.on_start(i, now_ms);
    }
    std::uint32_t down = 0;
    for (std::uint32_t i = 0; i < system_.n(); ++i) {
      if (!system_.replica(i).crashed()) continue;
      ++down;
      if (alive_[i]) {
        alive_[i] = false;
        policy_.on_death(i, now_ms);
      }
    }
    max_down_ = std::max(max_down_, down);
    system_.loop().schedule(kPoll, [this] { poll(); });
  }

  ReplicatedDeployment& system_;
  Supervisor policy_;
  SimTime started_at_;
  std::vector<bool> alive_;  ///< as far as the driver has reaped
  std::uint32_t max_down_ = 0;
};

ReplicatedOptions fast_options() {
  ReplicatedOptions options;
  options.costs = sim::CostModel::zero();
  options.costs.hop_latency = micros(50);
  return options;
}

ReplicatedOptions durable_options() {
  ReplicatedOptions options = fast_options();
  options.durable = true;
  options.checkpoint_interval = 8;
  return options;
}

/// One field update every 50 ms (20 updates/s) for `count` updates. At
/// that rate a non-leader down for 200 ms misses several decisions, so its
/// rejoin needs a state transfer; at 5 updates/s it could miss none.
int send_updates(ReplicatedDeployment& system, ItemId item, int count) {
  for (int i = 0; i < count; ++i) {
    system.frontend().field_update(item, scada::Variant{double(i)});
    system.run_until(system.loop().now() + millis(50));
  }
  return count;
}

TEST(Supervisor, RollingReincarnationKeepsServiceLive) {
  ReplicatedDeployment system(durable_options());
  ItemId item = system.add_point("sensor");
  system.start();
  SimSupervisor supervisor(system, /*proactive_period_ms=*/4000);

  // 26 s of traffic: the supervisor reincarnates a replica every 4 s, six
  // of them (1.5 cycles) while updates flow.
  const int sent = send_updates(system, item, 520);
  system.run_until(system.loop().now() + seconds(5));

  EXPECT_GE(supervisor.policy().stats().reincarnations, 5u);
  EXPECT_EQ(supervisor.max_down(), 1u);
  // Every update made it through despite the rolling restarts.
  EXPECT_EQ(system.hmi().counters().updates_received,
            static_cast<std::uint64_t>(sent));
  // Each reincarnation was a durable process restart: every replica the
  // supervisor cycled through carries a fresh (bumped) key epoch. The four
  // reincarnations of non-leaders under traffic each missed decisions and
  // needed a state transfer; the leader, replica 0, is back inside its
  // 400 ms suspect timeout, so nothing is decided while it is down.
  std::uint64_t transfers = 0;
  std::uint32_t epoch_bumped = 0;
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    transfers += system.replica(i).stats().state_transfers;
    if (system.replica(i).key_epoch() > 0) ++epoch_bumped;
    EXPECT_FALSE(system.replica(i).crashed());
  }
  EXPECT_GE(transfers, 4u);
  EXPECT_GE(epoch_bumped, 4u);
  // Quiesce, then verify convergence.
  system.net().set_policy(kFrontendEndpoint, kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());
  system.run_until(system.loop().now() + seconds(3));
  EXPECT_TRUE(system.masters_converged());
}

// Under MinBFT the group is 2f+1 = 3 replicas; the supervisor's round-robin
// must cycle over exactly those 3. One full cycle of rolling reincarnation,
// every update still delivered.
TEST(Supervisor, MinBftGroupReincarnatesAllReplicas) {
  ReplicatedOptions deployment_options = durable_options();
  deployment_options.group = GroupConfig::for_protocol(Protocol::kMinBft, 1);
  ReplicatedDeployment system(deployment_options);
  ASSERT_EQ(system.n(), 3u);
  ItemId item = system.add_point("sensor");
  system.start();
  SimSupervisor supervisor(system, /*proactive_period_ms=*/4000);

  // 18 s of traffic at a 4 s period: at least one full 3-replica cycle.
  const int sent = send_updates(system, item, 360);
  system.run_until(system.loop().now() + seconds(5));

  EXPECT_GE(supervisor.policy().stats().reincarnations, 3u);
  EXPECT_EQ(supervisor.max_down(), 1u);
  EXPECT_EQ(system.hmi().counters().updates_received,
            static_cast<std::uint64_t>(sent));
  std::uint32_t epoch_bumped = 0;
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    if (system.replica(i).key_epoch() > 0) ++epoch_bumped;
    EXPECT_FALSE(system.replica(i).crashed());
  }
  EXPECT_EQ(epoch_bumped, 3u);
  system.net().set_policy(kFrontendEndpoint, kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());
  system.run_until(system.loop().now() + seconds(3));
  EXPECT_TRUE(system.masters_converged());
}

// The fault-budget guard under crashes: a crashed replica is restarted, the
// period boundary that falls while it is down is skipped, and no poll ever
// sees two replicas down. Each crash hits a different replica — one replica
// crashed every period would back off exponentially past the end of the
// run.
TEST(Supervisor, NeverExceedsFaultBudget) {
  ReplicatedDeployment system(fast_options());
  ItemId item = system.add_point("sensor");
  system.start();
  SimSupervisor supervisor(system, /*proactive_period_ms=*/2000);

  // Boundaries at 2, 4, 6, 8 and 10 s. Replica 2 crashes 100 ms before the
  // first and replica 3 100 ms before the third; each restarts 200 ms after
  // its death is reaped, so those two boundaries find it down.
  system.loop().schedule(millis(1900), [&] { system.crash_replica(2); });
  system.loop().schedule(millis(5900), [&] { system.crash_replica(3); });
  const int sent = send_updates(system, item, 210);  // 10.5 s
  system.run_until(system.loop().now() + seconds(1));

  const Supervisor& policy = supervisor.policy();
  EXPECT_EQ(policy.stats().skipped_unhealthy, 2u);
  EXPECT_EQ(policy.stats().reincarnations, 3u);  // at 4, 8 and 10 s
  EXPECT_EQ(policy.attempts(2), 1u);
  EXPECT_EQ(policy.attempts(3), 1u);
  EXPECT_EQ(supervisor.max_down(), 1u);
  // Service continued throughout, and every replica is back.
  EXPECT_EQ(system.hmi().counters().updates_received,
            static_cast<std::uint64_t>(sent));
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    EXPECT_FALSE(system.replica(i).crashed());
  }
}

// Sim-substrate sanity: when the offered load exceeds the modeled capacity
// of the single-lane Master, delivered throughput saturates near capacity
// instead of growing or collapsing — the queueing behaviour every Figure 8
// number rests on.
TEST(CostModelSanity, DeliveredSaturatesAtModeledCapacity) {
  ReplicatedOptions options;
  options.costs = sim::CostModel::zero();
  options.costs.hop_latency = micros(50);
  options.costs.da_process = millis(1);  // capacity: exactly 1000 ops/s
  options.client_reply_timeout = seconds(60);
  options.request_timeout = seconds(60);
  ReplicatedDeployment system(options);
  ItemId item = system.add_point("sensor");
  system.start();

  // Offer 2000 updates/s for 5 s.
  double value = 0;
  std::function<void()> tick = [&] {
    system.frontend().field_update(item, scada::Variant{value});
    value += 1.0;
    if (system.loop().now() < seconds(6)) {
      system.loop().schedule(micros(500), tick);
    }
  };
  system.loop().schedule(0, tick);
  system.run_until(seconds(3));
  std::uint64_t at3 = system.hmi().counters().updates_received;
  system.run_until(seconds(5));
  std::uint64_t at5 = system.hmi().counters().updates_received;

  double delivered_per_sec = static_cast<double>(at5 - at3) / 2.0;
  EXPECT_GT(delivered_per_sec, 850.0);
  EXPECT_LT(delivered_per_sec, 1100.0);
}

}  // namespace
}  // namespace ss::core
