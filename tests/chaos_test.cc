// The chaos engine's own test suite: swarm sweeps over every scenario
// family (zero tolerated violations), the sabotage canary (a deliberately
// broken configuration must be caught, minimized, and replayable), and
// determinism of the whole pipeline.
#include <gtest/gtest.h>


#include "chaos/invariant_checker.h"
#include "chaos/swarm.h"
#include "obs/trace.h"

namespace ss::chaos {
namespace {

// --- flight recorder integration ------------------------------------------

TEST(FlightRecorderDump, FirstViolationDumpsRecentHistoryToStderr) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  recorder.clear();
  recorder.note(123, "breadcrumb before the failure");

  core::ReplicatedDeployment deployment;
  InvariantChecker checker(deployment);

  testing::internal::CaptureStderr();
  checker.add_violation("test-invariant", "synthetic violation for the dump");
  // Only the FIRST violation dumps — a cascade must not flood stderr.
  checker.add_violation("test-invariant", "second violation, no dump");
  std::string err = testing::internal::GetCapturedStderr();

  EXPECT_NE(err.find("invariant violation [test-invariant]"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("flight recorder"), std::string::npos) << err;
  EXPECT_NE(err.find("breadcrumb before the failure"), std::string::npos)
      << err;
  // One dump, not two.
  EXPECT_EQ(err.find("--- end flight recorder ---"),
            err.rfind("--- end flight recorder ---"));
  EXPECT_EQ(checker.violations().size(), 2u);
  recorder.clear();
}

/// Runs `count` seeds of one family and expects a clean sweep; on failure
/// prints the one-line repro command for each failing seed.
void expect_clean_sweep(ScenarioFamily family, std::uint32_t f,
                        std::uint64_t first_seed, std::uint64_t count,
                        Protocol protocol = Protocol::kPbft) {
  ChaosOptions base;
  base.family = family;
  base.protocol = protocol;
  base.f = f;
  SweepReport sweep = run_sweep(base, first_seed, count);
  EXPECT_EQ(sweep.runs, count);
  EXPECT_GT(sweep.decisions, 0u);
  EXPECT_GT(sweep.writes_completed, 0u);
  if (!sweep.ok()) {
    for (const auto& [seed, report] : sweep.failing) {
      ChaosOptions failing = base;
      failing.seed = seed;
      ADD_FAILURE() << family_name(family) << " f=" << f << " seed=" << seed
                    << ": " << report.summary() << "\n  first violation: ["
                    << report.violations.front().invariant << "] "
                    << report.violations.front().detail << "\n  repro: "
                    << repro_command(failing);
    }
  }
}

// --- the 500+ seed swarm: 6 families x 88 seeds at f=1, x 16 at f=2 ------

TEST(ChaosSweep, ByzantineReplicasF1) {
  expect_clean_sweep(ScenarioFamily::kByzantineReplicas, 1, 1, 88);
}

TEST(ChaosSweep, PartitionsF1) {
  expect_clean_sweep(ScenarioFamily::kPartitions, 1, 1, 88);
}

TEST(ChaosSweep, LossyLinksF1) {
  expect_clean_sweep(ScenarioFamily::kLossyLinks, 1, 1, 88);
}

TEST(ChaosSweep, RtuFaultsF1) {
  expect_clean_sweep(ScenarioFamily::kRtuFaults, 1, 1, 88);
}

TEST(ChaosSweep, CrashRestartF1) {
  expect_clean_sweep(ScenarioFamily::kCrashRestart, 1, 1, 88);
}

TEST(ChaosSweep, MixedF1) {
  expect_clean_sweep(ScenarioFamily::kMixed, 1, 1, 88);
}

// Gray failures: slow-but-correct replicas (extra per-message processing
// cost, fsync stalls through the storage Env seam, skewed local timers).
// Safety must hold outright; liveness must survive the thinner margins.
TEST(ChaosSweep, GrayFailureF1) {
  expect_clean_sweep(ScenarioFamily::kGrayFailure, 1, 1, 88);
}

TEST(ChaosSweep, MinBftGrayFailureF1) {
  expect_clean_sweep(ScenarioFamily::kGrayFailure, 1, 1, 44,
                     Protocol::kMinBft);
}

// Compromise -> reincarnate -> stolen-key replay: on top of the universal
// invariants, every run checks that all forged old-epoch messages were
// rejected and the victim came back clean on a fresh key epoch.
TEST(ChaosSweep, CompromiseRecoverF1) {
  expect_clean_sweep(ScenarioFamily::kCompromiseRecover, 1, 1, 88);
}

// Telemetry floods against the frontend inflight cap: updates shed at the
// edge, operator writes keep completing, and the group stays convergent.
TEST(ChaosSweep, RequestFloodF1) {
  expect_clean_sweep(ScenarioFamily::kRequestFlood, 1, 1, 88);
}

TEST(ChaosSweep, AllFamiliesF2) {
  for (ScenarioFamily family : kAllFamilies) {
    expect_clean_sweep(family, 2, 1, 16);
  }
}

// --- the MinBFT equivalence sweep: crash-restart + equivocate at f=1 ------
//
// The same scenario generators against 2f+1-replica groups running the
// MinBFT engine. The byzantine family includes equivocating leaders, whose
// conflicting USIG-certified prepares must be detected (not just outvoted)
// by the correct replicas; crash-restart exercises the USIG counter lease
// across kill -9 + durable reboot.

TEST(ChaosSweep, MinBftEquivocateF1) {
  expect_clean_sweep(ScenarioFamily::kByzantineReplicas, 1, 1, 44,
                     Protocol::kMinBft);
}

TEST(ChaosSweep, MinBftCrashRestartF1) {
  expect_clean_sweep(ScenarioFamily::kCrashRestart, 1, 1, 44,
                     Protocol::kMinBft);
}

// --- fast smoke sweep for CI: 64 seeds spread over the families ----------

// Honors SS_PROTOCOL so CI can matrix the same smoke over both engines.
TEST(ChaosSmoke, SixtyFourSeeds) {
  const Protocol protocol = protocol_from_env();
  for (ScenarioFamily family : kAllFamilies) {
    expect_clean_sweep(family, 1, 1000, 12, protocol);
  }
  expect_clean_sweep(ScenarioFamily::kMixed, 2, 1000, 4, protocol);
}

// --- canary: a sabotaged deployment must fail, minimize, and replay ------

TEST(ChaosCanary, DisabledTimeoutsAreCaughtAndMinimized) {
  // With the logical-timeout protocol disabled, a silently swallowed RTU
  // reply must strand its WriteValue forever — the checker has to see it.
  ChaosOptions options;
  options.family = ScenarioFamily::kRtuFaults;
  options.seed = 2;  // a script whose swallow window covers a write
  options.sabotage = Sabotage::kDisableLogicalTimeouts;

  RunReport broken = run_chaos(options);
  ASSERT_FALSE(broken.ok()) << "sabotage was not detected: "
                            << broken.summary();
  bool saw_liveness = false;
  for (const Violation& v : broken.violations) {
    if (v.invariant == "write-liveness") saw_liveness = true;
  }
  EXPECT_TRUE(saw_liveness);

  // The same script with the protocol enabled must pass: the synthesized
  // timeout result masks the fault (paper section IV-D).
  ChaosOptions healthy = options;
  healthy.sabotage = Sabotage::kNone;
  EXPECT_TRUE(run_chaos(healthy).ok());

  // The minimizer must shrink the script to the single swallow action and
  // hand back a deterministic repro.
  MinimizeResult min = minimize(options);
  EXPECT_EQ(min.minimal.actions.size(), 1u);
  ASSERT_FALSE(min.minimal.actions.empty());
  EXPECT_EQ(min.minimal.actions.front().kind, ActionKind::kRtuSwallowRequests);
  EXPECT_FALSE(min.report.ok());
  EXPECT_NE(min.repro.find("--sabotage=no-timeouts"), std::string::npos);
  EXPECT_NE(min.repro.find("--keep="), std::string::npos);

  // Replaying the minimal script must reproduce the violation exactly.
  RunReport replay = run_script(options, min.minimal);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.violations.size(), min.report.violations.size());
  EXPECT_EQ(replay.violations.front().invariant,
            min.report.violations.front().invariant);
}

// --- pinned MinBFT liveness failures --------------------------------------
//
// Two MinBFT liveness failures, each a deterministic script that asserts
// today's outcome (the way SkippedUsigCountersAreAcceptedAsFreshAfterIsolation
// pins the counter gap) next to a PBFT control run of the same script that
// must stay clean. They are the starting point for ROADMAP item 3's targeted
// adversary (DESIGN.md §16): when a fix lands, the MinBFT half flips.

FaultAction scripted(SimTime at, ActionKind kind, std::uint32_t replica) {
  FaultAction action;
  action.at = at;
  action.kind = kind;
  action.replica = replica;
  return action;
}

/// Replica 2 crashes, replica 1 turns gray-slow by `slow_us` per message,
/// and replica 2 recovers.
FaultScript crash_behind_slow_peer(std::uint64_t slow_us) {
  FaultScript script;
  script.actions.push_back(
      scripted(millis(592), ActionKind::kCrashReplica, 2));
  FaultAction slow = scripted(millis(821), ActionKind::kGraySlow, 1);
  slow.count = slow_us;
  script.actions.push_back(slow);
  script.actions.push_back(
      scripted(millis(1011), ActionKind::kRecoverReplica, 2));
  return script;
}

TEST(MinBftLivenessPin, RecoveredReplicaNeverCatchesUpBehindSlowPeer) {
  ChaosOptions options;
  options.family = ScenarioFamily::kByzantineReplicas;
  options.protocol = Protocol::kMinBft;
  options.seed = 0x25;

  RunReport minbft = run_script(options, crash_behind_slow_peer(1981));
  // The operator writes all complete, but the recovered replica never
  // starts a state transfer and is left far behind the live frontier.
  ASSERT_EQ(minbft.violations.size(), 2u) << minbft.summary();
  EXPECT_EQ(minbft.violations[0].invariant, "convergence");
  EXPECT_EQ(minbft.violations[0].detail,
            "after quiescence replica 2 is at cid=15 but replica 0 is at "
            "cid=77");
  EXPECT_EQ(minbft.violations[1].invariant, "convergence");
  EXPECT_EQ(minbft.violations[1].detail,
            "master state digests differ after quiescence");
  EXPECT_EQ(minbft.writes_completed, minbft.writes_issued);
  EXPECT_EQ(minbft.state_transfers, 0u);

  // A milder slow-down lets MinBFT catch the replica up.
  EXPECT_TRUE(run_script(options, crash_behind_slow_peer(500)).ok());

  // PBFT control: the same script is clean, via state transfer.
  options.protocol = Protocol::kPbft;
  RunReport pbft = run_script(options, crash_behind_slow_peer(1981));
  EXPECT_TRUE(pbft.ok()) << pbft.summary();
  EXPECT_EQ(pbft.state_transfers, 2u);
}

TEST(MinBftLivenessPin, WritesStallUnderByzantineLeaderOnLossyLink) {
  FaultScript script;
  FaultAction lossy = scripted(millis(155), ActionKind::kLinkFault, 0);
  lossy.link.from = "replica/0";
  lossy.link.to = "replica/1";
  lossy.link.policy.drop_prob = 0.31;
  lossy.link.policy.extra_delay = millis(1);
  lossy.link.policy.jitter = millis(25);
  script.actions.push_back(lossy);
  FaultAction byzantine = scripted(millis(513), ActionKind::kSetByzantine, 0);
  byzantine.mode = bft::ByzantineMode::kCorruptReplies;
  script.actions.push_back(byzantine);

  ChaosOptions options;
  options.family = ScenarioFamily::kMixed;
  options.protocol = Protocol::kMinBft;
  options.seed = 0x3ef;

  RunReport minbft = run_script(options, script);
  // Half the operator writes never complete, even after heal and quiesce.
  ASSERT_FALSE(minbft.ok());
  for (const Violation& v : minbft.violations) {
    EXPECT_EQ(v.invariant, "write-liveness") << v.detail;
  }
  EXPECT_EQ(minbft.writes_issued, 14u);
  EXPECT_EQ(minbft.writes_completed, 7u);
  EXPECT_EQ(minbft.usig_rejections, 13u);

  // PBFT control: every write completes.
  options.protocol = Protocol::kPbft;
  RunReport pbft = run_script(options, script);
  EXPECT_TRUE(pbft.ok()) << pbft.summary();
  EXPECT_EQ(pbft.writes_completed, 14u);
}

// --- determinism: the whole engine is a pure function of its options -----

TEST(ChaosDeterminism, SameSeedSameRun) {
  ChaosOptions options;
  options.family = ScenarioFamily::kMixed;
  options.seed = 42;

  RunReport a = run_chaos(options);
  RunReport b = run_chaos(options);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.writes_issued, b.writes_issued);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
  EXPECT_EQ(a.view_changes, b.view_changes);
  EXPECT_EQ(a.state_transfers, b.state_transfers);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.script.describe(), b.script.describe());
}

TEST(ChaosDeterminism, ScriptsVaryBySeedAndFamily) {
  ScriptParams params;
  params.group = GroupConfig::for_f(1);
  FaultScript a = generate_script(ScenarioFamily::kMixed, params, 1);
  FaultScript b = generate_script(ScenarioFamily::kMixed, params, 2);
  FaultScript c = generate_script(ScenarioFamily::kPartitions, params, 1);
  EXPECT_NE(a.describe(), b.describe());
  EXPECT_NE(a.describe(), c.describe());
  EXPECT_EQ(a.describe(),
            generate_script(ScenarioFamily::kMixed, params, 1).describe());
}

TEST(ChaosDeterminism, EveryFamilyInjectsFaults) {
  ScriptParams params;
  params.group = GroupConfig::for_f(1);
  for (ScenarioFamily family : kAllFamilies) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      FaultScript script = generate_script(family, params, seed);
      EXPECT_FALSE(script.actions.empty())
          << family_name(family) << " seed " << seed;
      for (const FaultAction& action : script.actions) {
        EXPECT_GE(action.at, 0);
        EXPECT_LT(action.at, params.horizon);
      }
    }
  }
}

}  // namespace
}  // namespace ss::chaos
