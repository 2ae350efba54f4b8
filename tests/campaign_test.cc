// Soak-campaign subsystem tests: deterministic planning, short clean soaks
// of both plants (honoring SS_PROTOCOL like the chaos smoke), the liveness
// watchdog firing on an artificially wedged deployment, same-seed
// reproducibility of a failing campaign, and the chunked delta-debug
// minimizer on campaign-length and synthetic scripts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/campaign.h"

namespace ss::chaos {
namespace {

TEST(CampaignPlan, SameSeedSamePlan) {
  CampaignOptions options;
  options.seed = 0x50AC;
  options.duration = seconds(40);
  CampaignPlan a = plan_campaign(options);
  CampaignPlan b = plan_campaign(options);
  ASSERT_EQ(a.phases.size(), 10u);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.flatten().describe(), b.flatten().describe());

  CampaignOptions other = options;
  other.seed = 0x50AD;
  EXPECT_NE(plan_campaign(other).flatten().describe(),
            a.flatten().describe());
}

TEST(CampaignPlan, DrawsEveryFamilyBeforeRepeating) {
  CampaignOptions options;
  options.seed = 7;
  // One full deck of phases: every scenario family (gray included) must
  // appear exactly once before any repeats.
  const std::size_t families = std::size(kAllFamilies);
  options.duration = options.phase * static_cast<SimTime>(families);
  CampaignPlan plan = plan_campaign(options);
  ASSERT_EQ(plan.phases.size(), families);
  std::set<ScenarioFamily> seen;
  for (const CampaignPhase& phase : plan.phases) {
    EXPECT_TRUE(seen.insert(phase.family).second)
        << "family repeated before the deck was exhausted: "
        << family_name(phase.family);
  }
}

TEST(CampaignPlan, ActionOffsetsAreAbsoluteAndInsidePhaseWindows) {
  CampaignOptions options;
  options.seed = 3;
  options.duration = seconds(20);
  CampaignPlan plan = plan_campaign(options);
  for (const CampaignPhase& phase : plan.phases) {
    for (const FaultAction& action : phase.script.actions) {
      EXPECT_GE(action.at, phase.start);
      // Injections stop at 5/8 of the phase; heal (3/4) and audit (7/8)
      // own the tail.
      EXPECT_LT(action.at, phase.start + options.phase * 5 / 8);
    }
  }
}

// A short continuous-fault soak of each plant must come out clean: no
// safety violations, no watchdog firings, recovery inside the bound. The
// full >= 60 s acceptance soak runs in CI via examples/soak_campaign.
TEST(CampaignRun, ShortPowerGridSoakIsClean) {
  CampaignOptions options;
  options.plant = Plant::kPowerGrid;
  options.protocol = protocol_from_env();
  options.seed = 11;
  options.duration = seconds(16);
  CampaignReport report = run_campaign(options);
  EXPECT_TRUE(report.ok()) << report.summary() << "\nfirst: "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().detail);
  EXPECT_GT(report.decisions, 0u);
  EXPECT_GT(report.writes_completed, 0u);
  EXPECT_GT(report.watchdog_checks, 0u);
  EXPECT_GT(report.audits, 0u);
  EXPECT_LE(report.worst_recovery, kRecoveryBound);
}

TEST(CampaignRun, ShortWaterPipelineSoakIsClean) {
  CampaignOptions options;
  options.plant = Plant::kWaterPipeline;
  options.protocol = protocol_from_env();
  options.seed = 12;
  options.duration = seconds(16);
  CampaignReport report = run_campaign(options);
  EXPECT_TRUE(report.ok()) << report.summary() << "\nfirst: "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().detail);
  EXPECT_GT(report.writes_completed, 0u);
}

// The liveness watchdog's core promise: a deployment that silently stops —
// every replica isolated behind the availability bookkeeping's back, so
// "a correct quorum is connected" still reads true — becomes a first-class
// violation within one watchdog window, not a hang or a quiet timeout.
TEST(CampaignWatchdog, FiresOnArtificiallyWedgedDeployment) {
  CampaignOptions options;
  options.plant = Plant::kPowerGrid;
  options.protocol = protocol_from_env();
  options.seed = 21;
  options.duration = seconds(8);
  options.wedge_at = millis(1500);
  CampaignReport report = run_campaign(options);
  ASSERT_FALSE(report.ok());
  bool watchdog_fired = false;
  SimTime fired_at = 0;
  for (const Violation& v : report.violations) {
    if (v.invariant == "liveness-watchdog") {
      watchdog_fired = true;
      fired_at = v.at;
      break;
    }
  }
  ASSERT_TRUE(watchdog_fired) << report.summary();
  // Detection latency: within ~two windows of the wedge (one full window
  // of genuine no-progress plus check-phase alignment).
  EXPECT_LE(fired_at, millis(1500) + 3 * options.watchdog_window);
}

TEST(CampaignDeterminism, SameSeedSameViolation) {
  CampaignOptions options;
  options.plant = Plant::kWaterPipeline;
  options.protocol = protocol_from_env();
  options.seed = 21;
  options.duration = seconds(8);
  options.wedge_at = millis(1500);
  CampaignReport a = run_campaign(options);
  CampaignReport b = run_campaign(options);
  ASSERT_FALSE(a.ok());
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.violations.front().invariant, b.violations.front().invariant);
  EXPECT_EQ(a.violations.front().at, b.violations.front().at);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.writes_issued, b.writes_issued);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
}

// Chunked ddmin over a campaign-length script: the wedge is harness-driven
// (not a script action), so every action is removable and the minimizer
// must shrink the failing campaign to the empty script while the failure
// persists — proving it drops big chunks without losing the violation.
TEST(CampaignMinimize, WedgeFailureShrinksToEmptyScript) {
  CampaignOptions options;
  options.plant = Plant::kPowerGrid;
  options.protocol = protocol_from_env();
  options.seed = 21;
  options.duration = seconds(8);
  options.wedge_at = millis(1500);
  ASSERT_GE(plan_campaign(options).flatten().actions.size(), 4u);
  CampaignMinimizeResult min = minimize_campaign(options);
  EXPECT_TRUE(min.minimal.actions.empty())
      << "kept " << min.minimal.actions.size() << " actions:\n"
      << min.minimal.describe();
  EXPECT_FALSE(min.report.ok());
  // And the repro command round-trips the options the runner needs.
  std::string repro = campaign_repro_command(options);
  EXPECT_NE(repro.find("--plant=power-grid"), std::string::npos);
  EXPECT_NE(repro.find("--seed=0x15"), std::string::npos);
}

// The one script minimizer on a synthetic failure: the "run" fails iff
// actions 3 and 7 are both kept, so ddmin must keep exactly those two.
TEST(MinimizeScript, KeepsExactlyTheActionsTheFailureNeeds) {
  FaultScript script;
  for (std::uint64_t i = 0; i < 10; ++i) {
    FaultAction action;
    action.count = i;  // tags each action with its index
    script.actions.push_back(action);
  }
  auto fails = [](const FaultScript& candidate) {
    bool has3 = false;
    bool has7 = false;
    for (const FaultAction& action : candidate.actions) {
      has3 |= action.count == 3;
      has7 |= action.count == 7;
    }
    return has3 && has7;
  };
  const std::vector<std::size_t> kept = minimize_script(script, fails);
  EXPECT_EQ(kept, (std::vector<std::size_t>{3, 7}));
  const FaultScript minimal = script.subset(kept);
  ASSERT_EQ(minimal.actions.size(), 2u);
  EXPECT_EQ(minimal.actions[0].count, 3u);
  EXPECT_EQ(minimal.actions[1].count, 7u);

  // A failure that needs no action shrinks to the empty script.
  EXPECT_TRUE(
      minimize_script(script, [](const FaultScript&) { return true; })
          .empty());
}

}  // namespace
}  // namespace ss::chaos
