// Soak campaigns: minutes of continuous, phased fault injection against the
// example plants (ROADMAP item 5's long-running remainder).
//
// Where swarm.cc judges one short script per run, a campaign strings many
// phases together over one live deployment: each phase draws a scenario
// family from a seeded shuffle of ALL families (including gray failures,
// which also overlay other families' phases), injects its faults, heals,
// and audits — then the next phase begins. Three judgements run on top of
// the InvariantChecker's always-on safety invariants:
//
//  * liveness watchdog — tracks the decide frontier plus client-visible
//    write completions every `watchdog_window`; "no progress for a full
//    window while a correct quorum is connected" is a first-class violation
//    (flight-recorder dump, minimizable script), not a hang;
//  * phase audits — between phases, the correct live replicas' decide
//    frontiers must stay within a bounded spread (a replica silently left
//    behind is a bug even when agreement still holds);
//  * bounded recovery — after each heal, some client-visible completion
//    must land within kRecoveryBound (the adaptive retransmission layer's
//    post-heal fast reset is what makes this bound hold).
//
// A campaign is a pure function of (options): same seed, same phase
// schedule, same faults, same verdict. The flattened script replays and
// delta-debugs like any swarm script.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_script.h"
#include "chaos/invariant_checker.h"

namespace ss::chaos {

/// Which example plant the campaign drives (mirrors examples/power_grid.cpp
/// and examples/water_pipeline.cpp).
enum class Plant {
  kPowerGrid,      ///< substations: voltage telemetry + breaker controls
  kWaterPipeline,  ///< pump stations: pressure telemetry + pump speeds
};

const char* plant_name(Plant plant);
bool parse_plant(const std::string& name, Plant& out);

/// Post-heal bound: after every heal point, a client-visible write
/// completion must land within this long.
inline constexpr SimTime kRecoveryBound = seconds(2);

struct CampaignOptions {
  Plant plant = Plant::kPowerGrid;
  Protocol protocol = Protocol::kPbft;
  std::uint32_t f = 1;
  std::uint64_t seed = 1;
  SimTime duration = seconds(60);  ///< fault-injection window (sim time)
  SimTime phase = seconds(4);      ///< one phase: inject, heal, audit
  SimTime watchdog_window = seconds(2);
  /// Test hook (0 = off): at this offset, silently isolate every replica
  /// WITHOUT the campaign's availability bookkeeping seeing it — an
  /// artificial wedge the liveness watchdog must convert into a violation.
  SimTime wedge_at = 0;
};

/// One phase of the rolling schedule. Action offsets inside `script` are
/// ABSOLUTE campaign offsets (phase start already added), so a flattened
/// campaign script replays without the plan.
struct CampaignPhase {
  ScenarioFamily family = ScenarioFamily::kMixed;
  bool gray_overlay = false;  ///< gray-failure script layered on top
  SimTime start = 0;
  std::uint64_t seed = 0;  ///< the phase script's own seed
  FaultScript script;
};

struct CampaignPlan {
  std::vector<CampaignPhase> phases;

  /// All actions in one script, sorted by absolute offset.
  FaultScript flatten() const;
  std::string describe() const;
};

struct CampaignReport {
  CampaignPlan plan;
  std::vector<Violation> violations;
  std::uint64_t decisions = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t watchdog_checks = 0;
  std::uint64_t audits = 0;
  /// Slowest observed heal-to-first-completion interval (0 = none sampled).
  SimTime worst_recovery = 0;

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

/// Deterministically expands options into the phase schedule (pure).
CampaignPlan plan_campaign(const CampaignOptions& options);

/// Plans and runs the full campaign.
CampaignReport run_campaign(const CampaignOptions& options);

/// Runs an explicit flattened script under the campaign harness (heal/audit
/// cadence and watchdog still come from `options`) — the replay and
/// minimization path.
CampaignReport run_campaign_script(const CampaignOptions& options,
                                   const FaultScript& script);

struct CampaignMinimizeResult {
  FaultScript minimal;
  std::vector<std::size_t> kept;  ///< indices into the flattened script
  CampaignReport report;          ///< the minimal script's failing run
};

/// Shrinks a failing campaign (run_campaign(options) must report
/// violations) to a minimal failing action subset of the flattened script
/// with minimize_script.
CampaignMinimizeResult minimize_campaign(const CampaignOptions& options);

/// One-line replay command for examples/soak_campaign.
std::string campaign_repro_command(const CampaignOptions& options);

}  // namespace ss::chaos
