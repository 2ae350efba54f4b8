// Seeded fault-script generation for the chaos engine.
//
// A FaultScript is a timed sequence of fault injections composed from the
// primitives the rest of the codebase already exposes: ByzantineMode
// switches on replicas, crash/recover, full isolation (partitions), link
// policies via sim::FaultSpec (drop/dup/delay + heal), and RTU misbehaviour
// (swallowed requests, failing writes). Scripts are a pure function of
// (family, group, seed), so any run — including a minimized counterexample —
// is replayable from a one-line command.
//
// Generated scripts stay inside the system's fault budget: at most f
// replicas are impaired (Byzantine, crashed, or isolated) at any time, and
// probabilistic link faults are kept below rates that starve liveness before
// the heal point. Violating the budget on purpose is the job of the canary
// sabotages in swarm.h, not of the generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bft/replica.h"
#include "common/config.h"
#include "sim/network.h"

namespace ss::chaos {

enum class ScenarioFamily {
  kByzantineReplicas,  ///< silent / corrupt / equivocating replicas + reimage
  kPartitions,         ///< replica isolation and heals (pause/restart too)
  kLossyLinks,         ///< probabilistic drop/dup/delay on replica links
  kRtuFaults,          ///< swallowed requests and failing writes in the field
  kCrashRestart,       ///< kill -9 + supervised restart with durable state
  kCompromiseRecover,  ///< compromise, reincarnate, replay the stolen keys
  kRequestFlood,       ///< telemetry bursts against the frontend backpressure
  kMixed,              ///< everything at once, still within the fault budget
  /// Gray failures (appended so existing (family, seed) scripts keep their
  /// bytes): replicas that are slow but *correct* — delayed message
  /// processing, fsync stalls on the durable store, skewed local timers.
  /// Safety must hold outright; liveness must survive the thinner margins.
  kGrayFailure,
};

inline constexpr ScenarioFamily kAllFamilies[] = {
    ScenarioFamily::kByzantineReplicas, ScenarioFamily::kPartitions,
    ScenarioFamily::kLossyLinks,        ScenarioFamily::kRtuFaults,
    ScenarioFamily::kCrashRestart,      ScenarioFamily::kCompromiseRecover,
    ScenarioFamily::kRequestFlood,      ScenarioFamily::kMixed,
    ScenarioFamily::kGrayFailure};

const char* family_name(ScenarioFamily family);
bool parse_family(const std::string& name, ScenarioFamily& out);
/// "byzantine|partitions|...|gray-failure" — for usage strings and the
/// unknown-family error path, so CLIs never go stale against the enum.
std::string family_list();

enum class ActionKind {
  kSetByzantine,      ///< replica, mode
  kClearByzantine,    ///< replica
  kCrashReplica,      ///< replica
  kRecoverReplica,    ///< replica
  kIsolateReplica,    ///< replica (cuts replica/i and adapter/i endpoints)
  kHealReplica,       ///< replica
  kLinkFault,         ///< link (sim::FaultSpec, heal=false)
  kHealLink,          ///< link (same patterns, heal=true)
  kRtuSwallowRequests,  ///< count: requests the RTU silently ignores
  kRtuFailWrites,       ///< count: writes the RTU answers with an error
  kKillReplica,         ///< replica (kill -9; unsynced durable bytes vanish)
  kRestartReplica,      ///< replica (supervised restart: recover from disk)
  kReplayStolenKeys,    ///< replica, count: forge traffic with the session
                        ///< keys captured before the replica reincarnated
  kUpdateFlood,         ///< count: burst of frontend field updates
  // Gray-failure injections (replica stays correct, only slower).
  kGraySlow,        ///< replica, count: extra per-message CPU in microseconds
  kGrayFsyncStall,  ///< replica, count: per-fsync stall in microseconds
  kGrayTimerSkew,   ///< replica, count: timer multiplier in percent (150=1.5x)
  kGrayClear,       ///< replica: remove all gray impairments
};

struct FaultAction {
  SimTime at = 0;  ///< offset from the script's start time
  ActionKind kind = ActionKind::kSetByzantine;
  std::uint32_t replica = 0;
  bft::ByzantineMode mode = bft::ByzantineMode::kNone;
  sim::FaultSpec link;
  std::uint64_t count = 0;

  std::string describe() const;
};

struct FaultScript {
  std::vector<FaultAction> actions;

  std::string describe() const;
  /// The actions at the indices `kept`, in that order.
  FaultScript subset(const std::vector<std::size_t>& kept) const;
};

/// Shrinks a failing script to a minimal failing subset of its actions by
/// chunked delta debugging (ddmin): it drops contiguous chunks of half the
/// kept actions, then quarters, ... then single actions, and keeps every
/// removal after which `fails` still holds. Big chunks go first because
/// each call of `fails` replays a whole run. `fails(script)` must hold.
/// Returns the kept indices into `script`, in order.
std::vector<std::size_t> minimize_script(
    const FaultScript& script,
    const std::function<bool(const FaultScript&)>& fails);

struct ScriptParams {
  GroupConfig group;
  SimTime horizon = seconds(3);  ///< injections happen within [0, horizon)
  bool has_rtu = true;           ///< whether RTU actions are available
};

/// Deterministically expands (family, params, seed) into a fault script.
FaultScript generate_script(ScenarioFamily family, const ScriptParams& params,
                            std::uint64_t seed);

}  // namespace ss::chaos
