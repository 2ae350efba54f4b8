// The chaos engine: seeded scenario runs, swarm sweeps, and shrinking.
//
// One chaos run stands up a full ReplicatedDeployment (HMI, proxies, n=3f+1
// ProxyMasters, Frontend, a Modbus RTU + driver), wires an InvariantChecker
// into it, drives an operator workload, executes a generated FaultScript,
// then heals the world, drains, quiesces, and judges the invariants. The
// whole run is a pure function of (options, script): same seed, same
// verdict — which is what makes the swarm's one-line repro commands work.
//
// On a violation, `minimize` delta-debugs the fault script down to a
// minimal failing subset of actions and renders a replay command for the
// examples/chaos_replay tool.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_script.h"
#include "chaos/invariant_checker.h"

namespace ss::chaos {

/// Deliberate misconfigurations for canary tests: each one must make the
/// checker report a violation, proving the harness can see real bugs.
enum class Sabotage {
  kNone,
  /// Disables the logical-timeout protocol (write_timeout = 0): a swallowed
  /// RTU reply then blocks its write forever — the exact failure the paper's
  /// §IV-D protocol exists to prevent.
  kDisableLogicalTimeouts,
};

/// Fault injections live in [0, kChaosHorizon) after warm-up; the world is
/// healed at the horizon.
inline constexpr SimTime kChaosHorizon = seconds(3);

struct ChaosOptions {
  ScenarioFamily family = ScenarioFamily::kByzantineReplicas;
  /// Agreement protocol under test: PBFT runs 3f+1 replicas, MinBFT 2f+1.
  Protocol protocol = Protocol::kPbft;
  std::uint32_t f = 1;
  std::uint64_t seed = 1;
  Sabotage sabotage = Sabotage::kNone;
};

struct RunReport {
  FaultScript script;
  std::vector<Violation> violations;
  std::uint64_t decisions = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t epoch_rejections = 0;  ///< old-epoch messages refused
  std::uint64_t shed = 0;              ///< updates shed by frontend backpressure
  std::uint64_t usig_rejections = 0;   ///< MinBFT: bad/stale USIG certs refused
  std::uint64_t equivocations = 0;     ///< MinBFT: conflicting certs detected

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

/// Generates the script for (family, f, seed) and runs it.
RunReport run_chaos(const ChaosOptions& options);

/// Runs an explicit script (replay / minimization path).
RunReport run_script(const ChaosOptions& options, const FaultScript& script);

struct SweepReport {
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t decisions = 0;
  std::uint64_t writes_completed = 0;
  /// First few failing seeds with their reports, for diagnostics.
  std::vector<std::pair<std::uint64_t, RunReport>> failing;

  bool ok() const { return failures == 0; }
};

/// Runs `count` seeds starting at `first_seed` for one scenario family.
SweepReport run_sweep(const ChaosOptions& base, std::uint64_t first_seed,
                      std::uint64_t count);

struct MinimizeResult {
  FaultScript minimal;
  std::vector<std::size_t> kept;  ///< indices into the generated script
  RunReport report;               ///< the minimal script's failing run
  std::string repro;              ///< one-line replay command
};

/// Shrinks a failing run (run_chaos(options) must report violations) to a
/// minimal failing subset of script actions with minimize_script.
MinimizeResult minimize(const ChaosOptions& options);

/// Renders the deterministic one-line repro command for a run; `kept`
/// restricts the generated script to the given action indices.
std::string repro_command(const ChaosOptions& options,
                          const std::vector<std::size_t>* kept = nullptr);

}  // namespace ss::chaos
