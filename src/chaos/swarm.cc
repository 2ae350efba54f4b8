#include "chaos/swarm.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "chaos/apply.h"
#include "common/rng.h"
#include "core/scada_link.h"
#include "crypto/keychain.h"
#include "rtu/driver.h"
#include "rtu/rtu.h"
#include "rtu/sensors.h"
#include "scada/handlers.h"

namespace ss::chaos {

namespace {

constexpr SimTime kWarmup = millis(300);
constexpr SimTime kDrain = millis(1500);      ///< healed, traffic continues
constexpr SimTime kQuiesce = seconds(2);      ///< input stopped, converging
constexpr SimTime kWritePeriod = millis(250); ///< operator write cadence
constexpr const char* kRtuEndpoint = "chaos/rtu";
/// Safety valve against accidental infinite message loops in a faulty run.
constexpr std::size_t kEventBudget = 20'000'000;

/// One full chaos run over a fresh deployment. Everything is seeded: the
/// deployment's network fault rng, the script (passed in), and the workload.
class ChaosRun {
 public:
  ChaosRun(const ChaosOptions& options, FaultScript script)
      : opt_(options),
        script_(std::move(script)),
        system_(make_options(options)),
        rtu_(system_.net(), kRtuEndpoint,
             rtu::RtuOptions{.sample_period = millis(100),
                             .seed = options.seed ^ 0x57075707ULL}),
        driver_(system_.net(), system_.frontend(),
                rtu::DriverOptions{.poll_period = millis(100)}),
        checker_(system_),
        applier_(system_, checker_) {
    applier_.add_rtu(&rtu_);
  }

  RunReport run() {
    build_plant();
    applier_.set_flood_target(tank_);
    checker_.attach();
    system_.loop().set_event_budget(kEventBudget);
    system_.start();
    rtu_.start();
    driver_.start();
    system_.run_until(system_.loop().now() + kWarmup);

    const SimTime t0 = system_.loop().now();
    for (const FaultAction& action : script_.actions) {
      system_.loop().schedule_at(t0 + action.at,
                                 [this, &action] { applier_.apply(action); });
    }
    system_.loop().schedule_at(t0 + kChaosHorizon,
                               [this] { applier_.heal_world(); });

    stop_writes_at_ = t0 + kChaosHorizon + kDrain / 2;
    schedule_next_write();

    // Drain with traffic flowing (lagging replicas need evidence to catch
    // up), then cut the telemetry source and let the system quiesce.
    system_.run_until(t0 + kChaosHorizon + kDrain);
    system_.net().set_policy(core::kFrontendEndpoint,
                             core::kProxyFrontendEndpoint,
                             sim::LinkPolicy::cut_link());
    bool runaway = false;
    try {
      system_.run_until(t0 + kChaosHorizon + kDrain + kQuiesce);
    } catch (const std::runtime_error& e) {
      runaway = true;
      checker_.add_violation("event-budget", e.what());
    }
    if (!runaway) {
      if (opt_.family == ScenarioFamily::kCrashRestart ||
          opt_.family == ScenarioFamily::kCompromiseRecover) {
        // Align checkpoints at the quiesced frontier so the checker compares
        // digests at one shared cid — in particular, a rejoined replica's
        // durable checkpoint must converge with the live quorum's.
        for (std::uint32_t i = 0; i < system_.n(); ++i) {
          if (!system_.replica(i).crashed()) {
            system_.replica(i).checkpoint_now();
          }
        }
        checker_.set_require_checkpoint_alignment(true);
      }
      checker_.final_check(/*quiesced=*/true, /*expect_liveness=*/true);
      check_family_invariants();
    }

    RunReport report;
    report.script = script_;
    report.violations = checker_.violations();
    report.decisions = checker_.decisions_observed();
    report.writes_issued = checker_.writes_issued();
    report.writes_completed = checker_.writes_completed();
    for (std::uint32_t i = 0; i < system_.n(); ++i) {
      report.view_changes += system_.replica_stats(i).view_changes;
      report.state_transfers += system_.replica_stats(i).state_transfers;
      report.epoch_rejections += system_.replica_stats(i).epoch_rejections;
      report.usig_rejections += system_.replica_stats(i).usig_rejections;
      report.equivocations += system_.replica_stats(i).equivocations_detected;
    }
    report.shed = system_.proxy_frontend().client_stats().shed;
    return report;
  }

 private:
  static core::ReplicatedOptions make_options(const ChaosOptions& options) {
    core::ReplicatedOptions out;
    out.group = GroupConfig::for_protocol(options.protocol, options.f);
    out.costs = sim::CostModel::zero();
    out.costs.hop_latency = micros(50);
    out.write_timeout = options.sabotage == Sabotage::kDisableLogicalTimeouts
                            ? 0
                            : millis(500);
    out.checkpoint_interval = 32;
    if (options.family == ScenarioFamily::kCrashRestart ||
        options.family == ScenarioFamily::kCompromiseRecover) {
      // Durable state dirs + a small checkpoint interval, so a kill landing
      // mid-run has both a checkpoint and a WAL suffix to recover from.
      out.durable = true;
      out.checkpoint_interval = 8;
    }
    if (options.family == ScenarioFamily::kCompromiseRecover) {
      // Short handover window: the scripted stolen-key replay (>= 700 ms
      // after the restart) must land after it closes, so every forged
      // old-epoch message is rejected rather than tolerated as handover.
      out.epoch_handover_window = millis(250);
    }
    if (options.family == ScenarioFamily::kRequestFlood) {
      // Edge backpressure under test: the flood must shed at the frontend
      // proxy instead of amplifying into the agreement group.
      out.frontend_max_inflight = 64;
    }
    // Vary the network's fault rng with the seed so probabilistic link
    // policies explore different drop patterns per run.
    std::uint64_t sm = options.seed;
    out.fault_seed = splitmix64(sm);
    return out;
  }

  void build_plant() {
    tank_ = system_.add_point("chaos/tank");
    pump_ = system_.add_point("chaos/pump", scada::Variant{1000.0});
    valve_ = system_.add_point("chaos/valve", scada::Variant{500.0});
    rtu_.add_sensor(0, std::make_unique<rtu::RampSignal>(10.0, 3.0),
                    rtu::RegisterScaling{0.1, 0.0});
    rtu_.add_actuator(1, 1000);
    rtu_.add_actuator(2, 500);
    driver_.bind_sensor(kRtuEndpoint, 0, rtu::RegisterScaling{0.1, 0.0},
                        tank_);
    driver_.bind_actuator(kRtuEndpoint, 1, rtu::RegisterScaling{1.0, 0.0},
                          pump_);
    driver_.bind_actuator(kRtuEndpoint, 2, rtu::RegisterScaling{1.0, 0.0},
                          valve_);
    system_.configure_masters([this](scada::ScadaMaster& master) {
      master.handlers(tank_).emplace<scada::MonitorHandler>(
          scada::MonitorHandler::Condition::kAbove, 95.0,
          scada::Severity::kCritical, /*edge_triggered=*/true);
      master.handlers(pump_).emplace<scada::BlockHandler>(0.0, 3000.0);
    });
  }

  void schedule_next_write() {
    system_.loop().schedule(kWritePeriod, [this] {
      if (system_.loop().now() >= stop_writes_at_) return;
      issue_write();
      schedule_next_write();
    });
  }

  void issue_write() {
    ++write_counter_;
    ItemId item = (write_counter_ % 2 == 0) ? pump_ : valve_;
    // Every 7th pump write is out of the Block handler's range: a
    // deterministic denial exercises the AE path under faults.
    double value = (item == pump_ && write_counter_ % 7 == 0)
                       ? 9000.0
                       : 500.0 + static_cast<double>(
                                     (write_counter_ * 137) % 2000);
    OpId op = system_.hmi().write(
        item, scada::Variant{value},
        [this](const scada::WriteResult& result) {
          checker_.note_write_completed(result.ctx.op, result.status);
        });
    checker_.note_write_issued(op);
  }

  /// Family-specific end-of-run judgements, on top of the checker's
  /// universal invariants.
  void check_family_invariants() {
    std::uint64_t stolen_sent = applier_.stolen_sent();
    if (opt_.family == ScenarioFamily::kCompromiseRecover &&
        stolen_sent > 0) {
      // Epoch flush: every forged old-epoch message died at a receiver.
      std::uint64_t rejections = 0;
      for (std::uint32_t i = 0; i < system_.n(); ++i) {
        rejections += system_.replica_stats(i).epoch_rejections;
      }
      if (rejections < stolen_sent) {
        checker_.add_violation(
            "epoch-flush",
            "only " + std::to_string(rejections) +
                " epoch rejections for " + std::to_string(stolen_sent) +
                " forged old-epoch messages");
      }
      // Post-recovery clean: the reincarnated victim runs a bumped key
      // epoch and no residual Byzantine mode.
      const std::optional<std::uint32_t>& replay_victim =
          applier_.replay_victim();
      if (replay_victim.has_value()) {
        bft::Replica& victim = system_.replica(*replay_victim);
        if (victim.key_epoch() == 0) {
          checker_.add_violation("key-refresh",
                                 "victim replica " +
                                     std::to_string(*replay_victim) +
                                     " still on key epoch 0 after "
                                     "reincarnation");
        }
        if (victim.byzantine() != bft::ByzantineMode::kNone) {
          checker_.add_violation("key-refresh",
                                 "victim replica " +
                                     std::to_string(*replay_victim) +
                                     " still Byzantine after reincarnation");
        }
      }
    }
    if (opt_.family == ScenarioFamily::kRequestFlood &&
        applier_.flooded() > 64 &&
        system_.proxy_frontend().client_stats().shed == 0) {
      checker_.add_violation(
          "backpressure",
          "flood of " + std::to_string(applier_.flooded()) +
              " updates never tripped the frontend inflight cap");
    }
  }

  ChaosOptions opt_;
  FaultScript script_;
  core::ReplicatedDeployment system_;
  rtu::Rtu rtu_;
  rtu::RtuDriver driver_;
  InvariantChecker checker_;
  ActionApplier applier_;
  ItemId tank_, pump_, valve_;
  SimTime stop_writes_at_ = 0;
  std::uint64_t write_counter_ = 0;
};

}  // namespace

std::string RunReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu violations, %" PRIu64 " decisions, %" PRIu64 "/%" PRIu64
                " writes, %" PRIu64 " view changes, %" PRIu64
                " state transfers, %" PRIu64 " epoch rejections, %" PRIu64
                " shed",
                violations.size(), decisions, writes_completed, writes_issued,
                view_changes, state_transfers, epoch_rejections, shed);
  std::string out = buf;
  if (usig_rejections > 0 || equivocations > 0) {
    std::snprintf(buf, sizeof(buf),
                  ", %" PRIu64 " usig rejections, %" PRIu64
                  " equivocations detected",
                  usig_rejections, equivocations);
    out += buf;
  }
  return out;
}

RunReport run_script(const ChaosOptions& options, const FaultScript& script) {
  ChaosRun run(options, script);
  return run.run();
}

RunReport run_chaos(const ChaosOptions& options) {
  ScriptParams params;
  params.group = GroupConfig::for_protocol(options.protocol, options.f);
  params.horizon = kChaosHorizon;
  params.has_rtu = true;
  return run_script(options,
                    generate_script(options.family, params, options.seed));
}

SweepReport run_sweep(const ChaosOptions& base, std::uint64_t first_seed,
                      std::uint64_t count) {
  SweepReport sweep;
  for (std::uint64_t i = 0; i < count; ++i) {
    ChaosOptions options = base;
    options.seed = first_seed + i;
    RunReport report = run_chaos(options);
    ++sweep.runs;
    sweep.decisions += report.decisions;
    sweep.writes_completed += report.writes_completed;
    if (!report.ok()) {
      ++sweep.failures;
      if (sweep.failing.size() < 3) {
        sweep.failing.emplace_back(options.seed, std::move(report));
      }
    }
  }
  return sweep;
}

std::string repro_command(const ChaosOptions& options,
                          const std::vector<std::size_t>* kept) {
  std::string cmd = "chaos_replay --family=";
  cmd += family_name(options.family);
  if (options.protocol != Protocol::kPbft) {
    cmd += " --protocol=";
    cmd += protocol_name(options.protocol);
  }
  cmd += " --f=" + std::to_string(options.f);
  char seed[32];
  std::snprintf(seed, sizeof(seed), " --seed=0x%" PRIx64, options.seed);
  cmd += seed;
  if (options.sabotage == Sabotage::kDisableLogicalTimeouts) {
    cmd += " --sabotage=no-timeouts";
  }
  if (kept != nullptr) {
    cmd += " --keep=";
    for (std::size_t i = 0; i < kept->size(); ++i) {
      if (i > 0) cmd += ",";
      cmd += std::to_string((*kept)[i]);
    }
  }
  return cmd;
}

MinimizeResult minimize(const ChaosOptions& options) {
  ScriptParams params;
  params.group = GroupConfig::for_protocol(options.protocol, options.f);
  params.horizon = kChaosHorizon;
  params.has_rtu = true;
  FaultScript full = generate_script(options.family, params, options.seed);

  MinimizeResult result;
  result.report = run_script(options, full);
  result.kept = minimize_script(full, [&](const FaultScript& candidate) {
    RunReport report = run_script(options, candidate);
    if (report.ok()) return false;
    result.report = std::move(report);
    return true;
  });
  result.minimal = full.subset(result.kept);
  result.repro = repro_command(options, &result.kept);
  return result;
}

}  // namespace ss::chaos
