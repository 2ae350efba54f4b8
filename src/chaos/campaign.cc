#include "chaos/campaign.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
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
constexpr SimTime kDrain = millis(1500);
constexpr SimTime kQuiesce = seconds(2);
constexpr SimTime kWritePeriod = millis(200);  ///< operator write cadence
/// Phase-audit bound on the correct live replicas' decide-frontier spread:
/// generous against in-flight catch-up (state transfer triggers at gap 64),
/// tight enough that a replica silently left behind for a whole phase fails.
constexpr std::uint64_t kMaxFrontierSpread = 256;

/// One live soak over a fresh deployment: the plant, the workload, the
/// watchdog, the audits, and the recovery-bound bookkeeping. The fault
/// schedule arrives as a flattened script (absolute offsets); heal points
/// are a pure function of the options, so a minimized script subset runs
/// under the identical harness.
class CampaignRun {
 public:
  CampaignRun(const CampaignOptions& options, FaultScript script)
      : opt_(options),
        script_(std::move(script)),
        system_(make_options(options)),
        driver_(system_.net(), system_.frontend(),
                rtu::DriverOptions{.poll_period = millis(100)}),
        checker_(system_),
        applier_(system_, checker_) {}

  CampaignReport run() {
    build_plant();
    checker_.attach();
    const std::uint64_t sim_seconds =
        static_cast<std::uint64_t>(opt_.duration / seconds(1)) + 1;
    system_.loop().set_event_budget(40'000'000 + sim_seconds * 12'000'000);
    system_.start();
    for (auto& rtu : rtus_) rtu->start();
    driver_.start();
    system_.run_until(system_.loop().now() + kWarmup);

    const SimTime t0 = system_.loop().now();
    for (const FaultAction& action : script_.actions) {
      system_.loop().schedule_at(t0 + action.at,
                                 [this, &action] { applier_.apply(action); });
    }

    // Heal + audit cadence: one heal point per phase (and a final one at
    // the end of the fault window), each followed by a frontier audit.
    const SimTime phase = std::max<SimTime>(opt_.phase, millis(500));
    const std::uint64_t phases =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       opt_.duration / phase));
    const SimTime end = t0 + static_cast<SimTime>(phases) * phase;
    for (std::uint64_t k = 0; k < phases; ++k) {
      SimTime start = t0 + static_cast<SimTime>(k) * phase;
      system_.loop().schedule_at(start + phase * 3 / 4,
                                 [this] { do_heal(); });
      system_.loop().schedule_at(start + phase * 7 / 8, [this] { audit(); });
    }
    system_.loop().schedule_at(end, [this] { do_heal(); });

    if (opt_.wedge_at > 0) {
      system_.loop().schedule_at(t0 + opt_.wedge_at, [this] { wedge(); });
    }

    stop_writes_at_ = end + kDrain / 2;
    watchdog_stop_at_ = stop_writes_at_;
    schedule_next_write();
    system_.loop().schedule(opt_.watchdog_window, [this] { watchdog(); });

    // Drain with traffic flowing (lagging replicas need evidence to catch
    // up), then cut the telemetry source and let the system quiesce.
    bool runaway = false;
    try {
      system_.run_until(end + kDrain);
      system_.net().set_policy(core::kFrontendEndpoint,
                               core::kProxyFrontendEndpoint,
                               sim::LinkPolicy::cut_link());
      system_.run_until(end + kDrain + kQuiesce);
    } catch (const std::runtime_error& e) {
      runaway = true;
      checker_.add_violation("event-budget", e.what());
    }
    if (!runaway) {
      if (heal_pending_ && checker_.writes_issued() > 0) {
        checker_.add_violation(
            "recovery-time",
            "no client-visible completion after the last heal point");
      } else if (worst_recovery_ > kRecoveryBound) {
        checker_.add_violation(
            "recovery-time",
            "slowest post-heal recovery " +
                std::to_string(worst_recovery_ / millis(1)) + "ms exceeds " +
                std::to_string(kRecoveryBound / millis(1)) + "ms bound");
      }
      // Campaigns always run durable: align checkpoints at the quiesced
      // frontier so rejoined replicas' durable state is judged too.
      for (std::uint32_t i = 0; i < system_.n(); ++i) {
        if (!system_.replica(i).crashed()) system_.replica(i).checkpoint_now();
      }
      checker_.set_require_checkpoint_alignment(true);
      checker_.final_check(/*quiesced=*/true, /*expect_liveness=*/true);
    }

    CampaignReport report;
    report.violations = checker_.violations();
    report.decisions = checker_.decisions_observed();
    report.writes_issued = checker_.writes_issued();
    report.writes_completed = checker_.writes_completed();
    report.watchdog_checks = watchdog_checks_;
    report.audits = audits_;
    report.worst_recovery = worst_recovery_;
    return report;
  }

 private:
  static core::ReplicatedOptions make_options(const CampaignOptions& options) {
    core::ReplicatedOptions out;
    out.group = GroupConfig::for_protocol(options.protocol, options.f);
    out.costs = sim::CostModel::zero();
    out.costs.hop_latency = micros(50);
    out.write_timeout = millis(500);
    // Durable replicas with a small checkpoint interval: any phase may kill
    // and reincarnate, so there must always be recent state on "disk".
    out.durable = true;
    out.checkpoint_interval = 8;
    out.epoch_handover_window = millis(250);
    out.frontend_max_inflight = 64;
    std::uint64_t sm = options.seed ^ 0xCA3ULL;
    out.fault_seed = splitmix64(sm);
    return out;
  }

  /// Builds the plant the campaign soaks — scaled-down twins of the example
  /// deployments, with alarm and range handlers so the workload exercises
  /// monitoring and denial paths, not just plain ordering.
  void build_plant() {
    if (opt_.plant == Plant::kPowerGrid) {
      // Three substations: sine-wave feeder voltage + a breaker control.
      // Substation 1's feeder swings above the 245 V alarm threshold, so
      // the campaign carries real event traffic throughout.
      for (std::uint32_t s = 0; s < 3; ++s) {
        std::string base = "substation/" + std::to_string(s);
        ItemId voltage = system_.add_point(base + "/voltage");
        ItemId breaker = system_.add_point(base + "/breaker",
                                           scada::Variant{1.0});
        auto rtu = std::make_unique<rtu::Rtu>(
            system_.net(), "campaign/rtu/" + std::to_string(s),
            rtu::RtuOptions{.sample_period = millis(100),
                            .seed = opt_.seed ^ (0x9D0ULL + s)});
        double mean = s == 1 ? 240.0 : 230.0;
        double amplitude = s == 1 ? 8.0 : 4.0;
        rtu->add_sensor(0,
                        std::make_unique<rtu::SineSignal>(
                            mean, amplitude, seconds(8),
                            0.5 * static_cast<double>(s)),
                        rtu::RegisterScaling{0.01, 0.0});
        rtu->add_actuator(1, 1);
        driver_.bind_sensor(rtu->endpoint(), 0,
                            rtu::RegisterScaling{0.01, 0.0}, voltage);
        driver_.bind_actuator(rtu->endpoint(), 1,
                              rtu::RegisterScaling{1.0, 0.0}, breaker);
        applier_.add_rtu(rtu.get());
        rtus_.push_back(std::move(rtu));
        telemetry_.push_back(voltage);
        controls_.push_back(breaker);
      }
      system_.configure_masters([this](scada::ScadaMaster& master) {
        for (ItemId voltage : telemetry_) {
          master.handlers(voltage).emplace<scada::MonitorHandler>(
              scada::MonitorHandler::Condition::kAbove, 245.0,
              scada::Severity::kCritical, /*edge_triggered=*/true);
        }
        for (ItemId breaker : controls_) {
          master.handlers(breaker).emplace<scada::BlockHandler>(0.0, 1.0);
        }
      });
      control_lo_ = 0.0;
      control_hi_ = 1.0;
      control_bad_ = 5.0;
    } else {
      // Two pump stations: random-walk line pressure + a pump-speed control
      // range-checked by a Block handler.
      for (std::uint32_t s = 0; s < 2; ++s) {
        std::string base = "pipeline/" + std::to_string(s);
        ItemId pressure = system_.add_point(base + "/pressure");
        ItemId pump = system_.add_point(base + "/pump",
                                        scada::Variant{1000.0});
        auto rtu = std::make_unique<rtu::Rtu>(
            system_.net(), "campaign/rtu/" + std::to_string(s),
            rtu::RtuOptions{.sample_period = millis(100),
                            .seed = opt_.seed ^ (0x3A7ULL + s)});
        rtu->add_sensor(0,
                        std::make_unique<rtu::RandomWalkSignal>(
                            50.0 + 10.0 * s, 2.0, 20.0, 90.0),
                        rtu::RegisterScaling{0.1, 0.0});
        rtu->add_actuator(1, 1000);
        driver_.bind_sensor(rtu->endpoint(), 0,
                            rtu::RegisterScaling{0.1, 0.0}, pressure);
        driver_.bind_actuator(rtu->endpoint(), 1,
                              rtu::RegisterScaling{1.0, 0.0}, pump);
        applier_.add_rtu(rtu.get());
        rtus_.push_back(std::move(rtu));
        telemetry_.push_back(pressure);
        controls_.push_back(pump);
      }
      system_.configure_masters([this](scada::ScadaMaster& master) {
        for (ItemId pressure : telemetry_) {
          master.handlers(pressure).emplace<scada::MonitorHandler>(
              scada::MonitorHandler::Condition::kAbove, 85.0,
              scada::Severity::kAlarm, /*edge_triggered=*/true);
        }
        for (ItemId pump : controls_) {
          master.handlers(pump).emplace<scada::BlockHandler>(600.0, 3000.0);
        }
      });
      control_lo_ = 600.0;
      control_hi_ = 3000.0;
      control_bad_ = 9000.0;
    }
    applier_.set_flood_target(telemetry_.front());
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
    ItemId item = controls_[write_counter_ % controls_.size()];
    // Every 7th write is out of the Block handler's range: a deterministic
    // denial keeps the AE/denial path exercised under faults.
    double span = control_hi_ - control_lo_;
    double value =
        (write_counter_ % 7 == 0)
            ? control_bad_
            : control_lo_ + static_cast<double>((write_counter_ * 137) %
                                                1000) /
                                1000.0 * span;
    OpId op = system_.hmi().write(
        item, scada::Variant{value}, [this](const scada::WriteResult& result) {
          on_write_completed(result);
        });
    checker_.note_write_issued(op);
  }

  void on_write_completed(const scada::WriteResult& result) {
    checker_.note_write_completed(result.ctx.op, result.status);
    if (heal_pending_) {
      heal_pending_ = false;
      SimTime sample = system_.loop().now() - last_heal_at_;
      worst_recovery_ = std::max(worst_recovery_, sample);
    }
  }

  void do_heal() {
    applier_.heal_world();
    last_heal_at_ = system_.loop().now();
    heal_pending_ = true;
    // The wedge test hook is deliberately invisible to the applier: a
    // heal-point must not cure it, or the watchdog has nothing to catch.
    if (wedged_) wedge();
  }

  /// Liveness watchdog: the decide frontier plus client-visible write
  /// completions must advance every window while a correct quorum is
  /// connected. "Connected" comes from the applier's own bookkeeping — a
  /// wedge it doesn't know about (the paper's silent gray failure of the
  /// whole service) is exactly what this check turns into a violation.
  void watchdog() {
    if (system_.loop().now() >= watchdog_stop_at_) return;
    ++watchdog_checks_;
    std::uint64_t progress =
        checker_.decisions_observed() + checker_.writes_completed();
    if (progress == last_progress_ && applier_.quorum_connected() &&
        !watchdog_fired_) {
      watchdog_fired_ = true;
      checker_.add_violation(
          "liveness-watchdog",
          "no progress for " +
              std::to_string(opt_.watchdog_window / millis(1)) +
              "ms with a correct quorum connected (decisions=" +
              std::to_string(checker_.decisions_observed()) +
              ", completions=" + std::to_string(checker_.writes_completed()) +
              ")");
    }
    last_progress_ = progress;
    system_.loop().schedule(opt_.watchdog_window, [this] { watchdog(); });
  }

  /// Phase audit: among correct, connected, live replicas the decide
  /// frontier must stay within kMaxFrontierSpread — agreement alone lets a
  /// replica fall arbitrarily far behind without any invariant noticing
  /// until the end-of-run convergence check.
  void audit() {
    ++audits_;
    if (!applier_.quorum_connected()) return;
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    std::uint32_t straggler = 0;
    bool any = false;
    for (std::uint32_t i = 0; i < system_.n(); ++i) {
      if (system_.replica(i).crashed()) continue;
      if (applier_.isolated().count(i) > 0) continue;
      if (system_.replica(i).byzantine() != bft::ByzantineMode::kNone) {
        continue;
      }
      std::uint64_t frontier = system_.replica(i).last_decided().value;
      if (frontier < lo) {
        lo = frontier;
        straggler = i;
      }
      hi = std::max(hi, frontier);
      any = true;
    }
    if (any && hi - lo > kMaxFrontierSpread) {
      checker_.add_violation(
          "frontier-audit",
          "replica " + std::to_string(straggler) + " decide frontier " +
              std::to_string(lo) + " trails the lead " + std::to_string(hi) +
              " by more than " + std::to_string(kMaxFrontierSpread));
    }
  }

  /// The artificial wedge (test hook): isolates every replica behind the
  /// applier's back, so the deployment silently stops while the campaign's
  /// availability bookkeeping still believes a quorum is connected.
  void wedge() {
    wedged_ = true;
    for (std::uint32_t i = 0; i < system_.n(); ++i) {
      system_.net().isolate(crypto::replica_principal(ReplicaId{i}));
    }
  }

  CampaignOptions opt_;
  FaultScript script_;
  core::ReplicatedDeployment system_;
  rtu::RtuDriver driver_;
  InvariantChecker checker_;
  ActionApplier applier_;
  std::vector<std::unique_ptr<rtu::Rtu>> rtus_;
  std::vector<ItemId> telemetry_;
  std::vector<ItemId> controls_;
  double control_lo_ = 0.0, control_hi_ = 1.0, control_bad_ = 5.0;

  SimTime stop_writes_at_ = 0;
  SimTime watchdog_stop_at_ = 0;
  std::uint64_t write_counter_ = 0;
  std::uint64_t last_progress_ = 0;
  std::uint64_t watchdog_checks_ = 0;
  std::uint64_t audits_ = 0;
  bool watchdog_fired_ = false;
  bool wedged_ = false;
  bool heal_pending_ = false;
  SimTime last_heal_at_ = 0;
  SimTime worst_recovery_ = 0;
};

}  // namespace

const char* plant_name(Plant plant) {
  switch (plant) {
    case Plant::kPowerGrid:
      return "power-grid";
    case Plant::kWaterPipeline:
      return "water-pipeline";
  }
  return "?";
}

bool parse_plant(const std::string& name, Plant& out) {
  if (name == plant_name(Plant::kPowerGrid)) {
    out = Plant::kPowerGrid;
    return true;
  }
  if (name == plant_name(Plant::kWaterPipeline)) {
    out = Plant::kWaterPipeline;
    return true;
  }
  return false;
}

FaultScript CampaignPlan::flatten() const {
  FaultScript out;
  for (const CampaignPhase& phase : phases) {
    out.actions.insert(out.actions.end(), phase.script.actions.begin(),
                       phase.script.actions.end());
  }
  std::stable_sort(out.actions.begin(), out.actions.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at < b.at;
                   });
  return out;
}

std::string CampaignPlan::describe() const {
  std::string out;
  char buf[128];
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const CampaignPhase& phase = phases[k];
    std::snprintf(buf, sizeof(buf), "phase %zu t+%llds %s%s (%zu actions)\n",
                  k, static_cast<long long>(phase.start / seconds(1)),
                  family_name(phase.family),
                  phase.gray_overlay ? "+gray-failure" : "",
                  phase.script.actions.size());
    out += buf;
  }
  return out;
}

std::string CampaignReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu violations, %" PRIu64 " decisions, %" PRIu64 "/%" PRIu64
                " writes, %" PRIu64 " watchdog checks, %" PRIu64
                " audits, worst recovery %lldms",
                violations.size(), decisions, writes_completed, writes_issued,
                watchdog_checks, audits,
                static_cast<long long>(worst_recovery / millis(1)));
  return buf;
}

CampaignPlan plan_campaign(const CampaignOptions& options) {
  CampaignPlan plan;
  std::uint64_t sm = options.seed ^ 0xCA4BULL;
  Rng rng(splitmix64(sm));
  GroupConfig group = GroupConfig::for_protocol(options.protocol, options.f);

  const SimTime phase_len = std::max<SimTime>(options.phase, millis(500));
  const std::uint64_t phases = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(options.duration / phase_len));

  ScriptParams params;
  params.group = group;
  // Injections stop at 5/8 of the phase: the heal point (3/4) and the audit
  // (7/8) need the tail to themselves.
  params.horizon = phase_len * 5 / 8;
  params.has_rtu = true;

  std::vector<ScenarioFamily> deck;
  for (std::uint64_t k = 0; k < phases; ++k) {
    if (deck.empty()) {
      // Reshuffle a full deck: every family appears before any repeats.
      deck.assign(std::begin(kAllFamilies), std::end(kAllFamilies));
      for (std::size_t i = deck.size(); i > 1; --i) {
        std::size_t j = static_cast<std::size_t>(rng.below(i));
        std::swap(deck[i - 1], deck[j]);
      }
    }
    CampaignPhase phase;
    phase.family = deck.back();
    deck.pop_back();
    phase.start = static_cast<SimTime>(k) * phase_len;
    std::uint64_t psm = options.seed * 0x9e3779b97f4a7c15ULL + k + 1;
    phase.seed = splitmix64(psm);

    phase.script = generate_script(phase.family, params, phase.seed);
    // Overlap axis: a third of non-gray phases get an independent
    // gray-failure script layered on top — slow-but-correct replicas while
    // Byzantine/partition/crash faults are also live.
    if (phase.family != ScenarioFamily::kGrayFailure && rng.chance(1.0 / 3)) {
      phase.gray_overlay = true;
      FaultScript overlay = generate_script(ScenarioFamily::kGrayFailure,
                                            params, phase.seed ^ 0x6A41ULL);
      phase.script.actions.insert(phase.script.actions.end(),
                                  overlay.actions.begin(),
                                  overlay.actions.end());
    }
    for (FaultAction& action : phase.script.actions) {
      action.at += phase.start;
    }
    std::stable_sort(phase.script.actions.begin(),
                     phase.script.actions.end(),
                     [](const FaultAction& a, const FaultAction& b) {
                       return a.at < b.at;
                     });
    plan.phases.push_back(std::move(phase));
  }
  return plan;
}

CampaignReport run_campaign_script(const CampaignOptions& options,
                                   const FaultScript& script) {
  CampaignRun run(options, script);
  return run.run();
}

CampaignReport run_campaign(const CampaignOptions& options) {
  CampaignPlan plan = plan_campaign(options);
  CampaignReport report = run_campaign_script(options, plan.flatten());
  report.plan = std::move(plan);
  return report;
}

CampaignMinimizeResult minimize_campaign(const CampaignOptions& options) {
  FaultScript full = plan_campaign(options).flatten();
  CampaignMinimizeResult result;
  result.report = run_campaign_script(options, full);
  result.kept = minimize_script(full, [&](const FaultScript& candidate) {
    CampaignReport report = run_campaign_script(options, candidate);
    if (report.ok()) return false;
    result.report = std::move(report);
    return true;
  });
  result.minimal = full.subset(result.kept);
  return result;
}

std::string campaign_repro_command(const CampaignOptions& options) {
  std::string cmd = "soak_campaign --plant=";
  cmd += plant_name(options.plant);
  if (options.protocol != Protocol::kPbft) {
    cmd += " --protocol=";
    cmd += protocol_name(options.protocol);
  }
  cmd += " --f=" + std::to_string(options.f);
  char buf[64];
  std::snprintf(buf, sizeof(buf), " --seed=0x%" PRIx64, options.seed);
  cmd += buf;
  std::snprintf(buf, sizeof(buf), " --duration=%lld",
                static_cast<long long>(options.duration / seconds(1)));
  cmd += buf;
  if (options.phase != seconds(4)) {
    std::snprintf(buf, sizeof(buf), " --phase=%lld",
                  static_cast<long long>(options.phase / millis(1)));
    cmd += buf;
  }
  if (options.wedge_at != 0) {
    std::snprintf(buf, sizeof(buf), " --wedge-at=%lld",
                  static_cast<long long>(options.wedge_at / millis(1)));
    cmd += buf;
  }
  return cmd;
}

}  // namespace ss::chaos
