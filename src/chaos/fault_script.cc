#include "chaos/fault_script.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "crypto/keychain.h"

namespace ss::chaos {

namespace {

const char* mode_name(bft::ByzantineMode mode) {
  switch (mode) {
    case bft::ByzantineMode::kNone:
      return "none";
    case bft::ByzantineMode::kSilent:
      return "silent";
    case bft::ByzantineMode::kCorruptReplies:
      return "corrupt-replies";
    case bft::ByzantineMode::kCorruptVotes:
      return "corrupt-votes";
    case bft::ByzantineMode::kEquivocate:
      return "equivocate";
  }
  return "?";
}

std::string at_ms(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t+%lldms",
                static_cast<long long>(t / millis(1)));
  return buf;
}

SimTime pick_time(Rng& rng, SimTime lo, SimTime hi) {
  if (hi <= lo) return lo;
  return lo + static_cast<SimTime>(
                  rng.below(static_cast<std::uint64_t>(hi - lo)));
}

/// Replicas that may be impaired simultaneously: a fixed subset of size <= f
/// chosen up front, so every replica-level fault in the script respects the
/// budget no matter how the windows overlap.
std::vector<std::uint32_t> pick_impaired_set(Rng& rng,
                                             const GroupConfig& group) {
  std::uint32_t k = group.f == 0 ? 0 : 1 + static_cast<std::uint32_t>(
                                               rng.below(group.f));
  std::vector<std::uint32_t> all(group.n);
  for (std::uint32_t i = 0; i < group.n; ++i) all[i] = i;
  // Partial Fisher-Yates with the script's own rng.
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint32_t j = i + static_cast<std::uint32_t>(rng.below(group.n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

void add_byzantine_faults(Rng& rng, const ScriptParams& params,
                          const std::vector<std::uint32_t>& impaired,
                          FaultScript& script) {
  for (std::uint32_t replica : impaired) {
    SimTime start = pick_time(rng, params.horizon / 20, params.horizon / 2);
    if (rng.chance(0.35)) {
      // Pause/restart instead of a Byzantine mode.
      FaultAction crash;
      crash.at = start;
      crash.kind = ActionKind::kCrashReplica;
      crash.replica = replica;
      script.actions.push_back(crash);
      FaultAction recover = crash;
      recover.kind = ActionKind::kRecoverReplica;
      recover.at = pick_time(rng, start + millis(200), params.horizon);
      script.actions.push_back(recover);
      continue;
    }
    static constexpr bft::ByzantineMode kModes[] = {
        bft::ByzantineMode::kSilent, bft::ByzantineMode::kCorruptReplies,
        bft::ByzantineMode::kCorruptVotes, bft::ByzantineMode::kEquivocate};
    FaultAction set;
    set.at = start;
    set.kind = ActionKind::kSetByzantine;
    set.replica = replica;
    set.mode = kModes[rng.below(4)];
    script.actions.push_back(set);
    if (rng.chance(0.6)) {
      // Reimage (clear) before the horizon; otherwise the drain heal does it.
      FaultAction clear;
      clear.at = pick_time(rng, start + millis(300), params.horizon);
      clear.kind = ActionKind::kClearByzantine;
      clear.replica = replica;
      script.actions.push_back(clear);
    }
  }
}

void add_partition_faults(Rng& rng, const ScriptParams& params,
                          const std::vector<std::uint32_t>& impaired,
                          FaultScript& script) {
  for (std::uint32_t replica : impaired) {
    SimTime start = pick_time(rng, params.horizon / 20, params.horizon / 2);
    FaultAction cut;
    cut.at = start;
    cut.kind = ActionKind::kIsolateReplica;
    cut.replica = replica;
    script.actions.push_back(cut);
    if (rng.chance(0.7)) {
      FaultAction heal = cut;
      heal.kind = ActionKind::kHealReplica;
      heal.at = pick_time(rng, start + millis(200), params.horizon);
      script.actions.push_back(heal);
    }
  }
}

void add_lossy_links(Rng& rng, const ScriptParams& params,
                     FaultScript& script) {
  std::uint32_t m = 1 + static_cast<std::uint32_t>(rng.below(3));
  for (std::uint32_t i = 0; i < m; ++i) {
    FaultAction fault;
    fault.at = pick_time(rng, 0, params.horizon / 2);
    fault.kind = ActionKind::kLinkFault;
    // Direction: one replica's inbound, outbound, or a specific pair; with
    // some probability hit the adapters' timeout-vote links instead.
    std::uint32_t a = static_cast<std::uint32_t>(rng.below(params.group.n));
    std::uint32_t b = static_cast<std::uint32_t>(rng.below(params.group.n));
    const char* prefix = rng.chance(0.25) ? "adapter/" : "replica/";
    switch (rng.below(3)) {
      case 0:
        fault.link.from = std::string(prefix) + "*";
        fault.link.to = prefix + std::to_string(a);
        break;
      case 1:
        fault.link.from = prefix + std::to_string(a);
        fault.link.to = std::string(prefix) + "*";
        break;
      default:
        fault.link.from = prefix + std::to_string(a);
        fault.link.to = prefix + std::to_string(b == a ? (b + 1) %
                                                   params.group.n : b);
        break;
    }
    // Rates low enough that client retransmission + view changes keep the
    // system live until the heal point.
    fault.link.policy.drop_prob = 0.05 + 0.3 * rng.uniform();
    if (rng.chance(0.5)) fault.link.policy.dup_prob = 0.25 * rng.uniform();
    if (rng.chance(0.5)) {
      fault.link.policy.extra_delay =
          static_cast<SimTime>(rng.below(millis(20)));
    }
    if (rng.chance(0.5)) {
      fault.link.policy.jitter = static_cast<SimTime>(rng.below(millis(30)));
    }
    script.actions.push_back(fault);
    if (rng.chance(0.7)) {
      FaultAction heal = fault;
      heal.kind = ActionKind::kHealLink;
      heal.link.heal = true;
      heal.link.policy = sim::LinkPolicy{};
      heal.at = pick_time(rng, fault.at + millis(200), params.horizon);
      script.actions.push_back(heal);
    }
  }
}

void add_crash_restart_faults(Rng& rng, const ScriptParams& params,
                              const std::vector<std::uint32_t>& impaired,
                              FaultScript& script) {
  for (std::uint32_t replica : impaired) {
    SimTime start = pick_time(rng, params.horizon / 20, params.horizon / 2);
    FaultAction kill;
    kill.at = start;
    kill.kind = ActionKind::kKillReplica;
    kill.replica = replica;
    script.actions.push_back(kill);
    if (rng.chance(0.8)) {
      // Supervised restart before the horizon; otherwise the drain-phase
      // heal restarts it (a replica that stays down past the horizon).
      FaultAction restart = kill;
      restart.kind = ActionKind::kRestartReplica;
      restart.at = pick_time(rng, start + millis(300), params.horizon);
      script.actions.push_back(restart);
    }
  }
}

// The proactive-recovery attack the key-epoch machinery exists to defeat:
// an adversary compromises a replica, the operator reincarnates it (kill +
// durable restart, which bumps its session-key epoch), and the adversary —
// who walked away with the pre-reincarnation session keys — replays forged
// traffic with them after the handover window closed. Every forged message
// must die at the receivers' epoch policy.
void add_compromise_recover_faults(Rng& rng, const ScriptParams& params,
                                   const std::vector<std::uint32_t>& impaired,
                                   FaultScript& script) {
  if (impaired.empty()) return;
  std::uint32_t victim = impaired.front();

  static constexpr bft::ByzantineMode kModes[] = {
      bft::ByzantineMode::kSilent, bft::ByzantineMode::kCorruptReplies,
      bft::ByzantineMode::kCorruptVotes, bft::ByzantineMode::kEquivocate};
  FaultAction compromise;
  compromise.at = pick_time(rng, params.horizon / 20, params.horizon / 3);
  compromise.kind = ActionKind::kSetByzantine;
  compromise.replica = victim;
  compromise.mode = kModes[rng.below(4)];
  script.actions.push_back(compromise);

  FaultAction kill;
  kill.at = pick_time(rng, compromise.at + millis(200), params.horizon / 2);
  kill.kind = ActionKind::kKillReplica;
  kill.replica = victim;
  script.actions.push_back(kill);

  FaultAction restart = kill;
  restart.kind = ActionKind::kRestartReplica;
  restart.at = kill.at + millis(100) +
               static_cast<SimTime>(rng.below(millis(200)));
  script.actions.push_back(restart);

  // Scheduled well past the engine's 250 ms handover window, measured from
  // the restart (peers adopt the new epoch within the victim's first
  // rejoin messages): the stolen epoch is stale by the time it is replayed.
  FaultAction replay;
  replay.at = restart.at + millis(700) +
              static_cast<SimTime>(rng.below(millis(300)));
  replay.kind = ActionKind::kReplayStolenKeys;
  replay.replica = victim;
  replay.count = 3 + rng.below(6);
  script.actions.push_back(replay);
}

void add_request_flood(Rng& rng, const ScriptParams& params,
                       FaultScript& script) {
  std::uint32_t bursts = 2 + static_cast<std::uint32_t>(rng.below(3));
  for (std::uint32_t i = 0; i < bursts; ++i) {
    FaultAction flood;
    flood.at = pick_time(rng, params.horizon / 10, params.horizon * 2 / 3);
    flood.kind = ActionKind::kUpdateFlood;
    flood.count = 200 + rng.below(601);
    script.actions.push_back(flood);
  }
}

// Gray failures: up to f replicas get slow without ever misbehaving. Each
// victim draws one or two impairments (extra per-message CPU, fsync stalls,
// timer skew) with magnitudes that thin the liveness margin but stay below
// outright leader-suspect territory for a correct deployment, plus usually a
// clear before the horizon (the drain heal clears stragglers).
void add_gray_failures(Rng& rng, const ScriptParams& params,
                       const std::vector<std::uint32_t>& impaired,
                       FaultScript& script) {
  for (std::uint32_t replica : impaired) {
    SimTime start = pick_time(rng, params.horizon / 20, params.horizon / 2);
    std::uint32_t impairments = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (std::uint32_t i = 0; i < impairments; ++i) {
      FaultAction gray;
      gray.at = pick_time(rng, start, params.horizon * 2 / 3);
      gray.replica = replica;
      switch (rng.below(3)) {
        case 0:
          gray.kind = ActionKind::kGraySlow;
          gray.count = 200 + rng.below(1800);  // 0.2–2 ms per message
          break;
        case 1:
          gray.kind = ActionKind::kGrayFsyncStall;
          gray.count = 500 + rng.below(4500);  // 0.5–5 ms per fsync
          break;
        default:
          gray.kind = ActionKind::kGrayTimerSkew;
          // 120%–300% slow clock, or occasionally a fast one (60–90%).
          gray.count = rng.chance(0.25) ? 60 + rng.below(31)
                                        : 120 + rng.below(181);
          break;
      }
      script.actions.push_back(gray);
    }
    if (rng.chance(0.6)) {
      FaultAction clear;
      clear.at = pick_time(rng, start + millis(300), params.horizon);
      clear.kind = ActionKind::kGrayClear;
      clear.replica = replica;
      script.actions.push_back(clear);
    }
  }
}

void add_rtu_faults(Rng& rng, const ScriptParams& params,
                    FaultScript& script) {
  if (!params.has_rtu) return;
  std::uint32_t m = 1 + static_cast<std::uint32_t>(rng.below(3));
  for (std::uint32_t i = 0; i < m; ++i) {
    FaultAction fault;
    fault.at = pick_time(rng, params.horizon / 10, params.horizon);
    if (rng.chance(0.6)) {
      // Swallowed requests are the logical-timeout protocol's reason to
      // exist; they also eat polls, which is harmless noise.
      fault.kind = ActionKind::kRtuSwallowRequests;
      fault.count = 1 + rng.below(5);
    } else {
      fault.kind = ActionKind::kRtuFailWrites;
      fault.count = 1 + rng.below(3);
    }
    script.actions.push_back(fault);
  }
}

}  // namespace

const char* family_name(ScenarioFamily family) {
  switch (family) {
    case ScenarioFamily::kByzantineReplicas:
      return "byzantine";
    case ScenarioFamily::kPartitions:
      return "partitions";
    case ScenarioFamily::kLossyLinks:
      return "lossy-links";
    case ScenarioFamily::kRtuFaults:
      return "rtu-faults";
    case ScenarioFamily::kCrashRestart:
      return "crash-restart";
    case ScenarioFamily::kCompromiseRecover:
      return "compromise-recover";
    case ScenarioFamily::kRequestFlood:
      return "request-flood";
    case ScenarioFamily::kMixed:
      return "mixed";
    case ScenarioFamily::kGrayFailure:
      return "gray-failure";
  }
  return "?";
}

bool parse_family(const std::string& name, ScenarioFamily& out) {
  for (ScenarioFamily family : kAllFamilies) {
    if (name == family_name(family)) {
      out = family;
      return true;
    }
  }
  return false;
}

std::string family_list() {
  std::string out;
  for (ScenarioFamily family : kAllFamilies) {
    if (!out.empty()) out += "|";
    out += family_name(family);
  }
  return out;
}

std::string FaultAction::describe() const {
  switch (kind) {
    case ActionKind::kSetByzantine:
      return at_ms(at) + " replica " + std::to_string(replica) + " -> " +
             mode_name(mode);
    case ActionKind::kClearByzantine:
      return at_ms(at) + " replica " + std::to_string(replica) + " reimaged";
    case ActionKind::kCrashReplica:
      return at_ms(at) + " replica " + std::to_string(replica) + " crashes";
    case ActionKind::kRecoverReplica:
      return at_ms(at) + " replica " + std::to_string(replica) + " recovers";
    case ActionKind::kIsolateReplica:
      return at_ms(at) + " replica " + std::to_string(replica) + " isolated";
    case ActionKind::kHealReplica:
      return at_ms(at) + " replica " + std::to_string(replica) + " healed";
    case ActionKind::kLinkFault: {
      char policy[96];
      std::snprintf(policy, sizeof(policy),
                    " drop=%.2f dup=%.2f delay=%lldms jitter=%lldms",
                    link.policy.drop_prob, link.policy.dup_prob,
                    static_cast<long long>(link.policy.extra_delay / millis(1)),
                    static_cast<long long>(link.policy.jitter / millis(1)));
      return at_ms(at) + " link " + link.from + " -> " + link.to + policy;
    }
    case ActionKind::kHealLink:
      return at_ms(at) + " heal link " + link.from + " -> " + link.to;
    case ActionKind::kRtuSwallowRequests:
      return at_ms(at) + " rtu swallows " + std::to_string(count) +
             " requests";
    case ActionKind::kRtuFailWrites:
      return at_ms(at) + " rtu fails " + std::to_string(count) + " writes";
    case ActionKind::kKillReplica:
      return at_ms(at) + " replica " + std::to_string(replica) + " killed -9";
    case ActionKind::kRestartReplica:
      return at_ms(at) + " replica " + std::to_string(replica) + " restarted";
    case ActionKind::kReplayStolenKeys:
      return at_ms(at) + " adversary replays " + std::to_string(count) +
             " forged messages with replica " + std::to_string(replica) +
             "'s stolen keys";
    case ActionKind::kUpdateFlood:
      return at_ms(at) + " frontend floods " + std::to_string(count) +
             " updates";
    case ActionKind::kGraySlow:
      return at_ms(at) + " replica " + std::to_string(replica) +
             " gray-slow +" + std::to_string(count) + "us/msg";
    case ActionKind::kGrayFsyncStall:
      return at_ms(at) + " replica " + std::to_string(replica) +
             " fsync stalls " + std::to_string(count) + "us";
    case ActionKind::kGrayTimerSkew:
      return at_ms(at) + " replica " + std::to_string(replica) +
             " timer skew " + std::to_string(count) + "%";
    case ActionKind::kGrayClear:
      return at_ms(at) + " replica " + std::to_string(replica) +
             " gray impairments cleared";
  }
  return "?";
}

std::string FaultScript::describe() const {
  std::string out;
  for (const FaultAction& action : actions) {
    if (!out.empty()) out += "; ";
    out += action.describe();
  }
  return out.empty() ? "(no faults)" : out;
}

FaultScript FaultScript::subset(const std::vector<std::size_t>& kept) const {
  FaultScript out;
  out.actions.reserve(kept.size());
  for (std::size_t index : kept) out.actions.push_back(actions.at(index));
  return out;
}

std::vector<std::size_t> minimize_script(
    const FaultScript& script,
    const std::function<bool(const FaultScript&)>& fails) {
  std::vector<std::size_t> kept(script.actions.size());
  for (std::size_t i = 0; i < kept.size(); ++i) kept[i] = i;
  for (std::size_t len = std::max<std::size_t>(kept.size() / 2, 1);;
       len /= 2) {
    std::size_t i = 0;
    while (i < kept.size()) {
      std::vector<std::size_t> candidate;
      candidate.reserve(kept.size() - std::min(len, kept.size() - i));
      for (std::size_t j = 0; j < kept.size(); ++j) {
        if (j < i || j >= i + len) candidate.push_back(kept[j]);
      }
      if (fails(script.subset(candidate))) {
        kept = std::move(candidate);
      } else {
        i += len;
      }
    }
    if (len == 1) break;
  }
  return kept;
}

FaultScript generate_script(ScenarioFamily family, const ScriptParams& params,
                            std::uint64_t seed) {
  // Mix the family into the seed so the same seed gives independent scripts
  // per family.
  std::uint64_t mixed = seed * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(family) + 1;
  Rng rng(mixed);
  FaultScript script;
  std::vector<std::uint32_t> impaired = pick_impaired_set(rng, params.group);

  switch (family) {
    case ScenarioFamily::kByzantineReplicas:
      add_byzantine_faults(rng, params, impaired, script);
      break;
    case ScenarioFamily::kPartitions:
      add_partition_faults(rng, params, impaired, script);
      break;
    case ScenarioFamily::kLossyLinks:
      add_lossy_links(rng, params, script);
      break;
    case ScenarioFamily::kRtuFaults:
      add_rtu_faults(rng, params, script);
      break;
    case ScenarioFamily::kCrashRestart:
      add_crash_restart_faults(rng, params, impaired, script);
      break;
    case ScenarioFamily::kCompromiseRecover:
      add_compromise_recover_faults(rng, params, impaired, script);
      break;
    case ScenarioFamily::kRequestFlood:
      add_request_flood(rng, params, script);
      break;
    case ScenarioFamily::kMixed: {
      if (!impaired.empty()) {
        std::vector<std::uint32_t> one{impaired.front()};
        if (rng.chance(0.5)) {
          add_byzantine_faults(rng, params, one, script);
        } else {
          add_partition_faults(rng, params, one, script);
        }
      }
      add_lossy_links(rng, params, script);
      add_rtu_faults(rng, params, script);
      break;
    }
    case ScenarioFamily::kGrayFailure:
      add_gray_failures(rng, params, impaired, script);
      break;
  }

  std::stable_sort(script.actions.begin(), script.actions.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at < b.at;
                   });
  return script;
}

}  // namespace ss::chaos
