// Replays a chaos run from its seed — the tool the swarm's one-line repro
// commands invoke. Prints the generated (or kept-subset) fault script, runs
// it, and reports every invariant violation.
//
//   chaos_replay --family=byzantine --f=1 --seed=0x2a
//   chaos_replay --family=rtu-faults --seed=7 --sabotage=no-timeouts --keep=2
//
// Exit status is 0 when all invariants held, 1 on violations, 2 on usage
// errors — so the tool slots into shell loops and CI scripts directly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "chaos/swarm.h"
#include "common/logging.h"

using namespace ss;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: chaos_replay --family=<%s>\n"
      "                    [--protocol=<pbft|minbft>] [--f=<1|2>]\n"
      "                    [--seed=<n|0xHEX>]\n"
      "                    [--sabotage=no-timeouts] [--keep=i,j,...]\n",
      ss::chaos::family_list().c_str());
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 0);  // base 0: accepts 0x...
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  chaos::ChaosOptions options;
  bool have_keep = false;
  bool do_minimize = false;
  std::vector<std::size_t> keep;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* flag) -> std::string {
      return arg.substr(std::strlen(flag));
    };
    if (arg.rfind("--family=", 0) == 0) {
      if (!chaos::parse_family(value_of("--family="), options.family)) {
        std::fprintf(stderr, "unknown family '%s' (valid: %s)\n",
                     value_of("--family=").c_str(),
                     chaos::family_list().c_str());
        return usage();
      }
    } else if (arg.rfind("--protocol=", 0) == 0) {
      try {
        options.protocol = parse_protocol(value_of("--protocol="));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
      }
    } else if (arg.rfind("--f=", 0) == 0) {
      std::uint64_t f = 0;
      if (!parse_u64(value_of("--f="), f) || f == 0) return usage();
      options.f = static_cast<std::uint32_t>(f);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_u64(value_of("--seed="), options.seed)) return usage();
    } else if (arg.rfind("--sabotage=", 0) == 0) {
      if (value_of("--sabotage=") != "no-timeouts") return usage();
      options.sabotage = chaos::Sabotage::kDisableLogicalTimeouts;
    } else if (arg == "--minimize") {
      do_minimize = true;
    } else if (arg == "--log=info") {
      Logger::threshold() = LogLevel::kInfo;
    } else if (arg == "--log=debug") {
      Logger::threshold() = LogLevel::kDebug;
    } else if (arg.rfind("--keep=", 0) == 0) {
      have_keep = true;
      std::string list = value_of("--keep=");
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        std::uint64_t index = 0;
        if (!parse_u64(list.substr(pos, comma - pos), index)) return usage();
        keep.push_back(static_cast<std::size_t>(index));
        pos = comma + 1;
      }
    } else {
      return usage();
    }
  }

  chaos::ScriptParams params;
  params.group = GroupConfig::for_protocol(options.protocol, options.f);
  params.horizon = chaos::kChaosHorizon;
  chaos::FaultScript script =
      chaos::generate_script(options.family, params, options.seed);
  if (have_keep) {
    chaos::FaultScript subset;
    for (std::size_t index : keep) {
      if (index >= script.actions.size()) {
        std::fprintf(stderr, "--keep index %zu out of range (script has %zu "
                     "actions)\n", index, script.actions.size());
        return 2;
      }
      subset.actions.push_back(script.actions[index]);
    }
    script = std::move(subset);
  }

  std::printf("replaying %s\n", chaos::repro_command(options,
              have_keep ? &keep : nullptr).c_str());
  std::printf("script (%zu actions):\n%s\n", script.actions.size(),
              script.describe().c_str());

  chaos::RunReport report = chaos::run_script(options, script);
  std::printf("result: %s\n", report.summary().c_str());
  for (const chaos::Violation& v : report.violations) {
    std::printf("  VIOLATION [%s] at t=%lldns: %s\n", v.invariant.c_str(),
                static_cast<long long>(v.at), v.detail.c_str());
  }
  if (do_minimize && !report.ok()) {
    chaos::MinimizeResult min = chaos::minimize(options);
    std::printf("minimized to %zu actions:\n%s\n", min.minimal.actions.size(),
                min.minimal.describe().c_str());
    std::printf("repro: %s\n", min.repro.c_str());
  }
  return report.ok() ? 0 : 1;
}
