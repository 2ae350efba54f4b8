// Continuous-fault soak campaigns over the example plants (ROADMAP item 5's
// long-running remainder; ISSUE PR 10's tentpole runner).
//
// A campaign strings minutes of phased fault injection — every scenario
// family plus gray-failure overlays — over one live deployment, with a
// liveness watchdog, between-phase frontier audits, and a bounded post-heal
// recovery check on top of the always-on safety invariants.
//
//   soak_campaign                              # 60 s soak, both plants
//   soak_campaign --plant=power-grid --duration=120 --seed=0x2a
//   SS_PROTOCOL=minbft soak_campaign --plant=both --duration=60
//   soak_campaign --plant=water-pipeline --seed=7 --minimize
//
// Exit status 0 when every invariant held, 1 on violations, 2 on usage
// errors. --dump=FILE writes the flight-recorder tail there on failure, so
// CI can upload it as an artifact.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "common/logging.h"
#include "obs/trace.h"

using namespace ss;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: soak_campaign [--plant=<power-grid|water-pipeline|both>]\n"
      "                     [--protocol=<pbft|minbft>] [--f=<1|2>]\n"
      "                     [--seed=<n|0xHEX>] [--duration=<seconds>]\n"
      "                     [--phase=<ms>] [--watchdog=<ms>]\n"
      "                     [--wedge-at=<ms>] [--dump=<file>] [--minimize]\n"
      "                     [--plan] [--log=info|debug]\n");
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

void print_report(const chaos::CampaignReport& report) {
  std::printf("result: %s\n", report.summary().c_str());
  for (const chaos::Violation& v : report.violations) {
    std::printf("  VIOLATION [%s] at t=%lldns: %s\n", v.invariant.c_str(),
                static_cast<long long>(v.at), v.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  chaos::CampaignOptions options;
  try {
    options.protocol = protocol_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "SS_PROTOCOL: %s\n", e.what());
    return 2;
  }
  bool both = true;  // default: soak both example plants back to back
  bool do_minimize = false;
  bool plan_only = false;
  std::string dump_file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* flag) -> std::string {
      return arg.substr(std::strlen(flag));
    };
    if (arg.rfind("--plant=", 0) == 0) {
      std::string name = value_of("--plant=");
      if (name == "both") {
        both = true;
      } else if (chaos::parse_plant(name, options.plant)) {
        both = false;
      } else {
        std::fprintf(stderr,
                     "unknown plant '%s' (valid: power-grid|water-pipeline|"
                     "both)\n",
                     name.c_str());
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
    } else if (arg.rfind("--duration=", 0) == 0) {
      std::uint64_t secs = 0;
      if (!parse_u64(value_of("--duration="), secs) || secs == 0) {
        return usage();
      }
      options.duration = seconds(static_cast<SimTime>(secs));
    } else if (arg.rfind("--phase=", 0) == 0) {
      std::uint64_t ms = 0;
      if (!parse_u64(value_of("--phase="), ms) || ms == 0) return usage();
      options.phase = millis(static_cast<SimTime>(ms));
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      std::uint64_t ms = 0;
      if (!parse_u64(value_of("--watchdog="), ms) || ms == 0) return usage();
      options.watchdog_window = millis(static_cast<SimTime>(ms));
    } else if (arg.rfind("--wedge-at=", 0) == 0) {
      std::uint64_t ms = 0;
      if (!parse_u64(value_of("--wedge-at="), ms)) return usage();
      options.wedge_at = millis(static_cast<SimTime>(ms));
    } else if (arg.rfind("--dump=", 0) == 0) {
      dump_file = value_of("--dump=");
    } else if (arg == "--minimize") {
      do_minimize = true;
    } else if (arg == "--plan") {
      plan_only = true;
    } else if (arg == "--log=info") {
      Logger::threshold() = LogLevel::kInfo;
    } else if (arg == "--log=debug") {
      Logger::threshold() = LogLevel::kDebug;
    } else {
      return usage();
    }
  }

  std::vector<chaos::Plant> plants;
  if (both) {
    plants = {chaos::Plant::kPowerGrid, chaos::Plant::kWaterPipeline};
  } else {
    plants = {options.plant};
  }

  bool any_violation = false;
  for (chaos::Plant plant : plants) {
    chaos::CampaignOptions run_options = options;
    run_options.plant = plant;
    chaos::CampaignPlan plan = chaos::plan_campaign(run_options);
    std::printf("== %s campaign: %s f=%u seed=0x%llx, %zu phases ==\n%s",
                chaos::plant_name(plant), protocol_name(run_options.protocol),
                run_options.f,
                static_cast<unsigned long long>(run_options.seed),
                plan.phases.size(), plan.describe().c_str());
    if (plan_only) continue;

    obs::FlightRecorder::instance().clear();
    chaos::CampaignReport report = chaos::run_campaign(run_options);
    print_report(report);
    if (!report.ok()) {
      any_violation = true;
      std::printf("repro: %s\n",
                  chaos::campaign_repro_command(run_options).c_str());
      if (!dump_file.empty()) {
        if (std::FILE* out = std::fopen(dump_file.c_str(), "a")) {
          std::fprintf(out, "=== %s campaign seed=0x%llx ===\n",
                       chaos::plant_name(plant),
                       static_cast<unsigned long long>(run_options.seed));
          obs::FlightRecorder::instance().dump(out);
          std::fclose(out);
          std::printf("flight recorder appended to %s\n", dump_file.c_str());
        }
      }
      if (do_minimize) {
        chaos::CampaignMinimizeResult min =
            chaos::minimize_campaign(run_options);
        std::printf("minimized to %zu of %zu actions:\n%s",
                    min.minimal.actions.size(),
                    plan.flatten().actions.size(),
                    min.minimal.describe().c_str());
        std::printf("minimal run: %s\n", min.report.summary().c_str());
      }
    }
  }
  return any_violation ? 1 : 0;
}
