// Ablation: parallel execution support (paper §VII-b).
//
// "We do not dispute alternatives to our implementation ... for example, by
// using a BFT library that supports multi-threading [CBASE, Eve] or by
// adding parallel execution support to BFT-SMaRt (as recently done by
// Alchieri et al.)." This bench quantifies that future-work claim: the
// SMaRt-SCADA update pipeline with 1 executor lane (the paper's
// single-threaded prototype) vs conflict-partitioned parallel execution
// (k lanes, operations on different items run concurrently), at increasing
// offered load, with the updates spread over 1 or 16 items.
// The lanes are simulated: a real replica process is one thread (DESIGN.md
// §13).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

namespace ss::bench {
namespace {

constexpr SimTime kWarmup = seconds(2);
constexpr SimTime kMeasure = seconds(10);

double run(double rate, std::uint32_t executor_lanes, int items) {
  core::ReplicatedOptions options = replicated_options();
  options.executor_lanes = executor_lanes;
  core::ReplicatedDeployment system(options);

  Workload workload;
  for (int i = 0; i < items; ++i) {
    workload.items.push_back(system.add_point("feeder/" + std::to_string(i)));
  }
  system.start();
  return delivered(run_open_loop(
      system, workload, "updates",
      load::ScheduleOptions{.rate_per_sec = rate,
                            .duration = kWarmup + kMeasure},
      kWarmup, seconds(2)));
}

}  // namespace
}  // namespace ss::bench

int main() {
  using namespace ss;
  using namespace ss::bench;

  print_header("Ablation: parallel execution (paper SVII-b)",
               "delivered ItemUpdate/s vs offered load");
  std::printf("%-38s %8s %8s %8s\n", "configuration", "1000/s", "2000/s",
              "4000/s");
  struct Config {
    const char* label;
    std::uint32_t lanes;
    int items;
  };
  for (const Config& config :
       {Config{"single-threaded (paper), 1 item", 1, 1},
        Config{"single-threaded (paper), 16 items", 1, 16},
        Config{"parallel executor k=4, 1 item", 4, 1},
        Config{"parallel executor k=4, 16 items", 4, 16},
        Config{"parallel executor k=8, 16 items", 8, 16}}) {
    std::printf("%-38s", config.label);
    for (double rate : {1000.0, 2000.0, 4000.0}) {
      std::printf(" %8.0f", run(rate, config.lanes, config.items));
    }
    std::printf("\n");
  }
  std::printf(
      "\nreading: offloading execution from the protocol thread already\n"
      "helps (even one conflict group), and with independent items\n"
      "CBASE-style parallel execution removes the ceiling the paper\n"
      "attributes to the determinism refactor. At 4000/s the protocol\n"
      "thread itself saturates on request receipt - a deeper bottleneck\n"
      "no execution-side parallelism can fix. These lanes are simulated:\n"
      "a real replica process is one thread (DESIGN.md S13).\n");
  return 0;
}
