// Ablation: request batching in the agreement layer.
//
// The paper's 6% update overhead depends on the consensus cost being
// amortized across batched requests. This bench sweeps max_batch and shows
// both delivered update throughput (open loop) and synchronous write rate
// (closed loop, batching cannot help there — one outstanding request).
#include <cstdio>

#include "bench/bench_util.h"

namespace ss::bench {
namespace {

constexpr SimTime kWarmup = seconds(1);
constexpr SimTime kMeasure = seconds(10);

core::ReplicatedOptions make_options(std::uint32_t max_batch) {
  core::ReplicatedOptions options = replicated_options();
  options.max_batch = max_batch;
  return options;
}

double update_throughput(std::uint32_t max_batch) {
  core::ReplicatedDeployment system(make_options(max_batch));
  Workload workload{.items = {system.add_point("feeder")}};
  system.start();
  return delivered(run_open_loop(
      system, workload, "updates",
      load::ScheduleOptions{.rate_per_sec = 1000.0,
                            .duration = kWarmup + kMeasure},
      kWarmup, seconds(2)));
}

double write_throughput(std::uint32_t max_batch) {
  core::ReplicatedDeployment system(make_options(max_batch));
  ItemId item = system.add_point("valve", scada::Variant{0.0});
  system.start();
  return closed_loop_writes(system, item, "writes", kWarmup, kMeasure)
      .goodput_per_sec;
}

}  // namespace
}  // namespace ss::bench

int main() {
  using namespace ss;
  using namespace ss::bench;

  print_header("Ablation: agreement batching", "max_batch sweep");
  std::printf("%-12s %18s %18s\n", "max_batch", "updates/s @1000/s",
              "sync writes/s");
  for (std::uint32_t batch : {1u, 4u, 16u, 64u}) {
    std::printf("%-12u %18.1f %18.1f\n", batch, update_throughput(batch),
                write_throughput(batch));
  }
  std::printf(
      "\nreading: batching amortizes the per-decision agreement cost on the\n"
      "open-loop update pipeline; the closed-loop write path (one request\n"
      "outstanding) gains nothing — its cost is communication steps.\n");
  return 0;
}
