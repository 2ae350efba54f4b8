// Reproduces Figure 8(a): Item-update throughput, NeoSCADA vs SMaRt-SCADA.
//
// Workload (paper §V-A): the Frontend generates 1000 ItemUpdate messages per
// second (the Kirsch et al. country-scale workload, validated by a utility
// as above crisis-level load); the measure is updates delivered to the HMI.
// Paper result: ~1000 ops/s (NeoSCADA) vs ~940 ops/s (SMaRt-SCADA), a 6%
// drop caused by the extra communication steps (3 vs 9) and the
// single-threaded replicated Master.
#include <cstdio>

#include "bench/bench_util.h"

namespace ss::bench {
namespace {

constexpr double kRate = 1000.0;
constexpr SimTime kWarmup = seconds(2);
constexpr SimTime kMeasure = seconds(20);

/// One fixed-rate run; latency is taken from each update's scheduled send
/// to its arrival at the HMI.
template <typename System>
load::RunRecord measure(System& system, ItemId item, const std::string& name) {
  Workload workload{.items = {item}};
  return run_open_loop(
      system, workload, name,
      load::ScheduleOptions{.rate_per_sec = kRate,
                            .duration = kWarmup + kMeasure},
      kWarmup, seconds(2));
}

load::RunRecord run_baseline(const sim::CostModel& costs) {
  core::BaselineDeployment system(
      core::BaselineOptions{.costs = costs, .storage_retention = 1024});
  ItemId item = system.add_point("grid/feeder");
  system.start();
  return measure(system, item, "neoscada");
}

load::RunRecord run_replicated(const sim::CostModel& costs) {
  core::ReplicatedDeployment system(replicated_options(costs));
  ItemId item = system.add_point("grid/feeder");
  system.start();
  return measure(system, item, "smart_scada");
}

}  // namespace
}  // namespace ss::bench

int main() {
  using namespace ss;
  using namespace ss::bench;

  sim::CostModel costs = sim::CostModel::paper_testbed();
  print_header("Figure 8(a)", "Update value use case, 1000 ItemUpdate/s");

  reset_observability();
  load::RunRecord neo = run_baseline(costs);
  add_stage_breakdown(neo);
  reset_observability();
  load::RunRecord smart = run_replicated(costs);
  add_stage_breakdown(smart);
  print_row("NeoSCADA", delivered(neo), "ops/s   (paper: ~1000)");
  print_row("SMaRt-SCADA", delivered(smart), "ops/s   (paper: ~940)");
  std::printf("%-34s %10.1f %%       (paper: ~6%%)\n", "overhead",
              overhead_pct(delivered(neo), delivered(smart)));
  std::printf("%-34s p50 %.0f us  p99 %.0f us\n", "NeoSCADA latency",
              neo.latency.p50_us, neo.latency.p99_us);
  std::printf("%-34s p50 %.0f us  p99 %.0f us\n", "SMaRt-SCADA latency",
              smart.latency.p50_us, smart.latency.p99_us);
  print_note("SMaRt-SCADA per-stage breakdown (trace spans):");
  print_stage_breakdown();
  reset_observability();

  // Sensitivity: the shape must survive +/-50% CPU-cost perturbation.
  print_note("sensitivity (CPU costs scaled):");
  for (double scale : {0.5, 1.5}) {
    sim::CostModel scaled = costs.scaled_cpu(scale);
    double neo_s = delivered(run_baseline(scaled));
    double smart_s = delivered(run_replicated(scaled));
    std::printf("  x%.1f: NeoSCADA %7.1f  SMaRt-SCADA %7.1f  overhead %5.1f%%\n",
                scale, neo_s, smart_s, overhead_pct(neo_s, smart_s));
  }

  load::LoadReport report("fig8a_update");
  report.add(std::move(neo));
  report.add(std::move(smart));
  report.write();
  return 0;
}
