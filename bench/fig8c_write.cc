// Reproduces Figure 8(c): Write value use case, synchronous writes.
//
// Workload (paper §V-B): the HMI performs synchronous writes to a
// Frontend item — one outstanding operation at a time, each waiting for its
// WriteResult (closed_loop_writes). Paper result: ~450 writes/s (NeoSCADA)
// vs ~100 writes/s (SMaRt-SCADA), a 78% drop explained by the 10 additional
// communication steps (6 vs 16) and the single-threaded Master. With
// --drops the bench also exercises the logical-timeout protocol (paper
// §IV-D) under a Frontend whose replies are silently dropped.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"

namespace ss::bench {
namespace {

constexpr SimTime kWarmup = seconds(1);
constexpr SimTime kMeasure = seconds(20);

load::RunRecord run_baseline(const sim::CostModel& costs) {
  core::BaselineDeployment system(
      core::BaselineOptions{.costs = costs, .storage_retention = 1024});
  ItemId item = system.add_point("breaker/1", scada::Variant{0.0});
  system.start();
  return closed_loop_writes(system, item, "neoscada", kWarmup, kMeasure);
}

load::RunRecord run_replicated(const sim::CostModel& costs) {
  core::ReplicatedDeployment system(replicated_options(costs));
  ItemId item = system.add_point("breaker/1", scada::Variant{0.0});
  system.start();
  return closed_loop_writes(system, item, "smart_scada", kWarmup, kMeasure);
}

/// Liveness under dropped WriteResults: every write times out, yet the HMI
/// keeps getting (timeout) results and the Masters never block.
void run_drops(const sim::CostModel& costs) {
  core::ReplicatedOptions options;
  options.costs = costs;
  options.write_timeout = millis(400);
  core::ReplicatedDeployment system(options);
  ItemId item = system.add_point("breaker/1", scada::Variant{0.0});
  system.start();
  system.net().set_policy(core::kFrontendEndpoint,
                          core::kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());

  load::RunRecord record =
      closed_loop_writes(system, item, "drops", 0, seconds(20));
  const scada::HmiCounters& hmi = system.hmi().counters();
  print_header("Figure 8(c) --drops",
               "logical-timeout liveness (WriteResult dropped)");
  std::printf("  writes completed: %llu, all via logical timeout: %s\n",
              static_cast<unsigned long long>(record.stats.ok +
                                              record.stats.failed),
              record.stats.failed > 0 &&
                      hmi.writes_timeout == hmi.writes_issued
                  ? "yes"
                  : "NO");
  std::printf("  pending writes left in master 0: %zu (must be 0)\n",
              system.master(0).pending_write_count());
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  using namespace ss;
  using namespace ss::bench;

  sim::CostModel costs = sim::CostModel::paper_testbed();

  if (argc > 1 && std::strcmp(argv[1], "--drops") == 0) {
    run_drops(costs);
    return 0;
  }

  print_header("Figure 8(c)", "Write value use case, synchronous writes");
  reset_observability();
  load::RunRecord neo = run_baseline(costs);
  add_stage_breakdown(neo);
  reset_observability();
  load::RunRecord smart = run_replicated(costs);
  add_stage_breakdown(smart);
  print_row("NeoSCADA", neo.goodput_per_sec, "writes/s  (paper: ~450)");
  print_row("SMaRt-SCADA", smart.goodput_per_sec, "writes/s  (paper: ~100)");
  std::printf("%-34s %10.1f %%       (paper: ~78%%)\n", "overhead",
              overhead_pct(neo.goodput_per_sec, smart.goodput_per_sec));
  std::printf("%-34s p50 %.0f us  p99 %.0f us\n", "NeoSCADA write latency",
              neo.latency.p50_us, neo.latency.p99_us);
  std::printf("%-34s p50 %.0f us  p99 %.0f us\n", "SMaRt-SCADA write latency",
              smart.latency.p50_us, smart.latency.p99_us);
  print_note("SMaRt-SCADA per-stage breakdown (trace spans):");
  print_stage_breakdown();
  print_note(
      "note: closed-loop (synchronous) workload — latencies are service "
      "round-trips,");
  print_note(
      "      not schedule-anchored; see load_openloop --op write for the "
      "open-loop view");
  reset_observability();

  print_note("sensitivity (CPU costs scaled):");
  for (double scale : {0.5, 1.5}) {
    sim::CostModel scaled = costs.scaled_cpu(scale);
    double neo_s = run_baseline(scaled).goodput_per_sec;
    double smart_s = run_replicated(scaled).goodput_per_sec;
    std::printf("  x%.1f: NeoSCADA %7.1f  SMaRt-SCADA %7.1f  overhead %5.1f%%\n",
                scale, neo_s, smart_s, overhead_pct(neo_s, smart_s));
  }

  load::LoadReport report("fig8c_write");
  report.add(std::move(neo));
  report.add(std::move(smart));
  report.write();

  run_drops(costs);
  return 0;
}
