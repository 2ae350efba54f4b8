// Reproduces Figure 8(b): Update value use case with the AE subsystem —
// driven open-loop through the src/load burst schedule.
//
// Workload (paper §V-A): 1000 ItemUpdate/s with a Monitor handler attached;
// in one scenario half the updates trip the alarm threshold (50%-alarms),
// in the other all of them do (100%-alarms). Every alarm is persisted to
// storage and pushed as an EventUpdate to the HMI. Paper result: NeoSCADA
// keeps processing all messages in both scenarios; SMaRt-SCADA loses ~10%
// (50%) and ~25% (100%). The paper's rows, like Figure 8(a)'s, report the
// updates delivered to the HMI per second.
//
// Arrivals come from load::generate_schedule (kBurst) and every latency
// sample is measured from the operation's *scheduled* send time, so
// queueing under the alarm storm shows up as tail latency instead of
// disappearing into the generator's politeness (coordinated omission — see
// load/schedule.h). On top of the paper's sustained-rate rows, a storm
// sweep multiplies the arrival rate 10x/100x during periodic burst windows,
// the event-rate regime the paper's alarm-avalanche discussion worries
// about; those rows report goodput, p99 and the timeout rate.
#include <cstdio>

#include "bench/bench_util.h"
#include "scada/handlers.h"

namespace ss::bench {
namespace {

constexpr double kRate = 1000.0;
constexpr SimTime kMeasure = seconds(10);
// The Monitor triggers above 100; the Workload's value encoding keeps alarm
// updates far above it and normal updates far below (negative).
constexpr double kThreshold = 100.0;

/// Runs one open-loop alarm-storm scenario over either deployment flavour.
template <typename System>
load::RunRecord storm(System& system, ItemId item, const std::string& name,
                      int alarm_pct, double burst_mult) {
  Workload workload{.items = {item}, .alarm_pct = alarm_pct};
  return run_open_loop(
      system, workload, name,
      load::ScheduleOptions{.shape = load::ArrivalShape::kBurst,
                            .rate_per_sec = kRate,
                            .duration = kMeasure,
                            .clients = 64,
                            .burst_multiplier = burst_mult},
      0, seconds(2));
}

load::RunRecord run_baseline(const sim::CostModel& costs,
                             const std::string& name, int alarm_pct,
                             double burst_mult) {
  core::BaselineDeployment system(
      core::BaselineOptions{.costs = costs, .storage_retention = 1024});
  ItemId item = system.add_point("grid/feeder");
  system.master().handlers(item).emplace<scada::MonitorHandler>(
      scada::MonitorHandler::Condition::kAbove, kThreshold);
  system.start();
  return storm(system, item, name, alarm_pct, burst_mult);
}

load::RunRecord run_replicated(const sim::CostModel& costs,
                               const std::string& name, int alarm_pct,
                               double burst_mult) {
  core::ReplicatedDeployment system(replicated_options(costs));
  ItemId item = system.add_point("grid/feeder");
  system.configure_masters([item](scada::ScadaMaster& master) {
    master.handlers(item).emplace<scada::MonitorHandler>(
        scada::MonitorHandler::Condition::kAbove, kThreshold);
  });
  system.start();
  return storm(system, item, name, alarm_pct, burst_mult);
}

double events(const load::RunRecord& record) {
  return extra(record, "events_per_sec");
}

}  // namespace
}  // namespace ss::bench

int main() {
  using namespace ss;
  using namespace ss::bench;

  sim::CostModel costs = sim::CostModel::paper_testbed();
  print_header("Figure 8(b)",
               "Update value use case with the AE subsystem (alarms), "
               "open-loop burst schedule");

  load::LoadReport report("fig8b_alarms");

  // The paper's sustained-rate comparison (burst multiplier 1 = a plain
  // Poisson stream at 1000/s).
  load::RunRecord neo50 = run_baseline(costs, "neo@50pct", 50, 1.0);
  load::RunRecord neo100 = run_baseline(costs, "neo@100pct", 100, 1.0);
  load::RunRecord smart50 = run_replicated(costs, "smart@50pct", 50, 1.0);
  load::RunRecord smart100 = run_replicated(costs, "smart@100pct", 100, 1.0);

  print_row("NeoSCADA (50% alarms)", delivered(neo50),
            "ops/s   (paper: ~1000)");
  print_row("NeoSCADA (100% alarms)", delivered(neo100),
            "ops/s   (paper: ~1000)");
  print_row("SMaRt-SCADA (50% alarms)", delivered(smart50),
            "ops/s   (paper: ~900, -10%)");
  print_row("SMaRt-SCADA (100% alarms)", delivered(smart100),
            "ops/s   (paper: ~750, -25%)");
  std::printf("%-34s %10.1f %%       (paper: ~10%%)\n",
              "overhead (50% alarms)",
              overhead_pct(delivered(neo50), delivered(smart50)));
  std::printf("%-34s %10.1f %%       (paper: ~25%%)\n",
              "overhead (100% alarms)",
              overhead_pct(delivered(neo100), delivered(smart100)));
  print_note("alarm events delivered to the HMI (per second):");
  std::printf("  NeoSCADA 50%%: %.1f  100%%: %.1f   SMaRt-SCADA 50%%: %.1f  "
              "100%%: %.1f\n",
              events(neo50), events(neo100), events(smart50),
              events(smart100));

  report.add(std::move(neo50));
  report.add(std::move(neo100));
  report.add(std::move(smart50));
  report.add(std::move(smart100));

  // The alarm-storm sweep: 100%-alarm traffic whose rate multiplies 10x /
  // 100x during periodic burst windows. Open-loop latency from scheduled
  // send time, so the storm's queueing is visible as p99 and timeouts.
  print_note("alarm storm (100% alarms, burst windows at 10x / 100x):");
  for (double mult : {10.0, 100.0}) {
    char name[48];
    std::snprintf(name, sizeof(name), "smart@storm%dx",
                  static_cast<int>(mult));
    load::RunRecord record = run_replicated(costs, name, 100, mult);
    std::printf("  %-20s goodput %8.1f ops/s  p99 %9.1f us  timeout %5.2f%%\n",
                name, record.goodput_per_sec, record.latency.p99_us,
                100.0 * record.timeout_rate());
    report.add(std::move(record));
  }

  report.write();
  return 0;
}
