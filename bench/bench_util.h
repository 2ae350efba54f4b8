// Shared helpers for the figure-reproduction benches.
//
// One load pipeline serves every bench: an open-loop cell runs one
// load::OpenLoopDriver over the whole schedule (run_open_loop), the
// paper's synchronous writer is closed_loop_writes, and every record is a
// load::RunRecord, written by load::LoadReport. Both run on the simulated
// deployments and on the socket harness; they differ only in how time
// advances (run_until).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench/socket_harness.h"
#include "bft/executable.h"
#include "common/serialization.h"
#include "core/baseline_deployment.h"
#include "core/replicated_deployment.h"
#include "load/driver.h"
#include "load/report.h"
#include "load/schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ss::bench {

/// Clears the metrics registry and tracer so the stage histograms reflect
/// exactly one bench configuration. Call before each measured run.
inline void reset_observability() {
  obs::Registry::instance().reset();
  obs::Tracer::instance().reset();
}

/// The replicated deployment every bench measures. Under open-loop overload
/// the queue, not a retransmit storm, must absorb the excess, so the
/// proxies' reply timeout and the replicas' leader-suspect timer lie beyond
/// any run: sustained overload must not be misread as a faulty leader.
inline core::ReplicatedOptions replicated_options(
    const sim::CostModel& costs = sim::CostModel::paper_testbed()) {
  core::ReplicatedOptions options;
  options.costs = costs;
  options.storage_retention = 1024;
  options.checkpoint_interval = 4096;
  options.client_reply_timeout = seconds(60);
  options.request_timeout = seconds(60);
  return options;
}

/// Runs a simulated deployment until `done()` holds or its clock reaches
/// `limit`, checking `done` every 100 ms of virtual time.
template <typename System>
void run_until(System& system, SimTime limit,
               const std::function<bool()>& done = [] { return false; }) {
  while (!done() && system.net().now() < limit) {
    system.run_until(std::min(system.net().now() + millis(100), limit));
  }
}

/// The socket harness runs in wall-clock time.
inline void run_until(SocketHarness& harness, SimTime limit,
                      const std::function<bool()>& done = [] {
                        return false;
                      }) {
  harness.net().run_until(done, limit - harness.net().now());
}

/// The open-loop SCADA workload: Frontend field updates pushed to the HMI
/// through the Master, HMI operator writes, or both alternating. An
/// update's value encodes its arrival index, so the HMI's update stream
/// completes the matching operation; a write completes through its own
/// WriteResult. run_open_loop wires `hmi`, `frontend` and `update_done`.
struct Workload {
  std::string op = "update";  ///< write | update | mixed
  /// Update targets, round-robin by arrival index.
  std::vector<ItemId> items{};
  ItemId write_item{};
  /// >= 0: that share of updates trips an alarm Monitor set at 100. The
  /// value's magnitude still encodes the arrival index (update_base >= 1e9
  /// keeps it far above the threshold) and its sign picks alarm (positive)
  /// or normal (negative, far below any threshold).
  int alarm_pct = -1;
  /// Keeps the values of successive runs on one HMI apart.
  double update_base = 1e9;

  scada::Hmi* hmi = nullptr;
  scada::Frontend* frontend = nullptr;
  std::vector<load::OpenLoopDriver::CompletionFn> update_done{};

  bool is_write(const load::Arrival& a) const {
    if (op == "write") return true;
    if (op == "update") return false;
    return (a.index & 1) != 0;  // mixed: even = update, odd = write
  }

  void issue(const load::Arrival& a, load::OpenLoopDriver::CompletionFn done) {
    if (is_write(a)) {
      hmi->write(write_item,
                 scada::Variant{21.0 + static_cast<double>(a.index % 64)},
                 [done](const scada::WriteResult& r) {
                   done(r.status == scada::WriteStatus::kOk);
                 });
      return;
    }
    update_done[a.index] = std::move(done);
    double value = update_base + static_cast<double>(a.index);
    if (alarm_pct >= 0) {
      bool alarm =
          (a.index + 1) * static_cast<std::uint64_t>(alarm_pct) / 100 !=
          a.index * static_cast<std::uint64_t>(alarm_pct) / 100;
      if (!alarm) value = -value;
    }
    frontend->field_update(items[a.index % items.size()],
                           scada::Variant{value});
  }

  void on_update(const scada::ItemUpdate& update) {
    double raw = update.value.as_double();
    double rel = (alarm_pct >= 0 ? std::fabs(raw) : raw) - update_base;
    if (rel < 0 || rel >= static_cast<double>(update_done.size())) return;
    auto index = static_cast<std::size_t>(rel);
    if (update.item != items[index % items.size()]) return;
    if (update_done[index]) update_done[index](true);
  }
};

/// Runs `workload` open-loop on `system` over one driver and the whole
/// `schedule`, whose first `warmup` is not measured. The HMI's counters are
/// read at the start and the end of the window that follows, and their
/// rates are appended to the record as `delivered_per_sec` (updates) and
/// `events_per_sec` (alarm events). The run then goes on until every
/// arrival resolves, for at most `op_timeout` + 5 s, so ok + failed +
/// timeouts == scheduled whenever the system answers at all.
template <typename System>
load::RunRecord run_open_loop(System& system, Workload& workload,
                              const std::string& name,
                              const load::ScheduleOptions& schedule,
                              SimTime warmup, SimTime op_timeout) {
  std::vector<load::Arrival> arrivals = load::generate_schedule(schedule);
  scada::Hmi& hmi = system.hmi();
  workload.hmi = &hmi;
  workload.frontend = &system.frontend();
  workload.update_done.assign(arrivals.size(), {});
  hmi.set_update_callback(
      [&workload](const scada::ItemUpdate& u) { workload.on_update(u); });

  load::OpenLoopDriver driver(
      system.net(), std::move(arrivals),
      [&workload](const load::Arrival& a,
                  load::OpenLoopDriver::CompletionFn done) {
        workload.issue(a, std::move(done));
      },
      load::DriverOptions{.op_timeout = op_timeout});
  const SimTime epoch = system.net().now();
  driver.start();
  run_until(system, epoch + warmup);
  const scada::HmiCounters before = hmi.counters();
  run_until(system, epoch + schedule.duration);
  const scada::HmiCounters after = hmi.counters();
  run_until(system, epoch + schedule.duration + op_timeout + seconds(5),
            [&driver] { return driver.finished(); });
  hmi.set_update_callback({});

  load::RunRecord record =
      load::RunRecord::from_driver(name, workload.op, schedule, driver);
  const double window = static_cast<double>(schedule.duration - warmup) /
                        static_cast<double>(kNanosPerSec);
  auto per_sec = [window](std::uint64_t count) {
    return window > 0 ? static_cast<double>(count) / window : 0.0;
  };
  record.extras.emplace_back(
      "delivered_per_sec",
      per_sec(after.updates_received - before.updates_received));
  record.extras.emplace_back(
      "events_per_sec", per_sec(after.events_received - before.events_received));
  return record;
}

/// A record for a run without an arrival schedule (a closed-loop writer, a
/// pipelined client): `stats` counts the results that arrived in the
/// `window`, `latency` holds the ok ones' round trips (ns). Its schedule
/// says rate_per_sec 0 and clients 1: the one client issues each operation
/// when an earlier one completes, so there is no send time to lag behind.
inline load::RunRecord window_record(const std::string& name,
                                     const std::string& op,
                                     const load::DriverStats& stats,
                                     const obs::Histogram& latency,
                                     SimTime window) {
  load::RunRecord record;
  record.name = name;
  record.op = op;
  record.schedule.rate_per_sec = 0;
  record.schedule.duration = window;
  record.schedule.clients = 1;
  record.stats = stats;
  record.run_seconds =
      static_cast<double>(window) / static_cast<double>(kNanosPerSec);
  record.goodput_per_sec =
      static_cast<double>(stats.ok) / record.run_seconds;
  record.latency = load::LatencySummary::from_histogram(latency);
  return record;
}

/// The paper's synchronous writer (§V-B): one HMI write outstanding at a
/// time, the next issued when the previous WriteResult arrives. Results
/// that arrive in the `measure` window after `warmup` are counted (a
/// non-ok status is a failure) and each ok write's round trip is recorded.
/// Then the writer stops and waits for the write in flight, so no callback
/// outlives this frame.
///
/// Closed loop: each write's start depends on the previous result, so the
/// latencies are service round trips, not user-perceived waits, and the
/// rate saturates at 1/latency whatever the capacity. They must not be
/// compared with open-loop percentiles; `load_openloop --op write` is the
/// open-loop view of this workload.
template <typename System>
load::RunRecord closed_loop_writes(System& system, ItemId item,
                                   const std::string& name, SimTime warmup,
                                   SimTime measure) {
  load::DriverStats stats;
  obs::Histogram latency;
  bool measuring = false;
  bool stopped = false;
  bool in_flight = false;
  double value = 0;
  std::function<void()> issue = [&] {
    in_flight = true;
    const SimTime sent = system.net().now();
    system.hmi().write(
        item, scada::Variant{value}, [&, sent](const scada::WriteResult& r) {
          in_flight = false;
          value += 1.0;
          if (measuring) {
            ++stats.scheduled;
            ++stats.issued;
            if (r.status == scada::WriteStatus::kOk) {
              ++stats.ok;
              latency.record(system.net().now() - sent);
            } else {
              ++stats.failed;
            }
          }
          if (!stopped) issue();
        });
  };
  const SimTime start = system.net().now();
  issue();
  run_until(system, start + warmup);
  measuring = true;
  run_until(system, start + warmup + measure);
  measuring = false;
  stopped = true;
  run_until(system, system.net().now() + seconds(10),
            [&in_flight] { return !in_flight; });
  if (in_flight) {
    throw std::runtime_error(name + ": a write never resolved");
  }
  return window_record(name, "write", stats, latency, measure);
}

/// A numeric extra of `record` (0 when absent).
inline double extra(const load::RunRecord& record, std::string_view key) {
  for (const auto& [name, value] : record.extras) {
    if (name == key) return value;
  }
  return 0.0;
}

/// Updates delivered to the HMI per second of an open-loop run's window:
/// the quantity Figure 8(a) and (b) report.
inline double delivered(const load::RunRecord& record) {
  return extra(record, "delivered_per_sec");
}

/// Calls `fn(stage, p50_us, p99_us, spans)` for every populated
/// "stage/<name>" histogram: the Tracer's per-stage latency breakdown of
/// everything op ids flowed through since reset_observability().
inline void for_each_stage(
    const std::function<void(const std::string&, double, double,
                             std::uint64_t)>& fn) {
  obs::Registry::instance().for_each_histogram(
      [&](const std::string& name, const obs::Histogram& h) {
        if (name.rfind("stage/", 0) != 0 || h.count() == 0) return;
        fn(name.substr(6), static_cast<double>(h.percentile(50)) / 1000.0,
           static_cast<double>(h.percentile(99)) / 1000.0, h.count());
      });
}

/// Appends the stage breakdown to `record` as stage_<name>_p50_us,
/// _p99_us and _spans extras.
inline void add_stage_breakdown(load::RunRecord& record) {
  for_each_stage([&](const std::string& stage, double p50, double p99,
                     std::uint64_t spans) {
    record.extras.emplace_back("stage_" + stage + "_p50_us", p50);
    record.extras.emplace_back("stage_" + stage + "_p99_us", p99);
    record.extras.emplace_back("stage_" + stage + "_spans",
                               static_cast<double>(spans));
  });
}

inline void print_stage_breakdown() {
  for_each_stage([](const std::string& stage, double p50, double p99,
                    std::uint64_t spans) {
    std::printf("  stage %-10s p50 %9.1f us  p99 %9.1f us  (%llu spans)\n",
                stage.c_str(), p50, p99,
                static_cast<unsigned long long>(spans));
  });
}

/// Null service for the raw-BFT bench (bft_raw): a
/// one-byte ack per request, and the executed-request count as its state.
class NullApp final : public bft::Executable, public bft::Recoverable {
 public:
  Bytes execute_ordered(const bft::ExecuteContext&, ByteView) override {
    ++executed_;
    return ack();
  }
  Bytes execute_unordered(ClientId, ByteView) override { return ack(); }
  Bytes snapshot() const override {
    Writer w(8);
    w.varint(executed_);
    return std::move(w).take();
  }
  void restore(ByteView data) override {
    Reader r(data);
    executed_ = r.varint();
  }

 private:
  static Bytes ack() {
    Writer w(1);
    w.u8(1);
    return std::move(w).take();
  }

  std::uint64_t executed_ = 0;
};

inline void print_header(const char* figure, const char* title) {
  std::printf("\n=== %s: %s ===\n", figure, title);
}

inline void print_row(const std::string& system, double value,
                      const char* unit) {
  std::printf("%-34s %10.1f %s\n", system.c_str(), value, unit);
}

inline void print_note(const std::string& note) {
  std::printf("  %s\n", note.c_str());
}

inline double overhead_pct(double baseline, double value) {
  return baseline <= 0 ? 0.0 : 100.0 * (baseline - value) / baseline;
}

}  // namespace ss::bench
