// Open-loop load generator for the SMaRt-SCADA deployment (src/load driver).
//
// Spawns thousands of virtual HMI/frontend clients as interleaved seeded
// arrival streams (load::generate_schedule) and fires them through ONE HMI
// core + ProxyHMI and ONE Frontend core + ProxyFrontend against a 3f+1
// replica group — so "5000 clients" costs two UDP ports, not ten thousand,
// while the arrival process is indistinguishable from 5000 independent
// senders. Every latency sample is measured from the operation's
// *scheduled* send time (coordinated-omission-safe; see load/schedule.h).
//
// Two backends over the same Transport seam:
//  * --mode socket (default): forks the `deploy` binary's replica role
//    (3f+1 processes, or 2f+1 under SS_PROTOCOL=minbft) and drives them
//    over real UDP from an in-process SocketTransport through the shared
//    bench/socket_harness.h — the measured path is the full
//    HMI -> agreement -> frontend -> agreement -> voted-reply loop.
//  * --mode sim: the deterministic in-process ReplicatedDeployment in
//    virtual time (CI-stable numbers, no sockets).
//
// Workloads: --op write (HMI operator writes, the fig8c use case),
// --op update (Frontend field updates pushed to the HMI, the fig8a use
// case), --op mixed (alternating). Shapes: fixed | poisson | burst.
//
// Emits BENCH_<name>.json (schema in load/report.h) with per-run records:
// goodput, timeout rate, full latency distribution, pump slip, and the
// transport RX-batching counters (recvmmsg batch sizes) as extras.
// Exit status is nonzero if any run completes zero operations.
//
// Examples:
//   load_openloop --mode socket --op write --rate 500 --duration 5
//   load_openloop --mode socket --op update --shape burst --rate 1000
//       --clients 2000 --sweep 250,500,1000
//   load_openloop --mode sim --op mixed --rate 800 --duration 10
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/socket_harness.h"
#include "core/replicated_deployment.h"
#include "load/driver.h"
#include "load/report.h"
#include "load/schedule.h"
#include "obs/metrics.h"
#include "scada/handlers.h"

using namespace ss;
using namespace ss::bench;

namespace {

struct Options {
  std::string mode = "socket";  // socket | sim
  std::string op = "write";     // write | update | mixed
  load::ScheduleOptions schedule;
  SimTime op_timeout = seconds(2);
  std::uint32_t f = 1;
  std::uint16_t base_port = 0;
  std::string out_dir = ".";
  std::string bench = "load";     // output file: BENCH_<bench>.json
  std::string name = "openloop";  // record name prefix
  std::string deploy;             // path to the deploy binary (socket mode)
  std::vector<double> sweep;      // extra rates; empty = single run at --rate
  std::vector<double> sweep_burst;  // burst multipliers; overrides --sweep
  /// >= 0: this percentage of updates trips the replicas' alarm Monitor
  /// (SS_ALARM_THRESHOLD) — the fig8b AE-subsystem storm over sockets.
  int alarm_pct = -1;
};

int usage();

/// Runs `parse` (a strto* call) on `v` and exits through usage() unless it
/// consumed all of `v` without overflow: a malformed or partly numeric flag
/// value is a usage error, never a silent 0.
template <typename Parse>
auto parse_full(const char* v, Parse parse) {
  char* end = nullptr;
  errno = 0;
  auto n = parse(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) std::exit(usage());
  return n;
}

double parse_double(const char* v) {
  return parse_full(
      v, [](const char* s, char** e) { return std::strtod(s, e); });
}

long parse_long(const char* v) {
  return parse_full(
      v, [](const char* s, char** e) { return std::strtol(s, e, 10); });
}

/// Seeds take any base strtoull recognises (42, 0x2a, 052).
std::uint64_t parse_seed(const char* v) {
  if (*v == '-') std::exit(usage());
  return parse_full(
      v, [](const char* s, char** e) { return std::strtoull(s, e, 0); });
}

/// Comma-separated positive values ("250,500,1000"); non-positive entries
/// are skipped.
std::vector<double> parse_list(const char* v) {
  std::vector<double> out;
  std::string text(v);
  for (std::size_t pos = 0; pos <= text.size();) {
    std::size_t comma = std::min(text.find(',', pos), text.size());
    double x = parse_double(text.substr(pos, comma - pos).c_str());
    if (x > 0) out.push_back(x);
    pos = comma + 1;
  }
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: load_openloop [--mode socket|sim] [--op write|update|mixed]\n"
      "         [--shape fixed|poisson|burst] [--rate OPS] [--duration S]\n"
      "         [--clients N] [--seed X] [--timeout MS] [--f N]\n"
      "         [--burst-mult M] [--burst-period-ms MS] [--burst-len-ms MS]\n"
      "         [--sweep R1,R2,...] [--sweep-burst M1,M2,...]\n"
      "         [--alarm-pct P] [--base-port P] [--deploy PATH]\n"
      "         [--out DIR] [--bench NAME] [--name NAME]\n"
      "env:   SS_PROTOCOL=pbft|minbft picks the replica group (socket mode);\n"
      "       SS_RX_BATCH is honored by this process and inherited by the\n"
      "       spawned replicas\n");
  return 2;
}

/// The per-run issuer state shared between the schedule driver and the HMI
/// update callback: field updates are matched back to their arrival index
/// through the pushed value (value = base + index, the fig8a trick), writes
/// through the HMI's own OpId-keyed result callback.
struct Workload {
  std::string op;
  /// >= 0: that share of updates trips the replicas' alarm Monitor. The
  /// magnitude still encodes the arrival index (update_base >= 1e9 keeps it
  /// far above SS_ALARM_THRESHOLD = 100) and the *sign* picks alarm
  /// (positive) vs normal (negative, far below any threshold).
  int alarm_pct = -1;
  scada::Hmi* hmi = nullptr;
  scada::Frontend* frontend = nullptr;
  double update_base = 0;  ///< distinguishes runs in one process
  std::vector<load::OpenLoopDriver::CompletionFn> update_done;

  bool is_write(const load::Arrival& a) const {
    if (op == "write") return true;
    if (op == "update") return false;
    return (a.index & 1) != 0;  // mixed: even = update, odd = write
  }

  void issue(const load::Arrival& a, load::OpenLoopDriver::CompletionFn done) {
    if (is_write(a)) {
      hmi->write(kSetpoint,
                 scada::Variant{21.0 + static_cast<double>(a.index % 64)},
                 [done](const scada::WriteResult& r) {
                   done(r.status == scada::WriteStatus::kOk);
                 });
    } else {
      update_done[a.index] = std::move(done);
      double value = update_base + static_cast<double>(a.index);
      if (alarm_pct >= 0) {
        bool alarm =
            (a.index + 1) * static_cast<std::uint64_t>(alarm_pct) / 100 !=
            a.index * static_cast<std::uint64_t>(alarm_pct) / 100;
        if (!alarm) value = -value;
      }
      frontend->field_update(kTemperature, scada::Variant{value});
    }
  }

  /// Install on the HMI once per run, before start().
  void on_update(const scada::ItemUpdate& update) {
    if (update.item != kTemperature) return;
    double raw = update.value.as_double();
    double rel = (alarm_pct >= 0 ? std::fabs(raw) : raw) - update_base;
    if (rel < 0 || rel >= static_cast<double>(update_done.size())) return;
    auto index = static_cast<std::size_t>(rel);
    if (update_done[index]) update_done[index](true);
  }
};

/// Transport RX counters attached to each record so the report shows the
/// recvmmsg fast path working (batch sizes > 1 under load). Counter fields
/// are deltas over the run; the batch-size distribution is read from the
/// process-global net.rx_batch_size histogram.
void attach_rx_extras(load::RunRecord& record, const net::SocketStats& before,
                      const net::SocketStats& after) {
  double batches =
      static_cast<double>(after.rx_batches - before.rx_batches);
  double datagrams =
      static_cast<double>(after.datagrams_received - before.datagrams_received);
  record.extras.emplace_back("net_rx_batches", batches);
  record.extras.emplace_back("net_rx_datagrams", datagrams);
  record.extras.emplace_back("net_rx_ring_full",
                             static_cast<double>(after.rx_ring_full -
                                                 before.rx_ring_full));
  record.extras.emplace_back("net_rx_batch_mean",
                             batches > 0 ? datagrams / batches : 0.0);
  const obs::Histogram& h =
      obs::Registry::instance().histogram("net.rx_batch_size");
  record.extras.emplace_back("net_rx_batch_max",
                             static_cast<double>(h.max()));
  record.extras.emplace_back("net_rx_batch_p99",
                             static_cast<double>(h.percentile(99)));
}

// ---------------------------------------------------------------------------
// Socket mode: the `deploy replica` group of bench/socket_harness.h, driven
// over real UDP in wall-clock time.

/// One measured run; `run_index` (1-based) keeps the pushed update values
/// of successive runs in one process apart.
load::RunRecord run_socket(SocketHarness& harness, const Options& opt,
                           std::uint64_t run_index, const std::string& name,
                           const load::ScheduleOptions& schedule_opt) {
  net::SocketTransport& transport = harness.transport();
  Workload workload;
  workload.op = opt.op;
  workload.alarm_pct = opt.alarm_pct;
  workload.hmi = &harness.hmi();
  workload.frontend = &harness.frontend();
  workload.update_base = static_cast<double>(run_index) * 1e9;

  std::vector<load::Arrival> schedule = load::generate_schedule(schedule_opt);
  workload.update_done.resize(schedule.size());
  harness.hmi().set_update_callback(
      [&workload](const scada::ItemUpdate& u) { workload.on_update(u); });

  net::SocketStats before = transport.stats();
  load::DriverOptions driver_opt;
  driver_opt.op_timeout = opt.op_timeout;
  load::OpenLoopDriver driver(
      transport, std::move(schedule),
      [&workload](const load::Arrival& a,
                  load::OpenLoopDriver::CompletionFn done) {
        workload.issue(a, std::move(done));
      },
      driver_opt);
  driver.start();
  transport.run_until([&] { return driver.finished(); },
                      schedule_opt.duration + opt.op_timeout + seconds(5));

  load::RunRecord record =
      load::RunRecord::from_driver(name, opt.op, schedule_opt, driver);
  attach_rx_extras(record, before, transport.stats());
  harness.hmi().set_update_callback({});
  return record;
}

// ---------------------------------------------------------------------------
// Sim mode: the deterministic in-process deployment, virtual time.

load::RunRecord run_sim(const Options& opt, const std::string& name,
                        const load::ScheduleOptions& schedule_opt) {
  core::ReplicatedOptions sys_opt;
  sys_opt.group = GroupConfig::for_f(opt.f);
  sys_opt.storage_retention = 1024;
  sys_opt.checkpoint_interval = 4096;
  // Open-loop overload must queue, not trigger retransmit storms or view
  // changes (see fig8a_update.cc for the same reasoning).
  sys_opt.client_reply_timeout = seconds(60);
  sys_opt.request_timeout = seconds(60);
  core::ReplicatedDeployment system(sys_opt);
  ItemId temperature = system.add_point(kTemperatureName);
  ItemId setpoint = system.add_point(kSetpointName, scada::Variant{20.0});
  (void)setpoint;
  if (opt.alarm_pct >= 0) {
    system.configure_masters([temperature](scada::ScadaMaster& master) {
      master.handlers(temperature).emplace<scada::MonitorHandler>(
          scada::MonitorHandler::Condition::kAbove, 100.0);
    });
  }
  system.start();

  Workload workload;
  workload.op = opt.op;
  workload.alarm_pct = opt.alarm_pct;
  workload.hmi = &system.hmi();
  workload.frontend = &system.frontend();
  workload.update_base = 1e9;

  std::vector<load::Arrival> schedule = load::generate_schedule(schedule_opt);
  workload.update_done.resize(schedule.size());
  system.hmi().set_update_callback(
      [&workload](const scada::ItemUpdate& u) { workload.on_update(u); });

  load::DriverOptions driver_opt;
  driver_opt.op_timeout = opt.op_timeout;
  load::OpenLoopDriver driver(
      system.net(), std::move(schedule),
      [&workload](const load::Arrival& a,
                  load::OpenLoopDriver::CompletionFn done) {
        workload.issue(a, std::move(done));
      },
      driver_opt);
  driver.start();
  SimTime hard_stop =
      system.loop().now() + schedule_opt.duration + opt.op_timeout + seconds(5);
  while (!driver.finished() && system.loop().now() < hard_stop) {
    system.run_until(std::min<SimTime>(system.loop().now() + millis(100),
                                       hard_stop));
  }
  load::RunRecord record =
      load::RunRecord::from_driver(name, opt.op, schedule_opt, driver);
  system.hmi().set_update_callback({});
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--mode") {
      opt.mode = v;
    } else if (flag == "--op") {
      opt.op = v;
    } else if (flag == "--shape") {
      auto parsed = load::arrival_shape_from_name(v);
      if (!parsed.has_value()) return usage();
      opt.schedule.shape = *parsed;
    } else if (flag == "--rate") {
      opt.schedule.rate_per_sec = parse_double(v);
    } else if (flag == "--duration") {
      opt.schedule.duration =
          static_cast<SimTime>(parse_double(v) * kNanosPerSec);
    } else if (flag == "--clients") {
      opt.schedule.clients = static_cast<std::uint32_t>(parse_long(v));
    } else if (flag == "--seed") {
      opt.schedule.seed = parse_seed(v);
    } else if (flag == "--timeout") {
      opt.op_timeout = millis(parse_long(v));
    } else if (flag == "--burst-mult") {
      opt.schedule.burst_multiplier = parse_double(v);
    } else if (flag == "--burst-period-ms") {
      opt.schedule.burst_period = millis(parse_long(v));
    } else if (flag == "--burst-len-ms") {
      opt.schedule.burst_length = millis(parse_long(v));
    } else if (flag == "--f") {
      opt.f = static_cast<std::uint32_t>(parse_long(v));
    } else if (flag == "--base-port") {
      opt.base_port = static_cast<std::uint16_t>(parse_long(v));
    } else if (flag == "--out") {
      opt.out_dir = v;
    } else if (flag == "--bench") {
      opt.bench = v;
    } else if (flag == "--name") {
      opt.name = v;
    } else if (flag == "--deploy") {
      opt.deploy = v;
    } else if (flag == "--sweep") {
      opt.sweep = parse_list(v);
    } else if (flag == "--sweep-burst") {
      opt.sweep_burst = parse_list(v);
    } else if (flag == "--alarm-pct") {
      opt.alarm_pct = static_cast<int>(parse_long(v));
    } else {
      return usage();
    }
  }
  if (opt.mode != "socket" && opt.mode != "sim") return usage();
  if (opt.op != "write" && opt.op != "update" && opt.op != "mixed") {
    return usage();
  }

  // A sweep is either over rates (--sweep) or, for the alarm-storm bench,
  // over burst multipliers at a fixed base rate (--sweep-burst).
  struct Planned {
    std::string name;
    load::ScheduleOptions schedule;
  };
  std::vector<Planned> runs;
  if (!opt.sweep_burst.empty()) {
    for (double mult : opt.sweep_burst) {
      load::ScheduleOptions schedule = opt.schedule;
      schedule.shape = load::ArrivalShape::kBurst;
      schedule.burst_multiplier = mult;
      runs.push_back({opt.name + "@burst" +
                          std::to_string(static_cast<long>(mult)) + "x",
                      schedule});
    }
  } else {
    std::vector<double> rates = opt.sweep;
    if (rates.empty()) rates.push_back(opt.schedule.rate_per_sec);
    for (double rate : rates) {
      load::ScheduleOptions schedule = opt.schedule;
      schedule.rate_per_sec = rate;
      runs.push_back(
          {opt.name + "@" + std::to_string(static_cast<long>(rate)),
           schedule});
    }
  }

  load::LoadReport report(opt.bench);
  bool any_zero = false;
  try {
    std::unique_ptr<SocketHarness> harness;
    if (opt.mode == "socket") {
      if (opt.alarm_pct >= 0) {
        // The spawned replicas attach a Monitor to the temperature point so
        // the 'update' workload exercises the AE subsystem (fig8b).
        ::setenv("SS_ALARM_THRESHOLD", "100", /*overwrite=*/0);
      }
      harness =
          std::make_unique<SocketHarness>(opt.f, opt.base_port, opt.deploy);
      if (!harness->warm_up()) {
        std::fprintf(stderr,
                     "load_openloop: replica group never became live\n");
        return 1;
      }
    }
    std::uint64_t run_index = 0;
    for (const Planned& planned : runs) {
      ++run_index;
      load::RunRecord record =
          opt.mode == "socket"
              ? run_socket(*harness, opt, run_index, planned.name,
                           planned.schedule)
              : run_sim(opt, planned.name, planned.schedule);
      load::LoadReport::print(record);
      if (record.stats.ok == 0) any_zero = true;
      report.add(std::move(record));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "load_openloop: %s\n", e.what());
    return 1;
  }
  report.write(opt.out_dir);
  if (any_zero) {
    std::fprintf(stderr, "load_openloop: a run completed zero operations\n");
    return 1;
  }
  return 0;
}
