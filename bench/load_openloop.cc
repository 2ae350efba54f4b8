// Open-loop load generator for the SMaRt-SCADA deployment (src/load driver).
//
// Spawns thousands of virtual HMI/frontend clients as interleaved seeded
// arrival streams (load::generate_schedule) and fires them through ONE HMI
// core + ProxyHMI and ONE Frontend core + ProxyFrontend against a replica
// group — so "5000 clients" costs two UDP ports, not ten thousand, while
// the arrival process is indistinguishable from 5000 independent senders.
// Every latency sample is measured from the operation's *scheduled* send
// time (coordinated-omission-safe; see load/schedule.h).
//
// The group is the `deploy` binary's replica role (3f+1 processes, or 2f+1
// under SS_PROTOCOL=minbft), driven over real UDP from an in-process
// SocketTransport through the shared bench/socket_harness.h — the measured
// path is the full HMI -> agreement -> frontend -> agreement -> voted-reply
// loop. Each run is bench/bench_util.h's run_open_loop, the driver loop the
// simulator benches (fig8a, fig8b, the ablations) run too.
//
// Workloads: --op write (HMI operator writes, the fig8c use case),
// --op update (Frontend field updates pushed to the HMI, the fig8a use
// case), --op mixed (alternating). Shapes: fixed | poisson | burst.
//
// Emits BENCH_<name>.json (schema in load/report.h) with per-run records:
// goodput, timeout rate, full latency distribution, pump slip, the
// delivered update and event rates, and the transport RX-batching counters
// (recvmmsg batch sizes) as extras. Exit status is 2 on a usage error and
// 1 if the group fails or any run completes zero operations.
//
// Examples:
//   load_openloop --op write --rate 500 --duration 5
//   load_openloop --op update --shape burst --rate 1000
//       --clients 2000 --sweep 250,500,1000
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace ss;
using namespace ss::bench;

namespace {

struct Options {
  std::string op = "write";  // write | update | mixed
  load::ScheduleOptions schedule;
  SimTime op_timeout = seconds(2);
  std::uint32_t f = 1;
  std::uint16_t base_port = 0;
  std::string out_dir = ".";
  std::string bench = "load";     // output file: BENCH_<bench>.json
  std::string name = "openloop";  // record name prefix
  std::string deploy;             // path to the deploy binary
  std::vector<double> sweep;      // extra rates; empty = single run at --rate
  std::vector<double> sweep_burst;  // burst multipliers; overrides --sweep
  /// Set (0-100): this percentage of updates trips the replicas' alarm
  /// Monitor (SS_ALARM_THRESHOLD) — the fig8b AE-subsystem storm.
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

/// An integer in [lo, hi]; anything else is a usage error.
long parse_range(const char* v, long lo, long hi) {
  long n = parse_long(v);
  if (n < lo || n > hi) std::exit(usage());
  return n;
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
      "usage: load_openloop [--op write|update|mixed]\n"
      "         [--shape fixed|poisson|burst] [--rate OPS] [--duration S]\n"
      "         [--clients N] [--seed X] [--timeout MS] [--f 1-64]\n"
      "         [--burst-mult M] [--burst-period-ms MS] [--burst-len-ms MS]\n"
      "         [--sweep R1,R2,...] [--sweep-burst M1,M2,...]\n"
      "         [--alarm-pct 0-100] [--base-port P] [--deploy PATH]\n"
      "         [--out DIR] [--bench NAME] [--name NAME]\n"
      "env:   SS_PROTOCOL=pbft|minbft picks the replica group;\n"
      "       SS_RX_BATCH is honored by this process and inherited by the\n"
      "       spawned replicas\n");
  return 2;
}

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

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--op") {
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
      opt.f = static_cast<std::uint32_t>(parse_range(v, 1, 64));
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
      opt.alarm_pct = static_cast<int>(parse_range(v, 0, 100));
    } else {
      return usage();
    }
  }
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
    if (opt.alarm_pct >= 0) {
      // The spawned replicas attach a Monitor to the temperature point so
      // the 'update' workload exercises the AE subsystem (fig8b).
      ::setenv("SS_ALARM_THRESHOLD", "100", /*overwrite=*/0);
    }
    SocketHarness harness(opt.f, opt.base_port, opt.deploy);
    if (!harness.warm_up()) {
      std::fprintf(stderr, "load_openloop: replica group never became live\n");
      return 1;
    }
    double run_index = 0;
    for (const Planned& planned : runs) {
      Workload workload{.op = opt.op,
                        .items = {core::plant::kTemperature},
                        .write_item = core::plant::kSetpoint,
                        .alarm_pct = opt.alarm_pct,
                        .update_base = ++run_index * 1e9};
      net::SocketStats before = harness.net().stats();
      load::RunRecord record =
          run_open_loop(harness, workload, planned.name, planned.schedule, 0,
                        opt.op_timeout);
      attach_rx_extras(record, before, harness.net().stats());
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
