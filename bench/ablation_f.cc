// Ablation: resilience level f, across agreement protocols.
//
// The paper fixes f = 1 under PBFT (4 SCADA Masters). This bench measures
// what resilience costs under both agreement engines: PBFT (n = 3f+1,
// 2f+1 write quorum) vs MinBFT (n = 2f+1, f+1 commit quorum backed by the
// USIG trusted counter). For each protocol x f in {1, 2} it reports the
// Fig 8(a) update throughput and the synchronous write rate, in two
// backends:
//
//  * sim (default): the deterministic in-process ReplicatedDeployment in
//    virtual time — CI-stable numbers.
//  * socket (--socket, or default when SS_ABLATION_SOCKET=1): forks the
//    `deploy` binary's replica role n times with SS_PROTOCOL exported
//    (bench/socket_harness.h) and drives synchronous HMI writes over real
//    UDP — the same processes the paper's testbed ran, so protocol
//    message-count differences (4 vs 3 replicas at f=1) show up as
//    wall-clock write rates.
//
// Emits BENCH_ablation_f.json with one record per (backend, protocol, f,
// metric).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "bench/bench_util.h"
#include "bench/socket_harness.h"

namespace ss::bench {
namespace {

constexpr SimTime kWarmup = seconds(1);
constexpr SimTime kMeasure = seconds(10);
/// Socket mode runs in wall-clock time; keep it short enough for CI.
constexpr SimTime kSocketWarmup = seconds(1);
constexpr SimTime kSocketMeasure = seconds(3);

core::ReplicatedOptions make_options(Protocol protocol, std::uint32_t f) {
  core::ReplicatedOptions options;
  options.group = GroupConfig::for_protocol(protocol, f);
  options.costs = sim::CostModel::paper_testbed();
  options.storage_retention = 1024;
  options.checkpoint_interval = 4096;
  options.client_reply_timeout = seconds(60);
  options.request_timeout = seconds(60);
  return options;
}

struct Result {
  double updates = 0;
  double writes = 0;
};

Result run_sim(Protocol protocol, std::uint32_t f) {
  Result result;
  {
    core::ReplicatedDeployment system(make_options(protocol, f));
    ItemId item = system.add_point("feeder");
    system.start();
    std::uint64_t count = 0;
    auto tick = [&](SimTime) {
      system.frontend().field_update(item, scada::Variant{double(count++)});
    };
    drive_open_loop(system.loop(), 1000.0, kWarmup, tick);
    std::uint64_t before = system.hmi().counters().updates_received;
    drive_open_loop(system.loop(), 1000.0, kMeasure, tick);
    result.updates = static_cast<double>(
                         system.hmi().counters().updates_received - before) /
                     (static_cast<double>(kMeasure) / kNanosPerSec);
  }
  {
    core::ReplicatedDeployment system(make_options(protocol, f));
    ItemId item = system.add_point("valve", scada::Variant{0.0});
    system.start();
    std::uint64_t completed = 0;
    double value = 0;
    std::function<void()> issue = [&] {
      system.hmi().write(item, scada::Variant{value},
                         [&](const scada::WriteResult&) {
                           ++completed;
                           value += 1.0;
                           issue();
                         });
    };
    issue();
    system.run_until(system.loop().now() + kWarmup);
    std::uint64_t before = completed;
    system.run_until(system.loop().now() + kMeasure);
    result.writes = static_cast<double>(completed - before) /
                    (static_cast<double>(kMeasure) / kNanosPerSec);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Socket mode: synchronous HMI writes over real UDP against a `deploy
// replica` group.

/// Synchronous closed-loop writes for `duration`; returns writes/s.
double measure_writes(SocketHarness& harness, SimTime warmup,
                      SimTime duration) {
  net::SocketTransport& transport = harness.transport();
  std::uint64_t completed = 0;
  bool stop = false;
  double value = 0;
  std::function<void()> issue = [&] {
    if (stop) return;
    harness.hmi().write(kSetpoint, scada::Variant{value},
                        [&](const scada::WriteResult&) {
                          ++completed;
                          value += 1.0;
                          issue();
                        });
  };
  issue();
  transport.run_until([] { return false; }, warmup);
  std::uint64_t before = completed;
  transport.run_until([] { return false; }, duration);
  std::uint64_t after = completed;
  stop = true;
  // Let the in-flight write drain before tearing the callbacks down.
  transport.run_until([] { return false; }, millis(200));
  return static_cast<double>(after - before) /
         (static_cast<double>(duration) / kNanosPerSec);
}

double run_socket(Protocol protocol, std::uint32_t f,
                  std::uint16_t base_port) {
  // The harness, `deploy config` and the spawned replicas all derive the
  // group from SS_PROTOCOL; export it so every process agrees on n and the
  // quorums.
  ::setenv("SS_PROTOCOL", protocol_name(protocol), 1);
  try {
    SocketHarness harness(f, base_port);
    if (!harness.warm_up()) {
      std::fprintf(stderr,
                   "ablation_f: %s f=%u replica group never became live\n",
                   protocol_name(protocol), f);
      return 0.0;
    }
    return measure_writes(harness, kSocketWarmup, kSocketMeasure);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_f: socket %s f=%u: %s\n",
                 protocol_name(protocol), f, e.what());
    return 0.0;
  }
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  using namespace ss;
  using namespace ss::bench;

  bool socket_mode = std::getenv("SS_ABLATION_SOCKET") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0) socket_mode = true;
    if (std::strcmp(argv[i], "--sim-only") == 0) socket_mode = false;
  }

  constexpr Protocol kProtocols[] = {Protocol::kPbft, Protocol::kMinBft};
  constexpr std::uint32_t kLevels[] = {1u, 2u};

  print_header("Ablation: resilience level",
               "protocol x f sweep (PBFT n=3f+1, MinBFT n=2f+1)");
  std::printf("%-8s %-4s %-4s %18s %16s\n", "proto", "f", "n",
              "updates/s @1000/s", "sync writes/s");
  JsonReport json("ablation_f");
  for (Protocol protocol : kProtocols) {
    for (std::uint32_t f : kLevels) {
      Result result = run_sim(protocol, f);
      GroupConfig group = GroupConfig::for_protocol(protocol, f);
      std::printf("%-8s %-4u %-4u %18.1f %16.1f\n", protocol_name(protocol),
                  f, group.n, result.updates, result.writes);
      std::string prefix = std::string("sim_") + protocol_name(protocol) +
                           "_f" + std::to_string(f);
      json.add(prefix + "_updates", result.updates);
      json.add(prefix + "_writes", result.writes);
    }
  }

  if (socket_mode) {
    std::printf("\nsocket backend (real UDP, %lld s per point):\n",
                static_cast<long long>(kSocketMeasure / kNanosPerSec));
    std::printf("%-8s %-4s %-4s %16s\n", "proto", "f", "n", "sync writes/s");
    std::uint16_t base_port = static_cast<std::uint16_t>(
        43000 + (::getpid() % 4000) * 2);
    for (Protocol protocol : kProtocols) {
      for (std::uint32_t f : kLevels) {
        double writes = run_socket(protocol, f, base_port);
        base_port = static_cast<std::uint16_t>(base_port + 64);
        GroupConfig group = GroupConfig::for_protocol(protocol, f);
        std::printf("%-8s %-4u %-4u %16.1f\n", protocol_name(protocol), f,
                    group.n, writes);
        json.add(std::string("socket_") + protocol_name(protocol) + "_f" +
                     std::to_string(f) + "_writes",
                 writes);
      }
    }
  } else {
    std::printf(
        "\n(socket backend skipped: pass --socket or set "
        "SS_ABLATION_SOCKET=1)\n");
  }

  json.write();
  std::printf(
      "\nreading: under PBFT each extra f adds 3 replicas and quadratic\n"
      "agreement traffic; MinBFT's trusted counter buys the same f with\n"
      "2f+1 replicas and one less round, so the curve degrades more\n"
      "slowly — the paper's f=1 deployment would run 3 Masters instead\n"
      "of 4.\n");
  return 0;
}
