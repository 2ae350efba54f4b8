// Ablation: resilience level f, across agreement protocols.
//
// The paper fixes f = 1 under PBFT (4 SCADA Masters). This bench measures
// what resilience costs under both agreement engines: PBFT (n = 3f+1,
// 2f+1 write quorum) vs MinBFT (n = 2f+1, f+1 commit quorum backed by the
// USIG trusted counter). For each protocol x f in {1, 2} it reports the
// Fig 8(a) delivered update rate and the synchronous write rate, in two
// backends:
//
//  * sim (always): the deterministic in-process ReplicatedDeployment in
//    virtual time — CI-stable numbers.
//  * socket (--socket): forks the `deploy` binary's replica role n times
//    with SS_PROTOCOL exported (bench/socket_harness.h) and drives
//    synchronous HMI writes over real UDP — the same processes the paper's
//    testbed ran, so protocol message-count differences (4 vs 3 replicas at
//    f=1) show up as wall-clock write rates.
//
// Emits BENCH_ablation_f.json with one record per (backend, protocol, f,
// metric).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"

namespace ss::bench {
namespace {

constexpr SimTime kWarmup = seconds(1);
constexpr SimTime kMeasure = seconds(10);
/// Socket mode runs in wall-clock time; keep it short enough for CI.
constexpr SimTime kSocketWarmup = seconds(1);
constexpr SimTime kSocketMeasure = seconds(3);

core::ReplicatedOptions make_options(Protocol protocol, std::uint32_t f) {
  core::ReplicatedOptions options = replicated_options();
  options.group = GroupConfig::for_protocol(protocol, f);
  return options;
}

load::RunRecord sim_updates(Protocol protocol, std::uint32_t f,
                            const std::string& name) {
  core::ReplicatedDeployment system(make_options(protocol, f));
  Workload workload{.items = {system.add_point("feeder")}};
  system.start();
  return run_open_loop(system, workload, name,
                       load::ScheduleOptions{.rate_per_sec = 1000.0,
                                             .duration = kWarmup + kMeasure},
                       kWarmup, seconds(2));
}

load::RunRecord sim_writes(Protocol protocol, std::uint32_t f,
                           const std::string& name) {
  core::ReplicatedDeployment system(make_options(protocol, f));
  ItemId item = system.add_point("valve", scada::Variant{0.0});
  system.start();
  return closed_loop_writes(system, item, name, kWarmup, kMeasure);
}

/// Synchronous HMI writes over real UDP against a `deploy replica` group.
load::RunRecord socket_writes(Protocol protocol, std::uint32_t f,
                              std::uint16_t base_port,
                              const std::string& name) {
  // The harness, its port table and the spawned replicas all derive the
  // group from SS_PROTOCOL; export it so every process agrees on n and the
  // quorums.
  ::setenv("SS_PROTOCOL", protocol_name(protocol), 1);
  SocketHarness harness(f, base_port);
  if (!harness.warm_up()) {
    throw std::runtime_error("replica group never became live");
  }
  return closed_loop_writes(harness, core::plant::kSetpoint, name,
                            kSocketWarmup, kSocketMeasure);
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  using namespace ss;
  using namespace ss::bench;

  bool socket_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") != 0) {
      std::fprintf(stderr, "usage: ablation_f [--socket]\n");
      return 2;
    }
    socket_mode = true;
  }

  constexpr Protocol kProtocols[] = {Protocol::kPbft, Protocol::kMinBft};
  constexpr std::uint32_t kLevels[] = {1u, 2u};
  auto cell = [](const char* backend, Protocol protocol, std::uint32_t f,
                 const char* metric) {
    return std::string(backend) + "_" + protocol_name(protocol) + "_f" +
           std::to_string(f) + "_" + metric;
  };

  print_header("Ablation: resilience level",
               "protocol x f sweep (PBFT n=3f+1, MinBFT n=2f+1)");
  std::printf("%-8s %-4s %-4s %18s %16s\n", "proto", "f", "n",
              "updates/s @1000/s", "sync writes/s");
  load::LoadReport report("ablation_f");
  for (Protocol protocol : kProtocols) {
    for (std::uint32_t f : kLevels) {
      load::RunRecord updates =
          sim_updates(protocol, f, cell("sim", protocol, f, "updates"));
      load::RunRecord writes =
          sim_writes(protocol, f, cell("sim", protocol, f, "writes"));
      std::printf("%-8s %-4u %-4u %18.1f %16.1f\n", protocol_name(protocol),
                  f, GroupConfig::for_protocol(protocol, f).n,
                  delivered(updates), writes.goodput_per_sec);
      report.add(std::move(updates));
      report.add(std::move(writes));
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
        try {
          load::RunRecord writes = socket_writes(
              protocol, f, base_port, cell("socket", protocol, f, "writes"));
          std::printf("%-8s %-4u %-4u %16.1f\n", protocol_name(protocol), f,
                      GroupConfig::for_protocol(protocol, f).n,
                      writes.goodput_per_sec);
          report.add(std::move(writes));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "ablation_f: socket %s f=%u: %s\n",
                       protocol_name(protocol), f, e.what());
          return 1;
        }
        base_port = static_cast<std::uint16_t>(base_port + 64);
      }
    }
  } else {
    std::printf("\n(socket backend skipped: pass --socket)\n");
  }

  report.write();
  std::printf(
      "\nreading: under PBFT each extra f adds 3 replicas and quadratic\n"
      "agreement traffic; MinBFT's trusted counter buys the same f with\n"
      "2f+1 replicas and one less round, so the curve degrades more\n"
      "slowly — the paper's f=1 deployment would run 3 Masters instead\n"
      "of 4.\n");
  return 0;
}
