// Socket-mode bench harness: a `deploy replica` group over real UDP, driven
// from this process by the HMI side and the Frontend side (core/assembly.h).
//
// The harness writes the plant's port table (core/plant.h) to a config
// file, starts one `deploy replica` per group member through the shared
// launcher (core/launcher.h), and puts both sides on an in-process
// SocketTransport. No RTU or separate frontend process is needed: without a
// field writer the Frontend applies each write locally and acks it, so the
// measured path is the full HMI -> agreement -> frontend -> agreement ->
// voted-reply loop (the field bus is not the system under test).
//
// The group comes from SS_PROTOCOL, the same variable every `deploy` role
// reads (pbft, the default, runs 3f+1 replicas; minbft runs 2f+1), so the
// harness, the config and the spawned replicas always agree on n and the
// quorums. The deploy binary is --deploy PATH (where the bench has one),
// else $SS_DEPLOY, else found next to the bench binary.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <string>

#include "core/assembly.h"
#include "core/launcher.h"
#include "core/plant.h"
#include "crypto/keychain.h"
#include "net/socket_transport.h"
#include "storage/env.h"

namespace ss::bench {

inline std::string locate_deploy(const std::string& override_path) {
  if (!override_path.empty()) return override_path;
  if (const char* env = std::getenv("SS_DEPLOY")) return env;
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string dir(buf);
    std::size_t slash = dir.rfind('/');
    if (slash != std::string::npos) dir.resize(slash);
    for (const std::string& cand :
         {dir + "/../examples/deploy", dir + "/deploy"}) {
      if (::access(cand.c_str(), X_OK) == 0) return cand;
    }
  }
  return "deploy";  // relative to the working directory: no PATH search
}

/// The replica group and both sides. The constructor writes the plant's
/// port table to the group's config file and starts the replicas; the
/// destructor stops and reaps them and removes the file.
class SocketHarness {
 public:
  /// `base_port` 0 derives one from the pid, so concurrent runs on one host
  /// don't collide; `deploy` empty locates the binary (see the file header).
  explicit SocketHarness(std::uint32_t f, std::uint16_t base_port = 0,
                         const std::string& deploy = {})
      : group_(GroupConfig::for_protocol(protocol_from_env(), f)),
        port_(base_port != 0 ? base_port
                             : static_cast<std::uint16_t>(
                                   41000 + (::getpid() % 8000) * 2)),
        config_("/tmp/smart-scada-bench-" + std::to_string(::getpid()) + "-" +
                std::to_string(port_) + ".conf"),
        launcher_(locate_deploy(deploy)),
        transport_(core::plant::port_table(group_.n, "127.0.0.1", port_),
                   net::socket_options_from_env()),
        hmi_(transport_, keys_, group_),
        frontend_(transport_, keys_, group_) {
    core::plant::add_points(frontend_.frontend);
    storage::PosixEnv().write_file(config_,
                                   bytes_of(transport_.resolver().to_text()));
    try {
      for (std::uint32_t i = 0; i < group_.n; ++i) {
        launcher_.spawn({"replica", "--id", std::to_string(i), "--f",
                         std::to_string(f), "--config", config_});
      }
    } catch (...) {
      ::unlink(config_.c_str());
      throw;
    }
    ::usleep(300 * 1000);  // let the replicas bind before we start asking
  }

  ~SocketHarness() { ::unlink(config_.c_str()); }

  /// Subscribes the HMI and proves both op paths end-to-end (one write, one
  /// field update) before any measurement. Returns false if the group never
  /// becomes live.
  bool warm_up() {
    scada::Hmi& hmi = hmi_.hmi;
    hmi.subscribe_all();
    SimTime deadline = transport_.now() + seconds(30);
    while (transport_.now() < deadline) {
      bool write_done = false;
      bool write_ok = false;
      hmi.write(core::plant::kSetpoint, scada::Variant{20.0},
                [&](const scada::WriteResult& r) {
                  write_done = true;
                  write_ok = r.status == scada::WriteStatus::kOk;
                });
      frontend_.frontend.field_update(core::plant::kTemperature,
                                      scada::Variant{-1.0});
      transport_.run_until(
          [&] {
            return write_done && hmi.item(core::plant::kTemperature) != nullptr;
          },
          seconds(2));
      if (write_done && write_ok &&
          hmi.item(core::plant::kTemperature) != nullptr) {
        return true;
      }
    }
    return false;
  }

  net::SocketTransport& net() { return transport_; }
  scada::Hmi& hmi() { return hmi_.hmi; }
  scada::Frontend& frontend() { return frontend_.frontend; }

 private:
  const GroupConfig group_;
  const std::uint16_t port_;
  const std::string config_;
  // Declared before the transport and the sides, so they go away before
  // the replicas are stopped, and a constructor that throws after a spawn
  // still stops the children.
  core::Launcher launcher_;
  net::SocketTransport transport_;
  crypto::Keychain keys_{core::plant::kGroupSecret};
  core::HmiSide hmi_;
  core::FrontendSide frontend_;
};

}  // namespace ss::bench
