// Socket-mode bench harness: a `deploy replica` group over real UDP, driven
// from this process by one HMI core + ProxyHMI and one Frontend core +
// ProxyFrontend.
//
// The harness runs `deploy config` to generate the name -> port file, forks
// one `deploy replica` per group member, and puts the two component cores
// behind their proxies on an in-process SocketTransport. No RTU or separate
// frontend process is needed: without a field writer the Frontend applies
// each write locally and acks it, so the measured path is the full
// HMI -> agreement -> frontend -> agreement -> voted-reply loop (the field
// bus is not the system under test).
//
// The group comes from SS_PROTOCOL, the same variable every `deploy` role
// reads (pbft, the default, runs 3f+1 replicas; minbft runs 2f+1), so the
// harness, the generated config and the spawned replicas always agree on n
// and the quorums. The deploy binary is --deploy PATH (where the bench has
// one), else $SS_DEPLOY, else found next to the bench binary.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/nodes.h"
#include "core/proxies.h"
#include "core/replicated_deployment.h"
#include "core/scada_link.h"
#include "crypto/keychain.h"
#include "net/resolver.h"
#include "net/socket_transport.h"
#include "scada/frontend.h"
#include "scada/hmi.h"

namespace ss::bench {

// Must match the registration order in examples/deploy.cpp: item ids are
// dense by registration order and agreed system-wide.
inline constexpr ItemId kTemperature{1};
inline constexpr ItemId kSetpoint{2};
inline constexpr const char* kTemperatureName = "plant/reactor/temperature";
inline constexpr const char* kSetpointName = "plant/reactor/setpoint";

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
  return "deploy";  // hope it is on PATH
}

inline core::ProxyOptions proxy_options(const char* endpoint,
                                        const char* component) {
  core::ProxyOptions options;
  options.endpoint = endpoint;
  options.component_endpoint = component;
  return options;
}

/// The `deploy replica` children and their config file. The constructor
/// spawns them; the destructor SIGTERMs and reaps them and removes the file.
class ReplicaProcesses {
 public:
  ReplicaProcesses(std::uint32_t f, std::uint16_t base_port,
                   const std::string& deploy)
      : group(GroupConfig::for_protocol(protocol_from_env(), f)),
        config("/tmp/smart-scada-bench-" + std::to_string(::getpid()) + "-" +
               std::to_string(base_port) + ".conf"),
        deploy_(locate_deploy(deploy)) {
    write_config(f, base_port);
    const std::string fs = std::to_string(f);
    for (std::uint32_t i = 0; i < group.n; ++i) {
      pid_t pid = ::fork();
      if (pid == 0) {
        std::string id = std::to_string(i);
        const char* argv[] = {deploy_.c_str(), "replica",
                              "--id",          id.c_str(),
                              "--f",           fs.c_str(),
                              "--config",      config.c_str(),
                              nullptr};
        ::execv(deploy_.c_str(), const_cast<char**>(argv));
        std::perror("execv deploy replica");
        std::_Exit(127);
      }
      pids_.push_back(pid);
    }
    ::usleep(300 * 1000);  // let the replicas bind before we start asking
  }

  ~ReplicaProcesses() {
    for (pid_t pid : pids_) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
    ::unlink(config.c_str());
  }

  ReplicaProcesses(const ReplicaProcesses&) = delete;
  ReplicaProcesses& operator=(const ReplicaProcesses&) = delete;

  const GroupConfig group;
  const std::string config;

 private:
  void write_config(std::uint32_t f, std::uint16_t base_port) {
    std::string cmd = deploy_ + " config --f " + std::to_string(f) +
                      " --base-port " + std::to_string(base_port);
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("cannot run: " + cmd);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
      text.append(buf, n);
    }
    int rc = ::pclose(pipe);
    if (rc != 0 || text.empty()) {
      throw std::runtime_error("`" + cmd +
                               "` failed; point SS_DEPLOY at the deploy "
                               "binary");
    }
    std::ofstream(config) << text;
  }

  std::string deploy_;
  std::vector<pid_t> pids_;
};

class SocketHarness {
 public:
  /// `base_port` 0 derives one from the pid, so concurrent runs on one host
  /// don't collide; `deploy` empty locates the binary (see the file header).
  explicit SocketHarness(std::uint32_t f, std::uint16_t base_port = 0,
                         const std::string& deploy = {})
      : replicas_(f,
                  base_port != 0 ? base_port
                                 : static_cast<std::uint16_t>(
                                       41000 + (::getpid() % 8000) * 2),
                  deploy),
        transport_(net::Resolver::from_file(replicas_.config),
                   net::socket_options_from_env()),
        hmi_(scada::HmiOptions{.subscriber_name = core::kHmiEndpoint}),
        hmi_proxy_(transport_, replicas_.group,
                   ClientId{core::kProxyHmiClient}, keys_,
                   proxy_options(core::kProxyHmiEndpoint, core::kHmiEndpoint)),
        hmi_node_(transport_, keys_, hmi_,
                  core::NodeOptions{.endpoint = core::kHmiEndpoint,
                                    .peer = core::kProxyHmiEndpoint}),
        frontend_(scada::FrontendOptions{.instance_id = 1}),
        frontend_proxy_(transport_, replicas_.group,
                        ClientId{core::kProxyFrontendClient}, keys_,
                        proxy_options(core::kProxyFrontendEndpoint,
                                      core::kFrontendEndpoint)),
        frontend_node_(transport_, keys_, frontend_,
                       core::NodeOptions{
                           .endpoint = core::kFrontendEndpoint,
                           .peer = core::kProxyFrontendEndpoint}) {
    frontend_.add_item(kTemperatureName);
    frontend_.add_item(kSetpointName, scada::Variant{20.0});
  }

  /// Subscribes the HMI and proves both op paths end-to-end (one write, one
  /// field update) before any measurement. Returns false if the group never
  /// becomes live.
  bool warm_up() {
    hmi_.subscribe_all();
    SimTime deadline = transport_.now() + seconds(30);
    while (transport_.now() < deadline) {
      bool write_done = false;
      bool write_ok = false;
      hmi_.write(kSetpoint, scada::Variant{20.0},
                 [&](const scada::WriteResult& r) {
                   write_done = true;
                   write_ok = r.status == scada::WriteStatus::kOk;
                 });
      frontend_.field_update(kTemperature, scada::Variant{-1.0});
      transport_.run_until(
          [&] { return write_done && hmi_.item(kTemperature) != nullptr; },
          seconds(2));
      if (write_done && write_ok && hmi_.item(kTemperature) != nullptr) {
        return true;
      }
    }
    return false;
  }

  net::SocketTransport& net() { return transport_; }
  scada::Hmi& hmi() { return hmi_; }
  scada::Frontend& frontend() { return frontend_; }

 private:
  // Declared first so it is destroyed last: the cores and their transport
  // go away before the replicas are signalled, and a constructor that
  // throws after the fork still reaps the children.
  ReplicaProcesses replicas_;
  net::SocketTransport transport_;
  crypto::Keychain keys_{"smart-scada-secret"};
  scada::Hmi hmi_;
  core::ComponentProxy hmi_proxy_;
  core::HmiNode hmi_node_;
  scada::Frontend frontend_;
  core::ComponentProxy frontend_proxy_;
  core::FrontendNode frontend_node_;
};

}  // namespace ss::bench
