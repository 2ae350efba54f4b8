// socket_bench: one named workload of the socket-mode SCADA benchmark.
//
// Spawns an f=1 PBFT group of unmodified `deploy replica` processes on
// loopback UDP and drives it open-loop from this single-threaded process,
// which hosts the HMI, the Frontend, both component proxies and the
// src/load OpenLoopDriver (2 proxy endpoints, as bench/load_openloop's
// SocketHarness does). Latency is timed from each operation's *scheduled*
// send time and kept per operation, so the gated percentiles are exact.
//
// One pass = a timed set-up (replica spawn -> first voted write and field
// update), a discarded 5-s warm-up at the workload's own rate and shape, a
// `--seconds` measured window, the correctness checks and, on an untraced
// pass, six more timed set-ups of a fresh group; setup_s is the median.
//
// With --trace 1 the process runs an untraced reference pass and then a
// traced pass on a fresh group. The traced pass measures every layer from
// outside the program: it times this process's calls into each layer
// through a net::Transport decorator (timed_transport.h) and the Tracer
// clock, and reads the replica processes only through interfaces they
// already expose: /proc/<pid>/{stat,status}, the SIGUSR1 registry snapshot
// line in their stderr log, the SS_DEPLOY_STATS heartbeat and, after the
// run, their on-disk checkpoints.
//
// Output: `name workload value unit` lines on stdout, one
// `summary <workload> <correct> <attempted> <failed>` line, and the records
// in the src/load report schema (BENCH_scadabench.json in --out, values in
// RunRecord.extras). Exit status: 0 when every correctness check passed,
// 1 on a violation, 2 on a usage error.
//
//   socket_bench --workload update-1k --seed 7 --seconds 15 --trace 0
//       --deploy build/deploy --out run/update-1k
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/nodes.h"
#include "core/proxies.h"
#include "core/replicated_deployment.h"
#include "core/scada_link.h"
#include "crypto/keychain.h"
#include "load/driver.h"
#include "load/report.h"
#include "load/schedule.h"
#include "net/resolver.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scada/frontend.h"
#include "scada/handlers.h"
#include "scada/hmi.h"
#include "scada/master.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "timed_transport.h"

using namespace ss;
namespace fs = std::filesystem;

namespace {

// Must match examples/deploy.cpp: item ids are dense by registration order.
constexpr ItemId kTemperature{1};
constexpr ItemId kSetpoint{2};
const char* kTemperatureName = "plant/reactor/temperature";
const char* kSetpointName = "plant/reactor/setpoint";
const char* kGroupSecret = "smart-scada-secret";
constexpr double kAlarmThreshold = 100.0;  // SS_ALARM_THRESHOLD for alarm-1k
constexpr std::uint32_t kF = 1;
constexpr SimTime kOpTimeout = seconds(2);
constexpr SimTime kRespawnDelay = millis(200);
// The pre-kill registry snapshot (traced pass) is requested this long before
// the SIGKILL; the replica answers SIGUSR1 on a 250 ms poll.
constexpr SimTime kPreKillSnapshotLead = millis(400);
// Whole-process budget: past this the run gives up instead of overrunning.
constexpr SimTime kBudget = seconds(170);
// Discarded warm-up before the window: the first seconds after set-up run
// with cold caches and a tail up to twice the steady one.
constexpr double kWarmupSeconds = 5;
// Timed set-ups per untraced pass (one before the window, the rest after).
constexpr int kSetups = 7;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  const char* op;  ///< write | update | mixed
  double rate;
  std::uint32_t clients;
  bool alarms;                ///< replicas get a Monitor every update trips
  bool durable;               ///< SS_STATE_DIR + SS_CHECKPOINT_INTERVAL=128
  SimTime proactive_period;   ///< > 0: SIGKILL round-robin, respawn 200 ms on
};

// Why each exists is recorded in README.md; the names are the benchmark's
// public interface (BENCHMARK.json).
const WorkloadSpec kWorkloads[] = {
    {"update-1k", "update", 1000, 500, false, false, 0},
    {"alarm-1k", "update", 1000, 500, true, false, 0},
    {"write-400-durable", "write", 400, 200, false, true, 0},
    {"mixed-reincarnate", "mixed", 300, 200, false, true, millis(6000)},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small utilities

SimTime steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_seconds(const char* s, double& out) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v) || v < 0) {
    return false;
  }
  out = v;
  return true;
}

/// Nearest-rank percentile of a sorted sample; 0 when empty.
double percentile_sorted(const std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Numeric leaves of a registry JSON dump, keyed by their path joined with
/// '|' (registry names themselves contain '.' and '/').
using Snapshot = std::map<std::string, double>;

class JsonFlattener {
 public:
  explicit JsonFlattener(std::string_view s) : s_(s) {}

  bool parse(Snapshot& out) {
    bool ok = value("", out);
    ws();
    return ok && pos_ == s_.size();
  }

 private:
  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      out.push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool value(const std::string& path, Snapshot& out) {
    ws();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == '{') {
      ++pos_;
      ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        ws();
        std::string key;
        if (!string(key)) return false;
        ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        if (!value(path.empty() ? key : path + "|" + key, out)) return false;
        ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (s_[pos_] == '"') {
      std::string ignored;
      return string(ignored);
    }
    std::string num(s_.substr(pos_, std::min<std::size_t>(32, s_.size() - pos_)));
    char* end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (end == num.c_str()) return false;
    pos_ += static_cast<std::size_t>(end - num.c_str());
    out[path] = v;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

double get(const Snapshot& s, const std::string& key) {
  auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

/// CPU, context switches and peak RSS of one process, from /proc.
struct ProcSample {
  double cpu_s = 0;
  double ctx_switches = 0;
  double hwm_kb = 0;
};

std::optional<ProcSample> read_proc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  {
    std::ifstream in(base + "/stat");
    std::string line;
    if (!std::getline(in, line)) return std::nullopt;
    // Fields after the parenthesised command: state is field 3, utime 14,
    // stime 15.
    std::size_t close = line.rfind(')');
    if (close == std::string::npos) return std::nullopt;
    std::istringstream rest(line.substr(close + 2));
    std::vector<std::string> f;
    std::string tok;
    while (rest >> tok) f.push_back(tok);
    if (f.size() < 13) return std::nullopt;
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    s.cpu_s = (std::strtod(f[11].c_str(), nullptr) +
               std::strtod(f[12].c_str(), nullptr)) /
              tick;
  }
  std::ifstream in(base + "/status");
  std::string line;
  while (std::getline(in, line)) {
    auto field = [&](const char* key) -> std::optional<double> {
      std::size_t n = std::strlen(key);
      if (line.compare(0, n, key) != 0) return std::nullopt;
      return std::strtod(line.c_str() + n, nullptr);
    };
    if (auto v = field("VmHWM:")) s.hwm_kb = *v;
    if (auto v = field("voluntary_ctxt_switches:")) s.ctx_switches += *v;
    if (auto v = field("nonvoluntary_ctxt_switches:")) s.ctx_switches += *v;
  }
  return s;
}

/// User + system CPU seconds of this process.
double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// First base port at which every endpoint of the group can bind.
std::uint16_t find_free_ports(std::uint16_t count) {
  for (std::uint32_t base = 20000 + (static_cast<std::uint32_t>(::getpid()) % 997) * 32;
       base + count < 60000; base += 32) {
    bool free = true;
    std::vector<int> fds;
    for (std::uint16_t i = 0; i < count && free; ++i) {
      int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        free = false;
      }
      if (fd >= 0) fds.push_back(fd);
    }
    for (int fd : fds) ::close(fd);
    if (free) return static_cast<std::uint16_t>(base);
  }
  throw std::runtime_error("no free block of UDP ports on 127.0.0.1");
}

// ---------------------------------------------------------------------------
// The replica group: unmodified `deploy replica` processes.

class ReplicaGroup {
 public:
  struct Settings {
    std::string deploy;
    std::string config;
    std::string log_dir;
    std::vector<std::pair<std::string, std::string>> env;
  };

  ReplicaGroup(Settings settings, std::uint32_t n)
      : s_(std::move(settings)), members_(n) {
    for (std::uint32_t i = 0; i < n; ++i) spawn(i, /*truncate_log=*/true);
  }

  ~ReplicaGroup() { terminate(); }

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  std::uint32_t size() const { return static_cast<std::uint32_t>(members_.size()); }
  pid_t pid(std::uint32_t i) const { return members_[i].pid; }

  /// Polls the logs until every replica printed its "up" line.
  bool wait_up(SimTime timeout) {
    SimTime deadline = steady_ns() + timeout;
    while (steady_ns() < deadline) {
      poll_logs();
      bool all = std::all_of(members_.begin(), members_.end(),
                             [](const Member& m) { return m.up; });
      if (all) return true;
      for (const Member& m : members_) {
        int status = 0;
        if (m.pid > 0 && ::waitpid(m.pid, &status, WNOHANG) == m.pid) {
          return false;  // a replica exited during start-up
        }
      }
      ::usleep(500);
    }
    return false;
  }

  /// Reads whatever the replicas appended to their stderr logs and parses
  /// the registry snapshot and heartbeat lines out of it.
  void poll_logs() {
    for (std::uint32_t i = 0; i < size(); ++i) {
      Member& m = members_[i];
      std::ifstream in(log_path(i), std::ios::binary);
      in.seekg(static_cast<std::streamoff>(m.read_offset));
      std::string chunk((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      m.read_offset += chunk.size();
      m.partial += chunk;
      std::size_t start = 0;
      for (std::size_t nl; (nl = m.partial.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        parse_line(m, std::string_view(m.partial).substr(start, nl - start));
      }
      m.partial.erase(0, start);
    }
  }

  /// Sends SIGUSR1 to `ids` and pumps `net` until each answered with a new
  /// registry snapshot line (the replicas poll the flag every 250 ms).
  bool snapshot(net::SocketTransport& net, const std::vector<std::uint32_t>& ids,
                SimTime timeout = seconds(3)) {
    // SIGUSR1 terminates a replica that has not installed its handlers
    // yet, so a freshly respawned one is signalled only once it is up.
    SimTime deadline = steady_ns() + timeout;
    while (!std::all_of(ids.begin(), ids.end(),
                        [&](std::uint32_t i) { return members_[i].up; })) {
      if (steady_ns() > deadline) return false;
      net.run_until([] { return false; }, millis(5));
      poll_logs();
    }
    std::vector<std::uint64_t> want(size());
    for (std::uint32_t i : ids) {
      want[i] = members_[i].snapshots + 1;
      ::kill(members_[i].pid, SIGUSR1);
    }
    while (steady_ns() < deadline) {
      net.run_until([] { return false; }, millis(5));
      poll_logs();
      bool all = std::all_of(ids.begin(), ids.end(), [&](std::uint32_t i) {
        return members_[i].snapshots >= want[i];
      });
      if (all) return true;
    }
    return false;
  }
  bool snapshot_all(net::SocketTransport& net) {
    std::vector<std::uint32_t> ids(size());
    for (std::uint32_t i = 0; i < size(); ++i) ids[i] = i;
    return snapshot(net, ids);
  }

  void request_snapshot(std::uint32_t i) { ::kill(members_[i].pid, SIGUSR1); }

  const Snapshot& last_snapshot(std::uint32_t i) const { return members_[i].snap; }

  /// (observed at, decided batches) for each SS_DEPLOY_STATS heartbeat.
  const std::vector<std::pair<SimTime, double>>& heartbeats(std::uint32_t i) const {
    return members_[i].heartbeats;
  }

  void kill(std::uint32_t i) {
    Member& m = members_[i];
    if (m.pid <= 0) return;
    ::kill(m.pid, SIGKILL);
    ::waitpid(m.pid, nullptr, 0);
    m.pid = -1;
  }

  void respawn(std::uint32_t i) { spawn(i, /*truncate_log=*/false); }

  /// SIGTERM (durable replicas write a final checkpoint on the way out),
  /// escalating to SIGKILL after 5 s. Idempotent.
  void terminate() {
    for (Member& m : members_) {
      if (m.pid > 0) ::kill(m.pid, SIGTERM);
    }
    SimTime deadline = steady_ns() + seconds(5);
    for (Member& m : members_) {
      if (m.pid <= 0) continue;
      while (::waitpid(m.pid, nullptr, WNOHANG) == 0) {
        if (steady_ns() > deadline) {
          ::kill(m.pid, SIGKILL);
          ::waitpid(m.pid, nullptr, 0);
          break;
        }
        ::usleep(2000);
      }
      m.pid = -1;
    }
  }

 private:
  struct Member {
    pid_t pid = -1;
    bool up = false;
    std::size_t read_offset = 0;
    std::string partial;
    Snapshot snap;
    std::uint64_t snapshots = 0;
    std::vector<std::pair<SimTime, double>> heartbeats;
  };

  std::string log_path(std::uint32_t i) const {
    return s_.log_dir + "/replica-" + std::to_string(i) + ".log";
  }

  void parse_line(Member& m, std::string_view line) {
    static constexpr std::string_view kSnap = "metrics snapshot: ";
    if (line.find("] up") != std::string_view::npos) m.up = true;
    if (std::size_t at = line.find(kSnap); at != std::string_view::npos) {
      Snapshot snap;
      if (JsonFlattener(line.substr(at + kSnap.size())).parse(snap)) {
        m.snap = std::move(snap);
        ++m.snapshots;
      }
      return;
    }
    if (std::size_t at = line.find(" decided="); at != std::string_view::npos) {
      m.heartbeats.emplace_back(
          steady_ns(),
          std::strtod(std::string(line.substr(at + 9)).c_str(), nullptr));
    }
  }

  void spawn(std::uint32_t i, bool truncate_log) {
    Member& m = members_[i];
    m.up = false;
    const std::string log = log_path(i);
    if (truncate_log) {
      // Truncated here, not in the child: until the child runs, a read of
      // the old file would find the previous group's "up" line.
      std::ofstream(log, std::ios::trunc);
      m.read_offset = 0;
      m.partial.clear();
    }
    const std::string id = std::to_string(i);
    const std::string f = std::to_string(kF);
    pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      // Never outlive the bench, whatever way it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) std::_Exit(1);
      int fd = ::open(log.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
      }
      for (const auto& [key, value] : s_.env) ::setenv(key.c_str(), value.c_str(), 1);
      const char* argv[] = {s_.deploy.c_str(), "replica", "--id", id.c_str(),
                            "--f", f.c_str(), "--config", s_.config.c_str(),
                            nullptr};
      ::execv(s_.deploy.c_str(), const_cast<char**>(argv));
      std::perror("execv deploy replica");
      std::_Exit(127);
    }
    m.pid = pid;
  }

  Settings s_;
  std::vector<Member> members_;
};

// ---------------------------------------------------------------------------
// The bench side: HMI + ProxyHMI, Frontend + ProxyFrontend on one transport.

class Client {
 public:
  Client(const std::string& config, bool traced) {
    socket_ = std::make_unique<net::SocketTransport>(
        net::Resolver::from_file(config), net::socket_options_from_env());
    if (traced) {
      timed_ = std::make_unique<scadabench::TimedTransport>(*socket_);
      obs::Tracer::instance().set_clock([s = socket_.get()] { return s->now(); });
    }
    net::Transport& t = net();
    const GroupConfig group = GroupConfig::for_f(kF);
    keys_ = std::make_unique<crypto::Keychain>(kGroupSecret);

    hmi_ = std::make_unique<scada::Hmi>(
        scada::HmiOptions{.subscriber_name = core::kHmiEndpoint});
    core::ProxyOptions hmi_proxy;
    hmi_proxy.endpoint = core::kProxyHmiEndpoint;
    hmi_proxy.component_endpoint = core::kHmiEndpoint;
    hmi_proxy_ = std::make_unique<core::ComponentProxy>(
        t, group, ClientId{core::kProxyHmiClient}, *keys_, hmi_proxy);
    hmi_node_ = std::make_unique<core::HmiNode>(
        t, *keys_, *hmi_,
        core::NodeOptions{.endpoint = core::kHmiEndpoint,
                          .peer = core::kProxyHmiEndpoint});

    // No field driver: writes apply at the Frontend and succeed, so the
    // measured path is HMI -> agreement -> Frontend -> agreement -> voted
    // reply, with the field bus out of the picture.
    frontend_ = std::make_unique<scada::Frontend>(
        scada::FrontendOptions{.instance_id = 1});
    frontend_->add_item(kTemperatureName);
    frontend_->add_item(kSetpointName, scada::Variant{20.0});
    core::ProxyOptions fe_proxy;
    fe_proxy.endpoint = core::kProxyFrontendEndpoint;
    fe_proxy.component_endpoint = core::kFrontendEndpoint;
    frontend_proxy_ = std::make_unique<core::ComponentProxy>(
        t, group, ClientId{core::kProxyFrontendClient}, *keys_, fe_proxy);
    frontend_node_ = std::make_unique<core::FrontendNode>(
        t, *keys_, *frontend_,
        core::NodeOptions{.endpoint = core::kFrontendEndpoint,
                          .peer = core::kProxyFrontendEndpoint});
  }

  ~Client() {
    frontend_node_.reset();
    frontend_proxy_.reset();
    hmi_node_.reset();
    hmi_proxy_.reset();
    if (timed_) obs::Tracer::instance().set_clock(nullptr);
    timed_.reset();
    socket_.reset();
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  net::SocketTransport& socket() { return *socket_; }
  net::Transport& net() {
    return timed_ ? static_cast<net::Transport&>(*timed_) : *socket_;
  }
  scadabench::TimedTransport* timed() { return timed_.get(); }
  scada::Hmi& hmi() { return *hmi_; }
  scada::Frontend& frontend() { return *frontend_; }
  const core::ComponentProxy& hmi_proxy() const { return *hmi_proxy_; }
  const core::ComponentProxy& frontend_proxy() const { return *frontend_proxy_; }

  /// Subscribes the HMI and completes one voted write and one field update.
  bool handshake(SimTime timeout) {
    hmi_->subscribe_all();
    SimTime deadline = socket_->now() + timeout;
    while (socket_->now() < deadline) {
      bool done = false;
      bool ok = false;
      hmi_->write(kSetpoint, scada::Variant{20.0},
                  [&](const scada::WriteResult& r) {
                    done = true;
                    ok = r.status == scada::WriteStatus::kOk;
                  });
      frontend_->field_update(kTemperature, scada::Variant{-1.0});
      socket_->run_until(
          [&] { return done && hmi_->item(kTemperature) != nullptr; },
          seconds(2));
      if (done && ok && hmi_->item(kTemperature) != nullptr) return true;
    }
    return false;
  }

 private:
  std::unique_ptr<net::SocketTransport> socket_;
  std::unique_ptr<scadabench::TimedTransport> timed_;
  std::unique_ptr<crypto::Keychain> keys_;
  std::unique_ptr<scada::Hmi> hmi_;
  std::unique_ptr<core::ComponentProxy> hmi_proxy_;
  std::unique_ptr<core::HmiNode> hmi_node_;
  std::unique_ptr<scada::Frontend> frontend_;
  std::unique_ptr<core::ComponentProxy> frontend_proxy_;
  std::unique_ptr<core::FrontendNode> frontend_node_;
};

// ---------------------------------------------------------------------------
// Issuing operations and keeping exact per-op samples.

/// Field updates are matched back to their arrival through the pushed value
/// (base + index, far above the alarm threshold, so on alarm-1k every update
/// trips the Monitor), writes through the HMI's own result callback. A write result can arrive
/// after its run ended (a timed-out op), so the callbacks own what they
/// touch.
class Issuer {
 public:
  struct Sample {
    SimTime at;       ///< scheduled offset from the window epoch
    SimTime latency;  ///< scheduled send -> first successful completion
  };

  Issuer(const WorkloadSpec& spec, Client& client, double update_base,
         std::size_t ops)
      : spec_(spec), client_(client), base_(update_base),
        state_(std::make_shared<State>()) {
    state_->completed.assign(ops, false);
    state_->samples.reserve(ops);
    update_done_.resize(ops);
    client_.hmi().set_update_callback(
        [this](const scada::ItemUpdate& u) { on_update(u); });
  }
  ~Issuer() { client_.hmi().set_update_callback({}); }

  Issuer(const Issuer&) = delete;
  Issuer& operator=(const Issuer&) = delete;

  /// Called on the driver's loop once it started, so `epoch` is final.
  void issue(const load::Arrival& a, SimTime epoch,
             load::OpenLoopDriver::CompletionFn done) {
    load::OpenLoopDriver::CompletionFn record =
        [state = state_, clock = &client_.socket(), index = a.index, at = a.at,
         due = epoch + a.at, done = std::move(done)](bool ok) {
          if (!state->completed[index]) {
            state->completed[index] = true;
            if (ok) state->samples.push_back({at, clock->now() - due});
          }
          done(ok);
        };
    if (is_write(a)) {
      client_.hmi().write(
          kSetpoint, scada::Variant{21.0 + static_cast<double>(a.index % 64)},
          [record](const scada::WriteResult& r) {
            record(r.status == scada::WriteStatus::kOk);
          });
      return;
    }
    update_done_[a.index] = std::move(record);
    client_.frontend().field_update(
        kTemperature, scada::Variant{base_ + static_cast<double>(a.index)});
  }

  const std::vector<Sample>& samples() const { return state_->samples; }

 private:
  struct State {
    std::vector<bool> completed;
    std::vector<Sample> samples;
  };

  bool is_write(const load::Arrival& a) const {
    std::string_view op = spec_.op;
    if (op == "write") return true;
    if (op == "update") return false;
    // mixed: every third op is a write. With an even split the median would
    // sit on the boundary between the update (one agreement) and write (two
    // agreements) latency populations and jump between them run to run.
    return a.index % 3 == 2;
  }

  void on_update(const scada::ItemUpdate& update) {
    if (update.item != kTemperature) return;
    double rel = update.value.as_double() - base_;
    if (rel < 0 || rel >= static_cast<double>(update_done_.size())) return;
    auto index = static_cast<std::size_t>(rel);
    if (update_done_[index]) update_done_[index](true);
  }

  const WorkloadSpec& spec_;
  Client& client_;
  double base_;
  std::vector<load::OpenLoopDriver::CompletionFn> update_done_;
  std::shared_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// One pass

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct PassResult {
  load::RunRecord record;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> violations;
  double p50_ms = 0;
  double cpu_us_per_op = 0;
};

struct PassConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int setups = 1;
  bool traced = false;
  std::string deploy;
  std::string out;
  std::string name;  ///< record name
};

/// Per-replica accumulation of a counter-like quantity across SIGKILL
/// reincarnations: value(end) - value(start) plus, for every incarnation
/// that was killed, value(just before kill) - value(its start).
struct Accum {
  double before_restarts = 0;
  double base = 0;
  void restart(double last) {
    before_restarts += last - base;
    base = 0;  // a new process counts from zero
  }
  double delta(double end) const { return before_restarts + end - base; }
};

class Pass {
 public:
  explicit Pass(PassConfig cfg) : cfg_(std::move(cfg)), spec_(*cfg_.spec) {}

  PassResult run(SimTime budget_deadline);

 private:
  void violation(std::string what) {
    std::fprintf(stderr, "socket_bench: %s: check failed: %s\n", cfg_.name.c_str(),
                 what.c_str());
    result_.violations.push_back(std::move(what));
  }
  void build_group();
  void set_up();
  void drive(const load::ScheduleOptions& schedule, bool measured);
  void run_window(load::OpenLoopDriver& driver, bool measured);
  void check_counters();
  void audit_checkpoints();
  void compute_end_to_end(const load::OpenLoopDriver& driver,
                          const Issuer& issuer);
  void compute_per_layer(const load::OpenLoopDriver& driver,
                         const Issuer& issuer);

  // Window-start and kill-time bookkeeping for the replica processes.
  struct ReplicaAccount {
    Accum cpu, ctx;
    double cpu_s = 0, ctx_switches = 0;  ///< window totals, set at its end
    double hwm_kb = 0;
    std::map<std::string, Accum> counters;  ///< registry keys (traced only)
    bool restarted = false;
  };
  void account_start();
  void account_kill(std::uint32_t i);
  void account_end();

  PassConfig cfg_;
  const WorkloadSpec& spec_;
  std::string state_dir_;
  std::string config_;
  std::unique_ptr<ReplicaGroup> group_;
  std::unique_ptr<Client> client_;
  PassResult result_;
  std::vector<double> setup_s_;
  double update_base_ = 0;

  // Window measurements.
  double bench_cpu_start_ = 0, bench_cpu_end_ = 0;
  std::vector<ReplicaAccount> accounts_;
  std::vector<Snapshot> start_snap_;
  net::SocketStats sock_start_, sock_end_;
  bft::ClientStats hmi_client_start_, fe_client_start_;
  core::PushVoterStats hmi_voter_start_, fe_voter_start_;
  SimTime window_start_ = 0, window_end_ = 0;
  std::uint32_t kills_ = 0;
};

// Registry keys read as window deltas by the per-layer metrics.
const char* kSnapshotPrefixes[] = {"sources|transport|", "sources|adapter/",
                                   "sources|storage/", "histograms|storage.fsync_ns|count"};

bool is_counter_key(const std::string& key) {
  for (const char* p : kSnapshotPrefixes) {
    if (key.rfind(p, 0) == 0) return true;
  }
  return false;
}

void Pass::build_group() {
  ReplicaGroup::Settings s;
  s.deploy = cfg_.deploy;
  s.config = config_;
  s.log_dir = cfg_.out + "/logs";
  if (spec_.alarms) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", kAlarmThreshold);
    s.env.emplace_back("SS_ALARM_THRESHOLD", buf);
  }
  if (spec_.durable) {
    s.env.emplace_back("SS_STATE_DIR", state_dir_);
    s.env.emplace_back("SS_CHECKPOINT_INTERVAL", "128");
  }
  if (cfg_.traced) s.env.emplace_back("SS_DEPLOY_STATS", "1");
  group_ = std::make_unique<ReplicaGroup>(std::move(s), GroupConfig::for_f(kF).n);
}

void Pass::account_start() {
  bench_cpu_start_ = self_cpu_s();
  accounts_.assign(group_->size(), {});
  for (std::uint32_t i = 0; i < group_->size(); ++i) {
    ReplicaAccount& a = accounts_[i];
    if (auto p = read_proc(group_->pid(i))) {
      a.cpu.base = p->cpu_s;
      a.ctx.base = p->ctx_switches;
    }
    if (cfg_.traced) {
      for (const auto& [key, v] : start_snap_[i]) {
        if (is_counter_key(key)) a.counters[key].base = v;
      }
    }
  }
}

void Pass::account_kill(std::uint32_t i) {
  ReplicaAccount& a = accounts_[i];
  if (auto p = read_proc(group_->pid(i))) {
    a.cpu.restart(p->cpu_s);
    a.ctx.restart(p->ctx_switches);
    a.hwm_kb = std::max(a.hwm_kb, p->hwm_kb);
  }
  if (cfg_.traced) {
    const Snapshot& last = group_->last_snapshot(i);
    for (auto& [key, acc] : a.counters) acc.restart(get(last, key));
    for (const auto& [key, v] : last) {
      if (is_counter_key(key) && !a.counters.count(key)) {
        a.counters[key].restart(v);
      }
    }
  }
  a.restarted = true;
}

void Pass::account_end() {
  bench_cpu_end_ = self_cpu_s();
  for (std::uint32_t i = 0; i < group_->size(); ++i) {
    if (auto p = read_proc(group_->pid(i))) {
      ReplicaAccount& a = accounts_[i];
      a.cpu_s = a.cpu.delta(p->cpu_s);
      a.ctx_switches = a.ctx.delta(p->ctx_switches);
      a.hwm_kb = std::max(a.hwm_kb, p->hwm_kb);
    }
  }
}

PassResult Pass::run(SimTime budget_deadline) {
  fs::create_directories(cfg_.out + "/logs");
  config_ = cfg_.out + "/group.conf";
  state_dir_ = cfg_.out + "/state";
  fs::remove_all(state_dir_);
  {
    // `deploy config` assigns 3 ports per replica and 8 for the clients.
    const std::uint16_t base =
        find_free_ports(static_cast<std::uint16_t>(3 * GroupConfig::for_f(kF).n + 8));
    std::string cmd = cfg_.deploy + " config --f " + std::to_string(kF) +
                      " --base-port " + std::to_string(base);
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("cannot run " + cmd);
    std::string text;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) text.append(buf, n);
    if (::pclose(pipe) != 0 || text.empty()) throw std::runtime_error(cmd + " failed");
    std::ofstream(config_) << text;
  }

  set_up();
  load::ScheduleOptions schedule;
  schedule.shape = load::ArrivalShape::kFixedRate;
  schedule.rate_per_sec = spec_.rate;
  schedule.clients = spec_.clients;
  {
    // Same rate and shape, its own seed stream, discarded.
    load::ScheduleOptions warm = schedule;
    warm.duration = static_cast<SimTime>(kWarmupSeconds * 1e9);
    warm.seed = cfg_.seed ^ 0x9e3779b97f4a7c15ull;
    drive(warm, /*measured=*/false);
  }
  schedule.duration = static_cast<SimTime>(cfg_.seconds * 1e9);
  schedule.seed = cfg_.seed;
  drive(schedule, /*measured=*/true);

  client_.reset();
  group_->terminate();
  if (spec_.durable) audit_checkpoints();

  // The remaining timed set-ups run after the window, on a machine the run
  // has warmed: the first set-up after an idle spell or another workload
  // is slower by a varying amount, and would otherwise decide the median.
  for (int k = 1; k < cfg_.setups; ++k) {
    if (steady_ns() > budget_deadline) throw std::runtime_error("time budget exceeded");
    set_up();
    client_.reset();
  }
  group_.reset();
  fs::remove_all(state_dir_);
  // The shared report writer keeps three decimals: set-up times go in ms.
  result_.record.extras.emplace_back("setup_ms", median(setup_s_) * 1e3);
  for (std::size_t k = 0; k < setup_s_.size(); ++k) {
    result_.record.extras.emplace_back("setup_ms." + std::to_string(k), setup_s_[k] * 1e3);
  }
  for (Metric& m : result_.end_to_end) {
    if (m.name == "setup_s") m.value = median(setup_s_);
  }
  result_.record.extras.emplace_back("correct", result_.violations.empty() ? 1 : 0);
  return std::move(result_);
}

void Pass::set_up() {
  // Spawn of the replicas -> first voted write and field update.
  client_.reset();
  group_.reset();
  fs::remove_all(state_dir_);
  SimTime t0 = steady_ns();
  build_group();
  if (!group_->wait_up(seconds(20))) throw std::runtime_error("replicas never came up");
  client_ = std::make_unique<Client>(config_, cfg_.traced);
  if (!client_->handshake(seconds(20))) {
    throw std::runtime_error("replica group never completed the handshake");
  }
  setup_s_.push_back(static_cast<double>(steady_ns() - t0) / 1e9);
}

void Pass::drive(const load::ScheduleOptions& schedule, bool measured) {
  std::vector<load::Arrival> arrivals = load::generate_schedule(schedule);
  update_base_ += 1e9;  // keeps this run's pushed values apart from the last
  Issuer issuer(spec_, *client_, update_base_, arrivals.size());
  load::DriverOptions driver_opt;
  driver_opt.op_timeout = kOpTimeout;
  load::OpenLoopDriver driver(
      client_->net(), std::move(arrivals),
      [&](const load::Arrival& a, load::OpenLoopDriver::CompletionFn done) {
        issuer.issue(a, driver.epoch(), std::move(done));
      },
      driver_opt);
  if (!measured) {
    driver.start();
    run_window(driver, false);
    if (driver.stats().ok == 0) throw std::runtime_error("warm-up completed no operation");
    return;
  }

  if (cfg_.traced) {
    if (!group_->snapshot_all(client_->socket())) {
      throw std::runtime_error("no registry snapshot at window start");
    }
    start_snap_.clear();
    for (std::uint32_t i = 0; i < group_->size(); ++i) {
      start_snap_.push_back(group_->last_snapshot(i));
    }
    for (const char* stage : {"stage/agreement", "stage/voter"}) {
      obs::Registry::instance().histogram(stage).reset();
    }
    client_->timed()->reset();
  }
  account_start();
  sock_start_ = client_->socket().stats();
  hmi_client_start_ = client_->hmi_proxy().client_stats();
  fe_client_start_ = client_->frontend_proxy().client_stats();
  hmi_voter_start_ = client_->hmi_proxy().voter_stats();
  fe_voter_start_ = client_->frontend_proxy().voter_stats();
  window_start_ = steady_ns();
  driver.start();
  run_window(driver, true);
  window_end_ = steady_ns();
  account_end();
  sock_end_ = client_->socket().stats();

  const load::DriverStats& st = driver.stats();
  if (st.ok + st.failed + st.timeouts != st.scheduled) {
    violation("ok + failed + timeouts != scheduled");
  }
  if (std::string_view(spec_.op) == "update" && st.duplicates != 0) {
    violation(std::to_string(st.duplicates) + " duplicate update deliveries");
  }
  if (st.timeouts == 0 && issuer.samples().size() != st.ok) {
    violation("per-op samples do not match the driver's ok count");
  }
  if (cfg_.traced || !spec_.durable) {
    if (!group_->snapshot_all(client_->socket())) {
      violation("a replica did not answer the SIGUSR1 snapshot");
    }
  }
  if (!spec_.durable) check_counters();

  result_.record = load::RunRecord::from_driver(cfg_.name, spec_.op, schedule, driver);
  compute_end_to_end(driver, issuer);
  if (cfg_.traced) compute_per_layer(driver, issuer);
}

void Pass::run_window(load::OpenLoopDriver& driver, bool measured) {
  net::SocketTransport& sock = client_->socket();
  const bool reincarnate = measured && spec_.proactive_period > 0;
  // Kills at period/2 + k * period into the window, each at least 1 s
  // before its end, round-robin from replica 0 (the view-0 leader). After
  // each view change the next victim is the new leader again.
  std::vector<SimTime> kill_at;
  if (reincarnate) {
    const auto window = static_cast<SimTime>(cfg_.seconds * 1e9);
    for (SimTime t = spec_.proactive_period / 2; t + seconds(1) <= window;
         t += spec_.proactive_period) {
      kill_at.push_back(t);
    }
  }
  std::size_t next_kill = 0;
  std::uint32_t victim = 0;
  SimTime respawn_at = -1;
  bool presnap_sent = false;
  const SimTime start = sock.now();
  SimTime hard_stop = start + static_cast<SimTime>(
                                  (measured ? cfg_.seconds : kWarmupSeconds) * 1e9) +
                      kOpTimeout + seconds(5);
  while (!driver.finished() && sock.now() < hard_stop) {
    sock.run_until([&] { return driver.finished(); }, millis(10));
    if (measured && cfg_.traced) group_->poll_logs();
    if (!reincarnate) continue;
    SimTime rel = sock.now() - start;
    if (respawn_at >= 0 && rel >= respawn_at) {
      group_->respawn(victim);
      respawn_at = -1;
      victim = (victim + 1) % group_->size();
    }
    if (next_kill < kill_at.size() && respawn_at < 0) {
      if (cfg_.traced && !presnap_sent && rel >= kill_at[next_kill] - kPreKillSnapshotLead) {
        group_->request_snapshot(victim);
        presnap_sent = true;
      }
      if (rel >= kill_at[next_kill]) {
        if (cfg_.traced) group_->poll_logs();
        account_kill(victim);
        group_->kill(victim);
        ++kills_;
        ++next_kill;
        presnap_sent = false;
        respawn_at = rel + kRespawnDelay;
      }
    }
  }
  if (respawn_at >= 0) group_->respawn(victim);
}

void Pass::check_counters() {
  // Every replica executed the same decided sequence, so the Adapter's
  // request count and every Master counter agree once the group drained.
  // A replica one batch behind gets a few more chances to catch up.
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::map<std::string, std::vector<double>> by_field;
    for (std::uint32_t i = 0; i < group_->size(); ++i) {
      const std::string prefix = "sources|adapter/" + std::to_string(i) + "|";
      for (const auto& [key, v] : group_->last_snapshot(i)) {
        if (key.rfind(prefix, 0) != 0) continue;
        std::string field = key.substr(prefix.size());
        if (field == "scada_requests" || field.rfind("master.", 0) == 0) {
          by_field[field].push_back(v);
        }
      }
    }
    std::string diverged;
    for (const auto& [field, values] : by_field) {
      if (values.size() != group_->size() ||
          std::adjacent_find(values.begin(), values.end(),
                             std::not_equal_to<>()) != values.end()) {
        diverged = field;
        break;
      }
    }
    if (by_field.empty()) diverged = "(no adapter counters in the snapshots)";
    if (diverged.empty()) return;
    if (attempt == 4 || !group_->snapshot_all(client_->socket())) {
      violation("replica counters diverge after drain: " + diverged);
      return;
    }
  }
}

void Pass::audit_checkpoints() {
  // Read-only, like deploy's own audit: every replica left a loadable
  // (CRC-verified) checkpoint, and checkpoints at one cid carry one digest.
  storage::PosixEnv env;
  std::map<std::uint64_t, crypto::Digest> by_cid;
  for (std::uint32_t i = 0; i < GroupConfig::for_f(kF).n; ++i) {
    storage::CheckpointStore store(env, state_dir_ + "/replica-" + std::to_string(i));
    std::optional<storage::Checkpoint> ckpt = store.load_read_only();
    if (!ckpt.has_value()) {
      violation("replica/" + std::to_string(i) + " left no loadable checkpoint");
      continue;
    }
    auto [it, inserted] = by_cid.try_emplace(ckpt->cid.value, ckpt->app_digest);
    if (!inserted && it->second != ckpt->app_digest) {
      violation("checkpoint digest divergence at cid " +
                std::to_string(ckpt->cid.value));
    }
  }
}

void Pass::compute_end_to_end(const load::OpenLoopDriver& driver,
                              const Issuer& issuer) {
  const load::DriverStats& st = driver.stats();
  const double ok = static_cast<double>(st.ok);
  std::vector<std::int64_t> lat;
  lat.reserve(issuer.samples().size());
  for (const Issuer::Sample& s : issuer.samples()) lat.push_back(s.latency);
  std::sort(lat.begin(), lat.end());

  double replica_cpu = 0;
  double peak_hwm_kb = 0;
  for (const ReplicaAccount& a : accounts_) {
    replica_cpu += a.cpu_s;
    peak_hwm_kb = std::max(peak_hwm_kb, a.hwm_kb);
  }
  const double bench_cpu = bench_cpu_end_ - bench_cpu_start_;

  // Longest stretch with no successful completion while an operation was
  // due: ops sorted by completion; between consecutive completions the gap
  // counts from the later of the first completion and the earliest
  // scheduled time still outstanding.
  std::vector<std::pair<SimTime, SimTime>> done;  // (completion, scheduled)
  for (const Issuer::Sample& s : issuer.samples()) {
    done.emplace_back(s.at + s.latency, s.at);
  }
  std::sort(done.begin(), done.end());
  std::vector<SimTime> pending_min(done.size() + 1,
                                   std::numeric_limits<SimTime>::max());
  for (std::size_t k = done.size(); k-- > 0;) {
    pending_min[k] = std::min(pending_min[k + 1], done[k].second);
  }
  SimTime stall = 0;
  SimTime prev = 0;
  for (std::size_t k = 0; k < done.size(); ++k) {
    stall = std::max(stall, done[k].first - std::max(prev, pending_min[k]));
    prev = done[k].first;
  }

  result_.p50_ms = percentile_sorted(lat, 50) / 1e6;
  result_.cpu_us_per_op = ratio(bench_cpu + replica_cpu, ok) * 1e6;
  const double failed = static_cast<double>(st.failed + st.timeouts);
  result_.end_to_end = {
      {"latency_p50_ms", result_.p50_ms, "ms"},
      {"latency_p99_ms", percentile_sorted(lat, 99) / 1e6, "ms"},
      {"goodput_ops_s", driver.goodput_per_sec(), "ops/s"},
      {"fail_ratio", ratio(failed, static_cast<double>(st.scheduled)), "ratio"},
      {"cpu_us_per_op", result_.cpu_us_per_op, "us"},
      {"peak_rss_mb", peak_hwm_kb / 1024.0, "MB"},
      {"setup_s", 0, "s"},  // filled in once every set-up ran
      {"max_stall_ms", static_cast<double>(stall) / 1e6, "ms"},
  };

  load::RunRecord& r = result_.record;
  for (const Metric& m : result_.end_to_end) {
    if (m.name != "setup_s") r.extras.emplace_back(m.name, m.value);
  }
  r.extras.emplace_back("latency_p999_ms", percentile_sorted(lat, 99.9) / 1e6);
  r.extras.emplace_back("latency_samples", static_cast<double>(lat.size()));
  r.extras.emplace_back("reincarnations", kills_);
  r.extras.emplace_back("window_s", static_cast<double>(window_end_ - window_start_) / 1e9);
  r.extras.emplace_back("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
}

void Pass::compute_per_layer(const load::OpenLoopDriver& driver,
                             const Issuer& issuer) {
  const double ok = static_cast<double>(driver.stats().ok);
  const std::uint32_t n = group_->size();
  std::vector<Metric>& out = result_.per_layer;
  auto add = [&](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };

  // load
  add("load.send_lag_p99_us",
      static_cast<double>(driver.send_lag().percentile(99)) / 1e3, "us");
  {
    // Last / first window p99 over exact samples, windows by scheduled time.
    const double window = std::min(5.0, cfg_.seconds / 2) * 1e9;
    std::vector<std::int64_t> first, last;
    for (const Issuer::Sample& s : issuer.samples()) {
      auto at = static_cast<double>(s.at);
      if (at < window) first.push_back(s.latency);
      if (at >= cfg_.seconds * 1e9 - window) last.push_back(s.latency);
    }
    std::sort(first.begin(), first.end());
    std::sort(last.begin(), last.end());
    add("load.window_p99_drift",
        ratio(percentile_sorted(last, 99), percentile_sorted(first, 99)), "ratio");
  }

  // Bench-side layers through the transport decorator.
  std::map<std::string, double> busy_us;
  for (const auto& [name, ep] : client_->timed()->endpoints()) {
    busy_us[name] = static_cast<double>(ep.handler.ns) / 1e3;
    busy_us[name + ":deferred"] = static_cast<double>(ep.deferred.ns) / 1e3;
  }
  auto busy = [&](std::initializer_list<std::string> keys) {
    double sum = 0;
    for (const std::string& k : keys) sum += busy_us[k];
    return ratio(sum, ok);
  };
  const std::string hmi_client = crypto::client_principal(ClientId{core::kProxyHmiClient});
  const std::string fe_client =
      crypto::client_principal(ClientId{core::kProxyFrontendClient});
  add("load.driver_us_per_op", busy({"bench:deferred"}), "us");

  // process
  double replica_cpu = 0, busiest = 0, ctx = 0;
  for (const ReplicaAccount& a : accounts_) {
    replica_cpu += a.cpu_s;
    busiest = std::max(busiest, a.cpu_s);
    ctx += a.ctx_switches;
  }
  add("proc.bench_cpu_us_per_op", ratio(bench_cpu_end_ - bench_cpu_start_, ok) * 1e6, "us");
  add("proc.replica_cpu_us_per_op", ratio(replica_cpu, ok) * 1e6, "us");
  add("proc.busiest_replica_cpu_us_per_op", ratio(busiest, ok) * 1e6, "us");
  add("proc.replica_ctx_switches_per_op", ratio(ctx, ok), "count");

  // Replica registry deltas over the window, summed over replicas.
  std::vector<Snapshot> end_snap;
  for (std::uint32_t i = 0; i < n; ++i) end_snap.push_back(group_->last_snapshot(i));
  auto delta = [&](std::uint32_t i, const std::string& key) {
    auto it = accounts_[i].counters.find(key);
    double end = get(end_snap[i], key);
    return it == accounts_[i].counters.end() ? end : it->second.delta(end);
  };
  auto sum_delta = [&](const std::string& key) {
    double s = 0;
    for (std::uint32_t i = 0; i < n; ++i) s += delta(i, key);
    return s;
  };
  auto sum_adapter = [&](const std::string& field) {
    double s = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      s += delta(i, "sources|adapter/" + std::to_string(i) + "|" + field);
    }
    return s;
  };
  auto max_adapter = [&](const std::string& field) {
    double m = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      m = std::max(m, delta(i, "sources|adapter/" + std::to_string(i) + "|" + field));
    }
    return m;
  };
  // Lifetime histogram statistics: median over replicas of the end snapshot.
  auto hist = [&](const std::string& name, const char* stat) {
    std::vector<double> v;
    for (std::uint32_t i = 0; i < n; ++i) {
      auto it = end_snap[i].find("histograms|" + name + "|" + stat);
      if (it != end_snap[i].end() && get(end_snap[i], "histograms|" + name + "|count") > 0) {
        v.push_back(it->second);
      }
    }
    return median(v);
  };

  // net
  const std::string t = "sources|transport|";
  const double rx_batches = sum_delta(t + "rx_batches");
  add("net.replica_msgs_sent_per_op", ratio(sum_delta(t + "messages_sent"), ok), "count");
  add("net.replica_bytes_sent_per_op", ratio(sum_delta(t + "bytes_sent"), ok), "bytes");
  add("net.replica_rx_batch_mean", ratio(sum_delta(t + "datagrams_received"), rx_batches), "count");
  add("net.replica_rx_ring_full", sum_delta(t + "rx_ring_full"), "count");
  add("net.replica_timers_fired_per_op", ratio(sum_delta(t + "timers_fired"), ok), "count");
  add("net.bench_msgs_recv_per_op",
      ratio(static_cast<double>(sock_end_.messages_delivered - sock_start_.messages_delivered), ok),
      "count");
  add("net.bench_rx_batch_mean",
      ratio(static_cast<double>(sock_end_.datagrams_received - sock_start_.datagrams_received),
            static_cast<double>(sock_end_.rx_batches - sock_start_.rx_batches)),
      "count");

  // bft
  const obs::Histogram& agreement = obs::Registry::instance().histogram("stage/agreement");
  add("bft.agreement_p50_us", static_cast<double>(agreement.percentile(50)) / 1e3, "us");
  add("bft.agreement_p99_us", static_cast<double>(agreement.percentile(99)) / 1e3, "us");
  {
    // Decided batches per second from the heartbeats seen inside the
    // window; median over replicas (a reincarnated one restarts at 0).
    std::vector<double> rates;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<std::pair<SimTime, double>> in;
      for (const auto& hb : group_->heartbeats(i)) {
        if (hb.first >= window_start_ && hb.first <= window_end_) in.push_back(hb);
      }
      if (in.size() < 2 || in.back().second < in.front().second) continue;
      rates.push_back((in.back().second - in.front().second) /
                      (static_cast<double>(in.back().first - in.front().first) / 1e9));
    }
    const double batches_per_s = median(rates);
    const bft::ClientStats& hc = client_->hmi_proxy().client_stats();
    const bft::ClientStats& fc = client_->frontend_proxy().client_stats();
    const double window_s = static_cast<double>(window_end_ - window_start_) / 1e9;
    const double invoked = static_cast<double>(hc.invoked - hmi_client_start_.invoked +
                                               fc.invoked - fe_client_start_.invoked);
    add("bft.batches_per_s", batches_per_s, "1/s");
    add("bft.ops_per_batch", ratio(invoked / window_s, batches_per_s), "count");
    add("bft.client_retransmits_per_op",
        ratio(static_cast<double>(hc.retransmissions - hmi_client_start_.retransmissions +
                                  fc.retransmissions - fe_client_start_.retransmissions),
              ok),
        "count");
    add("bft.client_shed",
        static_cast<double>(hc.shed - hmi_client_start_.shed + fc.shed - fe_client_start_.shed),
        "count");
  }
  add("bft.client_handler_us_per_op", busy({hmi_client, fe_client}), "us");

  // core
  const obs::Histogram& voter = obs::Registry::instance().histogram("stage/voter");
  add("core.voter_wait_p50_us", static_cast<double>(voter.percentile(50)) / 1e3, "us");
  add("core.voter_wait_p99_us", static_cast<double>(voter.percentile(99)) / 1e3, "us");
  {
    const core::PushVoterStats& hv = client_->hmi_proxy().voter_stats();
    const core::PushVoterStats& fv = client_->frontend_proxy().voter_stats();
    add("core.voter_useful_ratio",
        ratio(static_cast<double>(hv.delivered - hmi_voter_start_.delivered +
                                  fv.delivered - fe_voter_start_.delivered),
              static_cast<double>(hv.offered - hmi_voter_start_.offered + fv.offered -
                                  fe_voter_start_.offered)),
        "ratio");
  }
  add("core.voter_handler_us_per_op", busy({hmi_client + ":deferred", fe_client + ":deferred"}),
      "us");
  add("core.proxy_handler_us_per_op",
      busy({core::kProxyHmiEndpoint, std::string(core::kProxyHmiEndpoint) + ":deferred",
            core::kProxyFrontendEndpoint,
            std::string(core::kProxyFrontendEndpoint) + ":deferred"}),
      "us");
  add("core.adapter_self_us", (hist("stage/adapter", "mean") - hist("stage/master", "mean")) / 1e3,
      "us");
  add("core.adapter_timeouts_armed_per_op", ratio(sum_adapter("timeouts_armed"), ok), "count");
  add("core.adapter_timeout_injections", sum_adapter("timeout_injections"), "count");

  // scada
  add("scada.master_p50_us", hist("stage/master", "p50") / 1e3, "us");
  add("scada.master_p99_us", hist("stage/master", "p99") / 1e3, "us");
  add("scada.events_created_per_op", ratio(max_adapter("master.events_created"), ok), "count");
  {
    // Rebuild the Master as `deploy replica` configures it, feed it as many
    // item updates as the replicas processed, and time snapshot() — the
    // encode every checkpoint pays.
    double updates = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      updates = std::max(updates, get(end_snap[i], "sources|adapter/" + std::to_string(i) +
                                                       "|master.updates_processed"));
    }
    scada::MasterOptions mo;
    mo.deterministic = true;
    scada::ScadaMaster master(std::move(mo));
    ItemId temperature = master.add_item(kTemperatureName);
    master.add_item(kSetpointName);
    if (spec_.alarms) {
      master.handlers(temperature)
          .emplace<scada::MonitorHandler>(scada::MonitorHandler::Condition::kAbove,
                                          kAlarmThreshold);
    }
    const auto count = static_cast<std::uint64_t>(updates);
    for (std::uint64_t k = 0; k < count; ++k) {
      scada::ItemUpdate u;
      u.ctx.op = OpId{k + 1};
      u.ctx.cid = ConsensusId{k + 1};
      u.ctx.timestamp = static_cast<SimTime>(k + 1) * 1000;
      u.item = temperature;
      u.value = scada::Variant{1e9 + static_cast<double>(k)};
      master.handle(scada::ScadaMessage{u}, u.ctx, core::kFrontendEndpoint);
    }
    std::vector<double> us;
    std::size_t bytes = 0;
    for (int k = 0; k < 5; ++k) {
      SimTime t0 = steady_ns();
      bytes = master.snapshot().size();
      us.push_back(static_cast<double>(steady_ns() - t0) / 1e3);
    }
    add("scada.snapshot_us_at_end", median(us), "us");
    result_.record.extras.emplace_back("scada.snapshot_bytes_at_end",
                                       static_cast<double>(bytes));
  }
  add("scada.hmi_handler_us_per_op",
      busy({core::kHmiEndpoint, std::string(core::kHmiEndpoint) + ":deferred"}), "us");
  add("scada.frontend_handler_us_per_op",
      busy({core::kFrontendEndpoint, std::string(core::kFrontendEndpoint) + ":deferred"}), "us");

  // storage
  add("storage.fsync_p50_us", hist("storage.fsync_ns", "p50") / 1e3, "us");
  add("storage.fsync_p99_us", hist("storage.fsync_ns", "p99") / 1e3, "us");
  add("storage.fsyncs_per_op", ratio(sum_delta("histograms|storage.fsync_ns|count"), ok), "count");
  {
    double ckpts = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      ckpts += delta(i, "sources|storage/replica-" + std::to_string(i) + "|checkpoints_written");
    }
    add("storage.checkpoints_written", ckpts, "count");
    std::vector<double> recovery;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (accounts_[i].restarted) {
        recovery.push_back(get(end_snap[i], "histograms|storage.recovery_ns|max") / 1e6);
      }
    }
    add("storage.recovery_ms", median(recovery), "ms");
  }

  for (const Metric& m : out) result_.record.extras.emplace_back(m.name, m.value);
  result_.record.extras.emplace_back("replica_histograms_cover_lifetime", 1);
}

int usage() {
  std::fprintf(stderr,
               "usage: socket_bench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                    --deploy PATH --out DIR\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

void print_metrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.9g %s\n", m.name.c_str(), workload.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, deploy, out;
  std::uint64_t seed = 0, trace = 0;
  double secs = -1;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      ok = parse_u64(v, seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      ok = parse_seconds(v, secs) && secs >= 1;
    } else if (flag == "--trace") {
      ok = parse_u64(v, trace) && trace <= 1;
      have_trace = true;
    } else if (flag == "--deploy") {
      deploy = v;
    } else if (flag == "--out") {
      out = v;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "socket_bench: bad value for %s: %s\n", flag.c_str(), v);
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || secs < 0 || !have_seed || !have_trace || deploy.empty() ||
      out.empty()) {
    return usage();
  }
  // The replicas inherit this environment; only the knobs each workload
  // sets may reach them.
  for (const char* var :
       {"SS_STATE_DIR", "SS_CHECKPOINT_INTERVAL", "SS_ALARM_THRESHOLD", "SS_DEPLOY_STATS",
        "SS_METRICS_PERIOD", "SS_TRACE_DIR", "SS_PROTOCOL", "SS_RUNNER", "SS_RX_BATCH",
        "SS_BUSY_POLL", "SS_LOG", "SS_PROACTIVE_PERIOD"}) {
    ::unsetenv(var);
  }
  ::signal(SIGPIPE, SIG_IGN);

  const SimTime deadline = steady_ns() + kBudget;
  load::LoadReport report("scadabench");
  std::vector<std::string> violations;
  int code = 0;
  try {
    PassConfig base;
    base.spec = spec;
    base.seed = seed;
    base.seconds = secs;
    base.deploy = deploy;

    PassConfig plain = base;
    plain.setups = trace ? 1 : kSetups;
    plain.out = out + "/untraced";
    plain.name = workload + (trace ? "/reference" : "");
    PassResult untraced = Pass(plain).run(deadline);
    print_metrics(workload, untraced.end_to_end);
    violations = untraced.violations;
    const load::DriverStats st = untraced.record.stats;
    std::uint64_t attempted = st.scheduled;
    std::uint64_t failed = st.failed + st.timeouts;
    load::LoadReport::print(untraced.record);
    report.add(std::move(untraced.record));

    if (trace) {
      PassConfig traced_cfg = base;
      traced_cfg.setups = 1;
      traced_cfg.traced = true;
      traced_cfg.out = out + "/traced";
      traced_cfg.name = workload + "/traced";
      PassResult traced = Pass(traced_cfg).run(deadline);
      for (const Metric& m :
           {Metric{"trace.overhead_p50_ratio", ratio(traced.p50_ms, untraced.p50_ms), "ratio"},
            Metric{"trace.overhead_cpu_ratio",
                   ratio(traced.cpu_us_per_op, untraced.cpu_us_per_op), "ratio"}}) {
        traced.per_layer.push_back(m);
        traced.record.extras.emplace_back(m.name, m.value);
      }
      print_metrics(workload, traced.per_layer);
      violations.insert(violations.end(), traced.violations.begin(), traced.violations.end());
      attempted += traced.record.stats.scheduled;
      failed += traced.record.stats.failed + traced.record.stats.timeouts;
      load::LoadReport::print(traced.record);
      report.add(std::move(traced.record));
    }
    report.write(out);
    std::printf("summary %s %d %llu %llu\n", workload.c_str(), violations.empty() ? 1 : 0,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    code = violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "socket_bench: %s\n", e.what());
    code = 1;
  }
  return code;
}
