// Multi-process SMaRt-SCADA deployment over real UDP sockets.
//
// Launches one OS process per role — n = 3f+1 replicas (each a ProxyMaster:
// BFT replica + Adapter + deterministic SCADA Master), a Frontend (with its
// ProxyFrontend and Modbus field driver), an HMI (with its ProxyHMI), and a
// simulated RTU — all wired through net::SocketTransport and a shared
// name -> host:port config file. The exact component classes that run on
// the deterministic simulator run here unchanged; only the Transport
// backend differs.
//
// Usage:
//   deploy local [--f N] [--base-port P]   orchestrate everything on
//                                          localhost; exits 0 when the HMI
//                                          completes both paper use cases
//     [--supervise]                        restart replica processes that
//                                          die (exponential backoff, bounded
//                                          retries); implies a durable state
//                                          dir so restarts recover from disk
//     [--kill-replica I --kill-after MS]   with --supervise: SIGKILL replica
//                                          I after MS ms — the crash-restart
//                                          smoke test
//     [--rounds N]                         N extra HMI write rounds, so
//                                          there is load during the window
//
// Any role dumps its flight recorder to stderr on SIGUSR2 (and metrics +
// flight recorder on SIGUSR1) — inspect a stuck run without killing it.
//   deploy config --f N --base-port P      print the generated config file
//   deploy replica --id I --f N --config FILE
//   deploy frontend --f N --config FILE
//   deploy hmi --f N --config FILE [--rounds N]
//   deploy rtu --config FILE
//
// With SS_STATE_DIR=<dir> each replica keeps a WAL + checkpoint under
// <dir>/replica-<id> (fsync'd before decisions execute) and recovers from
// it on startup; SS_CHECKPOINT_INTERVAL overrides the checkpoint period.
// With SS_PROACTIVE_PERIOD=<ms> the --supervise loop also reincarnates one
// replica per period round-robin (core::Supervisor holds the policy).
// Every role is one single-threaded process (DESIGN.md §13): a replica
// verifies, orders, executes and signs on its poll loop, like the paper's
// SMaRt-SCADA Master.
//
// The HMI process drives the paper's two §IV-E use cases end-to-end and is
// the deployment's exit status: an Item update (RTU sensor -> Frontend ->
// Byzantine agreement -> voted push -> HMI) and a Write value (HMI ->
// agreement -> Frontend -> RTU -> WriteResult back through agreement).
#include <dirent.h>
#include <signal.h>
#include <strings.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/logging.h"
#include "core/assembly.h"
#include "core/launcher.h"
#include "core/plant.h"
#include "core/supervisor.h"
#include "crypto/keychain.h"
#include "net/resolver.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "rtu/driver.h"
#include "rtu/rtu.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/replica_storage.h"

using namespace ss;
namespace plant = ss::core::plant;

namespace {

volatile sig_atomic_t g_stop = 0;
volatile sig_atomic_t g_snapshot = 0;
volatile sig_atomic_t g_dump = 0;
void handle_stop(int) { g_stop = 1; }
void handle_snapshot(int) { g_snapshot = 1; }
void handle_dump(int) { g_dump = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage: deploy local [--f N] [--base-port P] [--supervise]\n"
      "                    [--kill-replica I] [--kill-after MS] [--rounds N]\n"
      "                    (--kill-replica needs --supervise)\n"
      "       deploy config [--f N] [--base-port P]\n"
      "       deploy replica --id I [--f N] --config FILE\n"
      "       deploy frontend [--f N] --config FILE\n"
      "       deploy hmi [--f N] --config FILE [--rounds N]\n"
      "       deploy rtu --config FILE\n"
      "env:   SS_PROTOCOL=pbft|minbft       agreement engine (3f+1 or 2f+1)\n"
      "       SS_STATE_DIR=<dir>            durable replica state (WAL +\n"
      "                                     checkpoints) under <dir>/replica-<id>\n"
      "       SS_CHECKPOINT_INTERVAL=<n>    checkpoint every n decisions\n"
      "       SS_PROACTIVE_PERIOD=<ms>      with --supervise: reincarnate one\n"
      "                                     replica per period round-robin\n"
      "                                     (durable reboot + fresh key epoch)\n"
      "       SS_ALARM_THRESHOLD=<v>        attach a Monitor (alarm above v)\n"
      "                                     to the temperature point\n"
      "       SS_METRICS_PERIOD=<s>         dump metrics every s seconds\n"
      "       SS_RX_BATCH=<n>               datagrams per recvmmsg call, 1-1024\n"
      "                                     (default 32; 1 = recvfrom)\n"
      "       SS_LOG=<level>                trace|debug|info|warn|error|off\n"
      "                                     (default warn)\n");
  return 2;
}

/// `v` as a base-10 integer in [lo, hi]. Anything else (empty, trailing
/// junk, overflow, out of range) exits through usage(): a malformed numeric
/// flag or environment value is a usage error, never a silent 0 or a
/// wrapped value.
long parse_int(const char* v, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < lo || n > hi) {
    std::exit(usage());
  }
  return n;
}

/// The numeric environment settings, checked like the numeric flags.
struct EnvSettings {
  long checkpoint_interval = 0;  ///< SS_CHECKPOINT_INTERVAL; 0: the default
  long metrics_period_s = 0;     ///< SS_METRICS_PERIOD; 0: no periodic dump
  long proactive_period_ms = 0;  ///< SS_PROACTIVE_PERIOD; 0: no reincarnation
  std::optional<double> alarm_threshold;  ///< SS_ALARM_THRESHOLD
};

/// Parsed once, on first use; main() asks before any role starts, so a
/// malformed value exits through usage() before anything is spawned.
const EnvSettings& env_settings() {
  static const EnvSettings settings = [] {
    auto integer = [](const char* name, long lo, long hi) {
      const char* v = std::getenv(name);
      return v == nullptr ? 0 : parse_int(v, lo, hi);
    };
    EnvSettings env;
    env.checkpoint_interval =
        integer("SS_CHECKPOINT_INTERVAL", 1, 1'000'000'000);
    env.metrics_period_s = integer("SS_METRICS_PERIOD", 0, 86'400);
    env.proactive_period_ms = integer("SS_PROACTIVE_PERIOD", 0, 86'400'000);
    if (const char* v = std::getenv("SS_ALARM_THRESHOLD")) {
      char* end = nullptr;
      errno = 0;
      const double threshold = std::strtod(v, &end);
      if (end == v || *end != '\0' || errno == ERANGE ||
          !std::isfinite(threshold)) {
        std::exit(usage());
      }
      env.alarm_threshold = threshold;
    }
    return env;
  }();
  return settings;
}

void install_stop_handler() {
  struct sigaction sa{};
  sa.sa_handler = handle_stop;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = handle_snapshot;
  sigaction(SIGUSR1, &sa, nullptr);
  // SIGUSR2: on-demand flight-recorder dump — inspect a stuck soak without
  // killing the process (the dump happens on the observability poll).
  sa.sa_handler = handle_dump;
  sigaction(SIGUSR2, &sa, nullptr);
}

void crash_dump(int sig) {
  // Not async-signal-safe, but the process is going down anyway: a
  // best-effort dump of the flight recorder is worth far more than a silent
  // core. Default disposition is restored before re-raising so the exit
  // status still reflects the crash.
  obs::FlightRecorder::instance().dump(stderr);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_crash_handlers() {
  struct sigaction sa{};
  sa.sa_handler = crash_dump;
  sigaction(SIGSEGV, &sa, nullptr);
  sigaction(SIGABRT, &sa, nullptr);
  sigaction(SIGBUS, &sa, nullptr);
}

/// With SS_TRACE_DIR set (run_local sets it for every child), writes this
/// process's completed spans to <dir>/trace-<tag>.jsonl on the way out; the
/// orchestrator merges the per-process files into one op timeline.
void dump_traces(const std::string& tag) {
  const char* dir = std::getenv("SS_TRACE_DIR");
  if (dir == nullptr) return;
  std::string file = tag;
  std::replace(file.begin(), file.end(), '/', '-');
  std::string path = std::string(dir) + "/trace-" + file + ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  obs::Tracer::instance().dump_jsonl(out);
  std::fclose(out);
}

/// Scope guard: dumps traces and detaches the tracer clock on every exit
/// path of a role (normal return, HMI failure return, exception unwind).
struct ObsTeardown {
  explicit ObsTeardown(std::string role) : tag(std::move(role)) {}
  ObsTeardown(const ObsTeardown&) = delete;
  ObsTeardown& operator=(const ObsTeardown&) = delete;
  ~ObsTeardown() {
    dump_traces(tag);
    obs::Tracer::instance().set_clock(nullptr);
  }
  std::string tag;
};

/// Runs `action` every `period` on the transport's loop for as long as the
/// transport lives. Each firing schedules a fresh closure, so no callback
/// owns itself and the last one is freed with the transport's timers.
void schedule_every(net::SocketTransport& transport, SimTime period,
                    std::function<void()> action) {
  transport.schedule(period, [&transport, period,
                              action = std::move(action)]() mutable {
    action();
    schedule_every(transport, period, std::move(action));
  });
}

/// Per-role observability: tracer clock on the transport, log capture into
/// the flight recorder, crash dump handlers, a SIGUSR1-triggered metrics
/// snapshot, and (with SS_METRICS_PERIOD=N) a periodic JSON metrics dump.
/// The role keeps only the spans its flight recorder can print (a dump shows
/// at most FlightRecorder::capacity() events), so the trace file written at
/// exit holds that many newest spans too. The role holds the returned guard
/// for as long as it runs.
[[nodiscard]] ObsTeardown setup_observability(net::SocketTransport& transport,
                                              const std::string& tag) {
  obs::Tracer::instance().set_capacity(
      obs::FlightRecorder::instance().capacity());
  obs::Tracer::instance().set_clock([&transport] { return transport.now(); });
  obs::FlightRecorder::instance().capture_logs();
  install_crash_handlers();
  // Every dump reports what this role costs in memory (obs/process.h).
  static const obs::SourceHandle process_source = obs::add_process_source();

  schedule_every(transport, millis(250), [tag] {
    if (g_snapshot) {
      g_snapshot = 0;
      std::fprintf(stderr, "[%s] metrics snapshot: ", tag.c_str());
      obs::Registry::instance().dump_json(stderr);
      std::fputc('\n', stderr);
      obs::FlightRecorder::instance().dump(stderr);
    }
    if (g_dump) {
      g_dump = 0;
      std::fprintf(stderr, "[%s] flight recorder (SIGUSR2):\n", tag.c_str());
      obs::FlightRecorder::instance().dump(stderr);
    }
  });

  if (const long period = env_settings().metrics_period_s; period > 0) {
    schedule_every(transport, seconds(period), [tag] {
      std::fprintf(stderr, "[%s] metrics: ", tag.c_str());
      obs::Registry::instance().dump_json(stderr);
      std::fputc('\n', stderr);
    });
  }
  return ObsTeardown{tag};
}

/// A role's transport on the deployment's config file; SIGTERM and SIGINT
/// stop it, SIGUSR1 and SIGUSR2 dump what it holds.
net::SocketTransport make_transport(const std::string& config) {
  install_stop_handler();
  return net::SocketTransport(net::Resolver::from_file(config),
                              net::socket_options_from_env());
}

void serve(net::SocketTransport& transport) {
  transport.set_interrupt_check([] { return g_stop != 0; });
  transport.run();
}

/// With SS_DEPLOY_STATS set, prints transport counters every 2 s (debug aid
/// for multi-process runs, where no single process sees the whole picture).
void arm_stats_heartbeat(net::SocketTransport& transport,
                         const std::string& tag,
                         const std::function<std::string()>& extra = {}) {
  if (std::getenv("SS_DEPLOY_STATS") == nullptr) return;
  schedule_every(transport, seconds(2), [&transport, tag, extra] {
    const net::SocketStats& s = transport.stats();
    std::fprintf(stderr,
                 "[%s] sent=%llu recv=%llu delivered=%llu decode_err=%llu "
                 "unresolved=%llu misdirected=%llu send_err=%llu%s\n",
                 tag.c_str(), (unsigned long long)s.messages_sent,
                 (unsigned long long)s.datagrams_received,
                 (unsigned long long)s.messages_delivered,
                 (unsigned long long)s.decode_errors,
                 (unsigned long long)s.unresolved_drops,
                 (unsigned long long)s.misdirected,
                 (unsigned long long)s.send_errors,
                 extra ? (" " + extra()).c_str() : "");
  });
}

// ---------------------------------------------------------------------------
// Roles

int run_replica(const std::string& config, GroupConfig group,
                std::uint32_t id) {
  net::SocketTransport transport = make_transport(config);
  // Before recovery: replaying the WAL already records spans, and the Tracer
  // should take its final capacity before its ring is first filled.
  const std::string tag = "replica/" + std::to_string(id);
  ObsTeardown teardown = setup_observability(transport, tag);
  crypto::Keychain keys(plant::kGroupSecret);

  bft::ReplicaOptions replica_options;  // zero CPU costs: real CPUs are real
  if (const long interval = env_settings().checkpoint_interval; interval > 0) {
    replica_options.checkpoint_interval = static_cast<std::uint64_t>(interval);
  }
  // Declared (and with SS_STATE_DIR, constructed) before the replica: the
  // storage must outlive it, and it must be present at construction — the
  // MinBFT engine reads its durable USIG counter lease before the first
  // message, so the deprecated set_storage shim would be too late.
  storage::PosixEnv storage_env;
  std::unique_ptr<storage::ReplicaStorage> storage;
  if (const char* state_root = std::getenv("SS_STATE_DIR")) {
    const std::string dir = "replica-" + std::to_string(id);
    storage = std::make_unique<storage::ReplicaStorage>(
        storage_env, std::string(state_root) + "/" + dir, "storage/" + dir);
    replica_options.storage = storage.get();
  }
  core::ProxyMaster stack(transport, group, ReplicaId{id}, keys, {}, {},
                          replica_options);
  // SS_ALARM_THRESHOLD attaches a Monitor to the temperature point, so the
  // AE subsystem (alarm persisted + EventUpdate pushed to the HMI) is live
  // in socket mode — the fig8b alarm-storm bench drives this path.
  plant::add_points(stack.master, env_settings().alarm_threshold);
  bft::Replica& replica = stack.replica;

  // With SS_STATE_DIR set, every decided batch hits an fsync'd WAL before it
  // executes and checkpoints go to disk; a restarted process rebuilds its
  // state from those files first and only asks the peers for the suffix it
  // missed while down.
  if (storage != nullptr) {
    replica.recover_from_storage();
    // Every process start is a reincarnation: derive fresh session keys by
    // bumping the durable key epoch. Peers accept the previous epoch for a
    // bounded handover window, then reject it — anything signed with keys
    // stolen before this restart stops verifying.
    replica.set_key_epoch(storage->bump_epoch());
    if (replica.last_decided().value > 0) {
      std::fprintf(stderr, "[replica/%u] recovered to cid=%llu from %s\n", id,
                   static_cast<unsigned long long>(replica.last_decided().value),
                   storage->dir().c_str());
    }
    std::fprintf(stderr, "[replica/%u] key epoch %u\n", id,
                 replica.key_epoch());
    replica.request_state_transfer();
  }

  std::fprintf(stderr, "[replica/%u] up\n", id);
  arm_stats_heartbeat(transport, tag, [&] {
    return "decided=" + std::to_string(replica.stats().batches_decided);
  });
  serve(transport);
  // Graceful TERM: persist the final frontier so the next start replays
  // nothing (and so the orchestrator can audit cross-replica digests).
  if (storage != nullptr) replica.checkpoint_now();
  return 0;
}

int run_frontend(const std::string& config, GroupConfig group) {
  net::SocketTransport transport = make_transport(config);
  crypto::Keychain keys(plant::kGroupSecret);
  core::FrontendSide side(transport, keys, group);
  plant::add_points(side.frontend);

  rtu::RtuDriver driver(transport, side.frontend,
                        rtu::DriverOptions{.poll_period = millis(100)});
  plant::bind_registers(driver);
  driver.start();

  ObsTeardown teardown = setup_observability(transport, "frontend");
  std::fprintf(stderr, "[frontend] up\n");
  arm_stats_heartbeat(transport, "frontend", [&] {
    return "polls=" + std::to_string(driver.counters().polls_sent) +
           " responses=" + std::to_string(driver.counters().poll_responses) +
           " changes=" + std::to_string(driver.counters().changes_reported);
  });
  serve(transport);
  return 0;
}

int run_rtu(const std::string& config) {
  net::SocketTransport transport = make_transport(config);

  rtu::Rtu rtu(transport, plant::kRtuEndpoint,
               rtu::RtuOptions{.sample_period = millis(100)});
  plant::add_registers(rtu);
  rtu.start();

  ObsTeardown teardown = setup_observability(transport, plant::kRtuEndpoint);
  std::fprintf(stderr, "[rtu/0] up\n");
  serve(transport);
  return 0;
}

int run_hmi(const std::string& config, GroupConfig group,
            std::uint32_t rounds) {
  net::SocketTransport transport = make_transport(config);
  crypto::Keychain keys(plant::kGroupSecret);
  core::HmiSide side(transport, keys, group);
  scada::Hmi& hmi = side.hmi;
  transport.set_interrupt_check([] { return g_stop != 0; });
  ObsTeardown teardown = setup_observability(transport, "hmi");

  // Use case 1 — Item update: subscribe, then wait for the RTU's
  // temperature to arrive through Byzantine agreement and the f+1 voter.
  hmi.subscribe_all();
  bool updated = transport.run_until(
      [&] {
        const scada::Item* item = hmi.item(plant::kTemperature);
        return item != nullptr && item->quality == scada::Quality::kGood;
      },
      seconds(30));
  if (!updated) {
    std::fprintf(stderr, "[hmi] FAIL: no item update within 30s\n");
    return 1;
  }
  std::printf("[hmi] item update: temperature = %s\n",
              hmi.item(plant::kTemperature)->value.debug_string().c_str());

  // Use case 2 — Write value: operator write ordered through agreement,
  // executed on the RTU, result voted back. Returns what went wrong, or
  // nullptr once the write committed.
  auto write_setpoint = [&](double value) -> const char* {
    bool done = false;
    bool ok = false;
    hmi.write(plant::kSetpoint, scada::Variant{value},
              [&](const scada::WriteResult& result) {
                done = true;
                ok = result.status == scada::WriteStatus::kOk;
              });
    transport.run_until([&] { return done; }, seconds(30));
    return !done ? "timed out after 30s" : ok ? nullptr : "rejected";
  };
  if (const char* failure = write_setpoint(42.0)) {
    std::fprintf(stderr, "[hmi] FAIL: write %s\n", failure);
    return 1;
  }
  std::printf("[hmi] write value: setpoint = 42 committed\n");

  // Extra paced write rounds: sustained load for the crash-restart smoke
  // test, where a replica is SIGKILLed and supervised back mid-run. Every
  // round must still commit — f=1 tolerates the one missing replica, and
  // the restarted one rejoins from disk.
  for (std::uint32_t round = 1; round <= rounds; ++round) {
    if (const char* failure = write_setpoint(42.0 + round)) {
      std::fprintf(stderr, "[hmi] FAIL: write round %u %s\n", round, failure);
      return 1;
    }
    transport.run_until([] { return false; }, millis(250));
  }
  if (rounds > 0) {
    std::printf("[hmi] %u extra write rounds committed\n", rounds);
  }
  std::printf("[hmi] both use cases completed over UDP\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Trace aggregation (orchestrator side)

/// The names in `dir` but "." and ".."; none when it cannot be opened.
std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  return names;
}

struct TraceSpan {
  std::uint64_t op = 0;
  std::string stage;
  std::string component;
  long long dur_ns = 0;
};

bool extract_str(std::string_view line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  pos += needle.size();
  const std::size_t close = line.find('"', pos);
  if (close == std::string_view::npos) return false;
  out = line.substr(pos, close - pos);
  return true;
}

bool extract_num(std::string_view line, const char* key, long long& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  const char* begin = line.data() + pos + needle.size();
  out = 0;
  std::from_chars(begin, line.data() + line.size(), out);
  return true;
}

/// The spans of every trace-* file in `dir`. A file that cannot be read
/// is reported and skipped: the merge is a diagnostic, not the run's
/// verdict.
std::vector<TraceSpan> load_trace_dir(const std::string& dir) {
  std::vector<TraceSpan> spans;
  for (const std::string& name : list_dir(dir)) {
    if (name.rfind("trace-", 0) != 0) continue;
    std::optional<Bytes> file;
    try {
      file = read_whole_file(dir + "/" + name);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "deploy: skipping trace file: %s\n", e.what());
    }
    if (!file) continue;
    const std::string contents = string_of(*file);
    std::string_view text = contents;
    while (!text.empty()) {
      const std::size_t eol = std::min(text.find('\n'), text.size());
      const std::string_view line = text.substr(0, eol);
      text.remove_prefix(std::min(eol + 1, text.size()));
      TraceSpan s;
      long long op = 0;
      if (!extract_num(line, "op", op)) continue;
      if (!extract_str(line, "stage", s.stage)) continue;
      s.op = static_cast<std::uint64_t>(op);
      extract_str(line, "component", s.component);
      extract_num(line, "dur_ns", s.dur_ns);
      spans.push_back(std::move(s));
    }
  }
  return spans;
}

/// Prints the cross-process timeline of one operator write: the HMI-minted
/// op (instance id 2, the high OpId bits) that traversed the most distinct
/// stages. Per-process clocks are unrelated, so spans are listed in the
/// canonical stage order with per-stage durations rather than merged onto
/// one time axis.
void print_write_timeline(const std::vector<TraceSpan>& spans) {
  static const char* kStageOrder[] = {"hmi",     "agreement", "master",
                                      "adapter", "rtu",       "frontend",
                                      "voter"};
  std::map<std::uint64_t, std::vector<const TraceSpan*>> by_op;
  for (const TraceSpan& s : spans) {
    if ((s.op >> 40) == 2) by_op[s.op].push_back(&s);
  }
  const std::vector<const TraceSpan*>* best = nullptr;
  std::uint64_t best_op = 0;
  std::size_t best_stages = 0;
  for (const auto& [op, list] : by_op) {
    std::vector<std::string> stages;
    for (const TraceSpan* s : list) stages.push_back(s->stage);
    std::sort(stages.begin(), stages.end());
    stages.erase(std::unique(stages.begin(), stages.end()), stages.end());
    if (stages.size() > best_stages) {
      best_stages = stages.size();
      best = &list;
      best_op = op;
    }
  }
  if (best == nullptr) {
    std::printf("deploy: no HMI-minted op traces found\n");
    return;
  }
  std::printf("deploy: write op %llu timeline (%zu spans, %zu stages):\n",
              static_cast<unsigned long long>(best_op), best->size(),
              best_stages);
  for (const char* stage : kStageOrder) {
    for (const TraceSpan* s : *best) {
      if (s->stage != stage) continue;
      std::printf("  %-9s %-18s %9.3f ms\n", stage,
                  s->component.empty() ? "-" : s->component.c_str(),
                  static_cast<double>(s->dur_ns) / 1e6);
    }
  }
}

// ---------------------------------------------------------------------------
// Orchestrator

/// Orchestrator-side audit of the durable state the replicas left behind:
/// every replica dir must hold a loadable (CRC-verified) checkpoint, and
/// checkpoints at the same cid must carry the same application digest — the
/// same invariant the chaos engine's checker enforces in simulation. The
/// audit is strictly read-only (load_read_only): when SS_STATE_DIR is kept
/// for inspection, a leftover snapshot.tmp is evidence of an interrupted
/// checkpoint write and must survive the audit.
/// Returns the (possibly demoted) exit code.
int audit_state_dirs(const std::string& root, std::uint32_t n, int code) {
  storage::PosixEnv env;
  std::map<std::uint64_t, std::pair<crypto::Digest, std::uint32_t>> by_cid;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string dir = root + "/replica-" + std::to_string(i);
    storage::CheckpointStore store(env, dir);
    if (env.file_exists(dir + "/snapshot.tmp")) {
      std::printf(
          "deploy: replica/%u left a snapshot.tmp (interrupted checkpoint "
          "write); keeping it for inspection\n",
          i);
    }
    std::optional<storage::Checkpoint> ckpt = store.load_read_only();
    if (!ckpt.has_value()) {
      std::fprintf(stderr,
                   "deploy: replica/%u left no loadable checkpoint under %s\n",
                   i, root.c_str());
      code = 1;
      continue;
    }
    std::printf("deploy: replica/%u on-disk checkpoint cid=%llu\n", i,
                static_cast<unsigned long long>(ckpt->cid.value));
    auto [it, inserted] = by_cid.try_emplace(
        ckpt->cid.value, std::make_pair(ckpt->app_digest, i));
    if (!inserted && it->second.first != ckpt->app_digest) {
      std::fprintf(stderr,
                   "deploy: checkpoint digest divergence at cid=%llu between "
                   "replica/%u and replica/%u\n",
                   static_cast<unsigned long long>(ckpt->cid.value),
                   it->second.second, i);
      code = 1;
    }
  }
  return code;
}

/// Removes `dir`, which `deploy local` made, with everything in it.
void remove_dir(const std::string& dir) {
  for (const std::string& name : list_dir(dir)) {
    const std::string path = dir + "/" + name;
    if (::unlink(path.c_str()) != 0 && errno == EISDIR) remove_dir(path);
  }
  ::rmdir(dir.c_str());
}

struct SuperviseOptions {
  bool enabled = false;
  int kill_replica = -1;     ///< SIGKILL this replica once...
  long kill_after_ms = 1500; ///< ...this long after launch
  std::uint32_t rounds = 0;  ///< extra HMI write rounds (load for the window)
};

/// Starts every role as a child of this binary, supervises the replicas
/// when asked, and returns the HMI's exit code; the launcher then stops and
/// reaps the other roles.
int run_roles(const char* self, const GroupConfig& group,
              const std::string& config, const SuperviseOptions& sup) {
  core::Launcher launcher("/proc/self/exe", self);
  const std::string fs = std::to_string(group.f);
  launcher.spawn({"rtu", "--config", config});
  std::vector<pid_t> replica_pid(group.n, -1);
  auto spawn_replica = [&](std::uint32_t i) {
    replica_pid[i] = launcher.spawn({"replica", "--id", std::to_string(i),
                                     "--f", fs, "--config", config});
  };
  for (std::uint32_t i = 0; i < group.n; ++i) spawn_replica(i);
  launcher.spawn({"frontend", "--f", fs, "--config", config});

  // Give servers a beat to bind before the HMI starts asking questions
  // (requests are retransmitted anyway; this just avoids burning retries).
  ::usleep(300 * 1000);
  std::vector<std::string> hmi_args = {"hmi", "--f", fs, "--config", config};
  if (sup.rounds > 0) {
    hmi_args.push_back("--rounds");
    hmi_args.push_back(std::to_string(sup.rounds));
  }
  const pid_t hmi = launcher.spawn(hmi_args);

  int status = 0;
  if (!sup.enabled) {
    status = launcher.wait(hmi);
  } else {
    // The supervisor: a thin fork/kill/waitpid loop around core::Supervisor,
    // which decides every restart (exponential backoff, bounded attempts per
    // crash burst) and, with SS_PROACTIVE_PERIOD, every proactive
    // reincarnation. --kill-replica is a one-shot crash on top, charged to
    // the victim's restart budget like any other. The HMI's exit ends the
    // run.
    const long proactive_period_ms = env_settings().proactive_period_ms;
    core::Supervisor supervisor(group.n, proactive_period_ms);
    long elapsed_ms = 0;
    bool kill_fired = sup.kill_replica < 0;
    bool hmi_done = false;
    while (!hmi_done) {
      ::usleep(50 * 1000);
      elapsed_ms += 50;
      if (!kill_fired && elapsed_ms >= sup.kill_after_ms) {
        kill_fired = true;
        if (replica_pid[sup.kill_replica] > 0) {
          std::printf("deploy: supervisor SIGKILLs replica/%d at %ld ms\n",
                      sup.kill_replica, elapsed_ms);
          launcher.signal(replica_pid[sup.kill_replica], SIGKILL);
        }
      }
      if (std::optional<std::uint32_t> victim =
              supervisor.due_reincarnation(elapsed_ms)) {
        std::printf(
            "deploy: proactive reincarnation #%llu of replica/%u at %ld ms\n",
            static_cast<unsigned long long>(supervisor.stats().reincarnations),
            *victim, elapsed_ms);
        launcher.signal(replica_pid[*victim], SIGKILL);
      }
      for (std::uint32_t i : supervisor.due_restarts(elapsed_ms)) {
        std::printf("deploy: supervisor restarts replica/%u (attempt %u)\n", i,
                    supervisor.attempts(i));
        spawn_replica(i);
        supervisor.on_start(i, elapsed_ms);
      }
      for (const core::Launcher::Exit& exit : launcher.reap()) {
        if (exit.pid == hmi) {
          status = exit.status;
          hmi_done = true;
          continue;
        }
        for (std::uint32_t i = 0; i < group.n; ++i) {
          if (exit.pid != replica_pid[i]) continue;
          replica_pid[i] = -1;
          const long delay = supervisor.on_death(i, elapsed_ms);
          if (delay < 0) {
            std::fprintf(stderr,
                         "deploy: replica/%u died %u times, giving up on it\n",
                         i, supervisor.attempts(i));
          } else {
            std::printf(
                "deploy: replica/%u %s, restart in %ld ms\n", i,
                WIFSIGNALED(exit.status)
                    ? ("killed by signal " +
                       std::to_string(WTERMSIG(exit.status)))
                          .c_str()
                    : "exited",
                delay);
          }
          break;
        }
      }
    }
    if (proactive_period_ms > 0) {
      std::printf("deploy: %llu proactive reincarnations completed\n",
                  static_cast<unsigned long long>(
                      supervisor.stats().reincarnations));
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

int run_local(const char* self, const GroupConfig& group,
              std::uint16_t base_port, const SuperviseOptions& sup) {
  if (base_port == 0) {
    // Derived from the pid so concurrent CI jobs on one host don't collide.
    base_port = static_cast<std::uint16_t>(40000 + (::getpid() % 8000) * 2);
  }

  net::Resolver resolver =
      plant::port_table(group.n, "127.0.0.1", base_port);
  std::string config =
      "/tmp/smart-scada-deploy-" + std::to_string(::getpid()) + ".conf";
  // Throws (and `deploy local` exits 1) when the config cannot be written.
  storage::PosixEnv().write_file(config, bytes_of(resolver.to_text()));

  // Each child dumps its spans into this directory at exit; we merge them
  // into one op timeline after the run. An SS_TRACE_DIR inherited from the
  // caller wins (and is left in place for inspection).
  bool own_trace_dir = std::getenv("SS_TRACE_DIR") == nullptr;
  if (own_trace_dir) {
    std::string dir =
        "/tmp/smart-scada-trace-" + std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);
    ::setenv("SS_TRACE_DIR", dir.c_str(), 0);
  }
  const std::string trace_dir = std::getenv("SS_TRACE_DIR");

  // Supervision implies durable replicas: a restarted process is only
  // useful if it can come back from disk. An SS_STATE_DIR inherited from
  // the caller wins (and is kept for inspection); otherwise one is created
  // under /tmp and removed after the audit.
  bool own_state_dir = false;
  if (sup.enabled && std::getenv("SS_STATE_DIR") == nullptr) {
    std::string dir = "/tmp/smart-scada-state-" + std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);
    ::setenv("SS_STATE_DIR", dir.c_str(), 0);
    own_state_dir = true;
  }
  const char* state_root_env = std::getenv("SS_STATE_DIR");
  const std::string state_root = state_root_env ? state_root_env : "";
  std::printf("deploy: f=%u n=%u base_port=%u config=%s%s%s\n", group.f,
              group.n, base_port, config.c_str(),
              state_root.empty() ? "" : " state_dir=",
              state_root.c_str());

  int code = 1;
  try {
    code = run_roles(self, group, config, sup);
  } catch (const std::runtime_error& e) {
    // A failed fork: the launcher has already stopped every role it started.
    std::fprintf(stderr, "deploy: %s\n", e.what());
  }
  ::unlink(config.c_str());

  print_write_timeline(load_trace_dir(trace_dir));
  if (own_trace_dir) {
    remove_dir(trace_dir);
  } else {
    std::printf("deploy: per-process traces kept in %s\n", trace_dir.c_str());
  }

  if (!state_root.empty()) {
    code = audit_state_dirs(state_root, group.n, code);
    if (own_state_dir) {
      remove_dir(state_root);
    } else {
      std::printf("deploy: replica state kept in %s\n", state_root.c_str());
    }
  }
  std::printf("deploy: %s\n", code == 0 ? "SUCCESS" : "FAILURE");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string role = argv[1];

  // SS_LOG names one of the six levels, in any case.
  if (const char* name = std::getenv("SS_LOG")) {
    int level = static_cast<int>(LogLevel::kTrace);
    while (strcasecmp(name, Logger::level_name(LogLevel(level))) != 0) {
      if (++level > static_cast<int>(LogLevel::kOff)) return usage();
    }
    Logger::threshold() = LogLevel(level);
  }

  std::uint32_t f = 1;
  std::uint32_t id = 0;
  std::uint16_t base_port = 0;
  std::string config;
  SuperviseOptions sup;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--supervise") {  // the only valueless flag
      sup.enabled = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    // Replica ids and --kill-replica are checked against the group size
    // below, once SS_PROTOCOL has fixed n.
    if (flag == "--f") {
      f = static_cast<std::uint32_t>(parse_int(value, 1, 64));
    } else if (flag == "--id") {
      id = static_cast<std::uint32_t>(parse_int(value, 0, 65535));
    } else if (flag == "--base-port") {
      base_port = static_cast<std::uint16_t>(parse_int(value, 1, 65535));
    } else if (flag == "--config") {
      config = value;
    } else if (flag == "--kill-replica") {
      sup.kill_replica = static_cast<int>(parse_int(value, 0, 65535));
    } else if (flag == "--kill-after") {
      sup.kill_after_ms = parse_int(value, 0, 86'400'000);
    } else if (flag == "--rounds") {
      sup.rounds = static_cast<std::uint32_t>(parse_int(value, 0, 1'000'000));
    } else {
      return usage();
    }
  }
  // Only the supervisor fires --kill-replica; without it the flag would be
  // silently ignored.
  if (sup.kill_replica >= 0 && !sup.enabled) return usage();
  env_settings();  // a malformed numeric SS_* value exits here, via usage()
  try {
    net::socket_options_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "deploy: %s\n", e.what());
    return usage();
  }

  try {
    // SS_PROTOCOL propagates to spawned children, so `deploy local`, each
    // replica, the frontend and the HMI all agree on n.
    const GroupConfig group = GroupConfig::for_protocol(protocol_from_env(), f);
    if (id >= group.n || sup.kill_replica >= static_cast<int>(group.n)) {
      return usage();
    }
    if (role == "local") return run_local(argv[0], group, base_port, sup);
    if (role == "config") {
      std::fputs(plant::port_table(group.n, "127.0.0.1",
                                   base_port ? base_port : 47000)
                     .to_text()
                     .c_str(),
                 stdout);
      return 0;
    }
    if (config.empty()) return usage();
    if (role == "replica") return run_replica(config, group, id);
    if (role == "frontend") return run_frontend(config, group);
    if (role == "hmi") return run_hmi(config, group, sup.rounds);
    if (role == "rtu") return run_rtu(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deploy %s: %s\n", role.c_str(), e.what());
    return 1;
  }
  return usage();
}
