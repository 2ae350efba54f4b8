// Tests for the ordered worker-pool runner (core/runner.h): the ordering
// invariant under randomized task durations, shutdown with queued work,
// exception propagation, and the load-bearing guarantee of PR 6 — a
// replica fed the same message trace produces byte-identical output
// through InlineRunner and PooledOrderedRunner.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bft/client.h"
#include "bft/replica.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/runner.h"
#include "crypto/keychain.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "tests/bft_harness.h"

namespace ss::core {
namespace {

void spin_for(std::uint64_t iterations) {
  volatile std::uint64_t sink = 0;
  for (std::uint64_t k = 0; k < iterations; ++k) sink = sink + 1;
}

RunnerOptions quiet() {
  RunnerOptions o;
  o.metrics = false;  // keep the global obs registry out of property tests
  return o;
}

// --------------------------------------------------------------------------
// ordering property

void ordered_completion(std::uint32_t workers) {
  PooledOrderedRunner runner(workers, quiet());
  constexpr int kTasks = 10000;
  std::vector<int> order;
  order.reserve(kTasks);
  Rng rng(0x5EED0 + workers);
  for (int i = 0; i < kTasks; ++i) {
    // Randomized per-task duration: later-submitted tasks routinely finish
    // before earlier ones on the workers, so delivery order is entirely the
    // re-sequencing buffer's doing.
    const std::uint64_t spin = rng.below(2000);
    runner.submit([i, spin, &order]() -> Runner::Solo {
      spin_for(spin);
      return [i, &order] { order.push_back(i); };
    });
    // Interleave non-blocking drains with submissions, as the poll loop does.
    if (i % 97 == 0) runner.drain();
  }
  runner.drain_until_idle();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(order[i], i) << "solo delivered out of submission order";
  }
  EXPECT_TRUE(runner.idle());
  EXPECT_EQ(runner.submitted(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(runner.delivered(), static_cast<std::uint64_t>(kTasks));
}

TEST(PooledOrderedRunner, OrderedCompletionOneWorker) { ordered_completion(1); }
TEST(PooledOrderedRunner, OrderedCompletionTwoWorkers) { ordered_completion(2); }
TEST(PooledOrderedRunner, OrderedCompletionEightWorkers) {
  ordered_completion(8);
}

TEST(PooledOrderedRunner, SoloMayResubmit) {
  PooledOrderedRunner runner(2, quiet());
  std::vector<int> order;
  // Chain: each solo submits the next task. A resubmitted task is ordered
  // after everything submitted before it — exactly how dispatch-triggered
  // sends re-enter the runner.
  std::function<void(int)> chain = [&](int i) {
    runner.submit([i, &order, &chain]() -> Runner::Solo {
      return [i, &order, &chain] {
        order.push_back(i);
        if (i < 9) chain(i + 1);
      };
    });
  };
  chain(0);
  runner.drain_until_idle();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(InlineRunner, RunsBothHalvesSynchronously) {
  InlineRunner runner;
  std::vector<std::string> log;
  runner.submit([&log]() -> Runner::Solo {
    log.push_back("task");
    return [&log] { log.push_back("solo"); };
  });
  EXPECT_EQ(log, (std::vector<std::string>{"task", "solo"}));
  EXPECT_TRUE(runner.idle());
  EXPECT_EQ(runner.notify_fd(), -1);
}

// --------------------------------------------------------------------------
// shutdown

TEST(PooledOrderedRunner, ShutdownWithQueuedTasksJoinsAndDiscards) {
  std::atomic<int> tasks_ran{0};
  int solos_ran = 0;
  {
    PooledOrderedRunner runner(2, quiet());
    for (int i = 0; i < 200; ++i) {
      runner.submit([&tasks_ran, &solos_ran]() -> Runner::Solo {
        spin_for(20000);
        ++tasks_ran;
        return [&solos_ran] { ++solos_ran; };
      });
    }
    // Destroyed with most of the queue unstarted and nothing drained. The
    // destructor must stop the workers, join them (the test would hang
    // otherwise), and never run a queued task after the object is gone —
    // tasks_ran settles at its final value before the scope ends.
  }
  int after = tasks_ran.load();
  EXPECT_LE(after, 200);
  EXPECT_EQ(solos_ran, 0) << "solos must only run in drain()";
  spin_for(100000);
  EXPECT_EQ(tasks_ran.load(), after) << "worker survived the destructor";
}

// --------------------------------------------------------------------------
// exceptions

TEST(PooledOrderedRunner, ExceptionDeliveredAtTaskPositionInOrder) {
  PooledOrderedRunner runner(2, quiet());
  std::vector<int> delivered;
  for (int i = 0; i < 10; ++i) {
    runner.submit([i, &delivered]() -> Runner::Solo {
      if (i == 5) throw std::runtime_error("task 5 failed");
      return [i, &delivered] { delivered.push_back(i); };
    });
  }
  // The exception surfaces exactly after solo 4 and before solo 6.
  EXPECT_THROW(runner.drain_until_idle(), std::runtime_error);
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2, 3, 4}));
  // The throwing task consumed its slot: draining again continues.
  runner.drain_until_idle();
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2, 3, 4, 6, 7, 8, 9}));
  EXPECT_TRUE(runner.idle());
}

TEST(InlineRunner, ExceptionPropagatesFromSubmit) {
  InlineRunner runner;
  EXPECT_THROW(
      runner.submit([]() -> Runner::Solo { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

// --------------------------------------------------------------------------
// metrics

TEST(PooledOrderedRunner, MetricsRecordPerDrainedTask) {
  auto& reg = obs::Registry::instance();
  RunnerOptions o;
  o.tag = "runner-test-metrics";
  PooledOrderedRunner runner(2, o);
  for (int i = 0; i < 50; ++i) {
    runner.submit([]() -> Runner::Solo { return [] {}; });
  }
  runner.drain_until_idle();
  EXPECT_EQ(reg.gauge("runner/runner-test-metrics.queue_depth"), 0.0);
  EXPECT_EQ(reg.histogram("runner/runner-test-metrics.task_ns").count(), 50u);
  EXPECT_EQ(
      reg.histogram("runner/runner-test-metrics.reorder_wait_ns").count(),
      50u);
}

// --------------------------------------------------------------------------
// inline-vs-pooled replica equivalence
//
// Phase 1 records, on the deterministic simulator, every message delivered
// to replica 0 (and when). Phase 2 replays that exact trace into a fresh
// replica twice — once over InlineRunner, once over PooledOrderedRunner —
// and demands byte-identical output: same sends in the same order with the
// same bytes, same application state. This is the ordering invariant made
// falsifiable: if the pooled runner reordered, dropped, or double-ran any
// prologue/epilogue, some vote, digest, or reply would differ.

/// Transport wrapper that records deliveries to one endpoint.
class RecordingNet final : public net::Transport {
 public:
  RecordingNet(sim::Network& inner, std::string target)
      : inner_(inner), target_(std::move(target)) {}

  void attach(const std::string& name, Handler handler) override {
    if (name == target_) {
      inner_.attach(name,
                    [this, handler = std::move(handler)](net::Message m) {
                      trace_.push_back({inner_.now(), m});
                      handler(std::move(m));
                    });
    } else {
      inner_.attach(name, std::move(handler));
    }
  }
  void detach(const std::string& name) override { inner_.detach(name); }
  bool attached(const std::string& name) const override {
    return inner_.attached(name);
  }
  void send(const std::string& from, const std::string& to,
            Bytes payload) override {
    inner_.send(from, to, std::move(payload));
  }
  net::Timer schedule(SimTime delay, std::function<void()> action) override {
    return inner_.schedule(delay, std::move(action));
  }
  SimTime now() const override { return inner_.now(); }

  const std::vector<std::pair<SimTime, net::Message>>& trace() const {
    return trace_;
  }

 private:
  sim::Network& inner_;
  std::string target_;
  std::vector<std::pair<SimTime, net::Message>> trace_;
};

/// Minimal Transport for replaying a recorded trace: a manual clock, a
/// timer list with the simulator's (when, seq) firing order, and a sent-log
/// instead of a wire.
class ReplayTransport final : public net::Transport {
 public:
  struct TimerState {
    bool cancelled = false;
    std::function<void()> action;
  };
  class TimerImpl final : public net::Timer::Impl {
   public:
    explicit TimerImpl(std::shared_ptr<TimerState> state)
        : state_(std::move(state)) {}
    void cancel() override {
      state_->cancelled = true;
      state_->action = nullptr;
    }
    bool active() const override { return !state_->cancelled; }

   private:
    std::shared_ptr<TimerState> state_;
  };

  void attach(const std::string& name, Handler handler) override {
    handlers_[name] = std::move(handler);
  }
  void detach(const std::string& name) override { handlers_.erase(name); }
  bool attached(const std::string& name) const override {
    return handlers_.count(name) > 0;
  }
  void send(const std::string& from, const std::string& to,
            Bytes payload) override {
    (void)from;
    sent_.emplace_back(to, std::move(payload));
  }
  net::Timer schedule(SimTime delay, std::function<void()> action) override {
    auto state = std::make_shared<TimerState>();
    state->action = std::move(action);
    pending_.push_back({clock_ + (delay < 0 ? 0 : delay), next_seq_++, state});
    return net::Timer(std::make_shared<TimerImpl>(state));
  }
  SimTime now() const override { return clock_; }

  void advance_to(SimTime t) {
    if (t > clock_) clock_ = t;
    run_due();
  }

  void run_due() {
    for (;;) {
      std::size_t best = pending_.size();
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].when > clock_) continue;
        if (best == pending_.size() ||
            pending_[i].when < pending_[best].when ||
            (pending_[i].when == pending_[best].when &&
             pending_[i].seq < pending_[best].seq)) {
          best = i;
        }
      }
      if (best == pending_.size()) return;
      auto state = pending_[best].state;
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
      if (state->cancelled || !state->action) continue;
      std::function<void()> action = std::move(state->action);
      action();
    }
  }

  void deliver(net::Message msg) {
    auto it = handlers_.find(msg.to);
    if (it == handlers_.end()) return;
    Handler handler = it->second;
    handler(std::move(msg));
  }

  const std::vector<std::pair<std::string, Bytes>>& sent() const {
    return sent_;
  }

 private:
  struct Pending {
    SimTime when;
    std::uint64_t seq;
    std::shared_ptr<TimerState> state;
  };
  SimTime clock_ = 0;
  std::uint64_t next_seq_ = 0;
  std::map<std::string, Handler> handlers_;
  std::vector<Pending> pending_;
  std::vector<std::pair<std::string, Bytes>> sent_;
};

struct ReplayResult {
  std::vector<std::pair<std::string, Bytes>> sent;
  Bytes app_snapshot;
  std::uint64_t applied = 0;
};

ReplayResult replay_trace(
    const std::vector<std::pair<SimTime, net::Message>>& trace,
    const crypto::Keychain& keys, const GroupConfig& group, Runner* runner) {
  ReplayTransport net;
  bft::testing::KvApp app;
  bft::Replica replica(net, group, ReplicaId{0}, keys, app, app,
                       bft::ReplicaOptions{});
  if (runner != nullptr) replica.set_runner(runner);
  for (const auto& [at, msg] : trace) {
    net.advance_to(at);
    net.deliver(msg);
    net.run_due();  // the lanes' zero-cost schedule => the runner submit
    if (runner != nullptr) runner->drain_until_idle();
    net.run_due();  // anything a drained solo scheduled at the current time
  }
  if (runner != nullptr) runner->drain_until_idle();
  ReplayResult result;
  result.sent = net.sent();
  result.app_snapshot = app.snapshot();
  result.applied = app.applied();
  return result;
}

TEST(RunnerEquivalence, InlineAndPooledProduceByteIdenticalReplicaOutput) {
  const GroupConfig group = GroupConfig::for_f(1);
  const crypto::Keychain keys("runner-eq");
  constexpr int kRounds = 30;

  // Phase 1: record everything replica 0 — the initial leader — receives
  // during a healthy run: client requests, WRITE/ACCEPT votes from peers.
  sim::EventLoop loop;
  sim::Network inner(loop, micros(50), 0);
  RecordingNet rec(inner, "replica/0");
  std::vector<std::unique_ptr<bft::testing::KvApp>> apps;
  std::vector<std::unique_ptr<bft::Replica>> replicas;
  for (ReplicaId id : group.replica_ids()) {
    apps.push_back(std::make_unique<bft::testing::KvApp>());
    replicas.push_back(std::make_unique<bft::Replica>(
        rec, group, id, keys, *apps.back(), *apps.back(),
        bft::ReplicaOptions{}));
  }
  bft::ClientProxy client(rec, group, ClientId{1}, keys);
  int completed = 0;
  std::function<void(int)> issue = [&](int i) {
    client.invoke_ordered(
        bft::testing::KvApp::put("key" + std::to_string(i),
                                 "value" + std::to_string(i)),
        [&, i](Bytes) {
          ++completed;
          if (i + 1 < kRounds) issue(i + 1);
        });
  };
  issue(0);
  loop.run_until(seconds(5));
  ASSERT_EQ(completed, kRounds);
  ASSERT_EQ(apps[0]->applied(), static_cast<std::uint64_t>(kRounds));
  ASSERT_FALSE(rec.trace().empty());

  // Phase 2: replay the trace through both runners.
  ReplayResult inline_result =
      replay_trace(rec.trace(), keys, group, nullptr);
  PooledOrderedRunner pooled(4, quiet());
  ReplayResult pooled_result = replay_trace(rec.trace(), keys, group, &pooled);

  // Sanity: the replayed replica re-ran the whole workload and replied.
  EXPECT_EQ(inline_result.applied, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(inline_result.app_snapshot, apps[0]->snapshot());
  bool saw_reply = false;
  for (const auto& [to, bytes] : inline_result.sent) {
    if (to == "client/1") saw_reply = true;
  }
  EXPECT_TRUE(saw_reply);

  // The claim: byte-identical output.
  EXPECT_EQ(pooled_result.applied, inline_result.applied);
  EXPECT_EQ(pooled_result.app_snapshot, inline_result.app_snapshot);
  ASSERT_EQ(pooled_result.sent.size(), inline_result.sent.size());
  for (std::size_t i = 0; i < inline_result.sent.size(); ++i) {
    EXPECT_EQ(pooled_result.sent[i].first, inline_result.sent[i].first)
        << "send " << i << " went to a different destination";
    ASSERT_EQ(pooled_result.sent[i].second, inline_result.sent[i].second)
        << "send " << i << " differs between inline and pooled";
  }
}

}  // namespace
}  // namespace ss::core
