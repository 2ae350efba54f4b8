// Unit tests for src/sim: event loop determinism, timers, network delivery
// and fault injection, service-lane queueing on the simulated backend.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/replicated_deployment.h"
#include "net/lanes.h"
#include "obs/trace.h"
#include "scada/messages.h"
#include "scada/variant.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace ss::sim {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(millis(3), [&] { order.push_back(3); });
  loop.schedule(millis(1), [&] { order.push_back(1); });
  loop.schedule(millis(2), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), millis(3));
}

TEST(EventLoop, TiesBreakByScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(millis(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  std::vector<std::string> order;
  loop.schedule(millis(1), [&] {
    order.push_back("outer");
    loop.schedule(millis(1), [&] { order.push_back("inner"); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"outer", "inner"}));
  EXPECT_EQ(loop.now(), millis(2));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  TimerHandle handle = loop.schedule(millis(1), [&] { fired = true; });
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, RunUntilLeavesLaterEvents) {
  EventLoop loop;
  int count = 0;
  loop.schedule(millis(1), [&] { ++count; });
  loop.schedule(millis(10), [&] { ++count; });
  loop.run_until(millis(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), millis(5));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, RunStepsBounded) {
  EventLoop loop;
  int count = 0;
  for (int i = 0; i < 5; ++i) loop.schedule(millis(i), [&] { ++count; });
  EXPECT_EQ(loop.run_steps(2), 2u);
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, BudgetCatchesRunaway) {
  EventLoop loop;
  loop.set_event_budget(100);
  std::function<void()> spin = [&] { loop.schedule(1, spin); };
  loop.schedule(1, spin);
  EXPECT_THROW(loop.run(), std::runtime_error);
}

TEST(EventLoop, PastDeadlineClampsToNow) {
  EventLoop loop;
  loop.schedule(millis(5), [] {});
  loop.run();
  bool fired = false;
  loop.schedule_at(millis(1), [&] { fired = true; });  // in the past
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), millis(5));
}

TEST(Network, DeliversWithLatency) {
  EventLoop loop;
  Network net(loop, micros(100), 10);
  SimTime delivered_at = -1;
  net.attach("b", [&](Message msg) {
    delivered_at = loop.now();
    EXPECT_EQ(msg.from, "a");
    EXPECT_EQ(msg.payload.size(), 100u);
  });
  net.send("a", "b", Bytes(100, 1));
  loop.run();
  EXPECT_EQ(delivered_at, micros(100) + 100 * 10);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, DetachedEndpointDropsSilently) {
  EventLoop loop;
  Network net(loop, 0, 0);
  int received = 0;
  net.attach("b", [&](Message) { ++received; });
  net.send("a", "b", Bytes{1});
  net.detach("b");
  net.send("a", "b", Bytes{2});
  loop.run();
  EXPECT_EQ(received, 0);  // detach before delivery drops the in-flight one
}

TEST(Network, CutLinkDropsEverything) {
  EventLoop loop;
  Network net(loop, 0, 0);
  int received = 0;
  net.attach("b", [&](Message) { ++received; });
  net.set_policy("a", "b", LinkPolicy::cut_link());
  for (int i = 0; i < 10; ++i) net.send("a", "b", Bytes{1});
  loop.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped, 10u);

  net.clear_policy("a", "b");
  net.send("a", "b", Bytes{1});
  loop.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, DropFirstNIsDeterministic) {
  EventLoop loop;
  Network net(loop, 0, 0);
  int received = 0;
  net.attach("b", [&](Message) { ++received; });
  LinkPolicy policy;
  policy.drop_first_n = 3;
  net.set_policy("a", "b", policy);
  for (int i = 0; i < 5; ++i) net.send("a", "b", Bytes{1});
  loop.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, ProbabilisticDropIsSeeded) {
  auto run = [](std::uint64_t seed) {
    EventLoop loop;
    Network net(loop, 0, 0, seed);
    int received = 0;
    net.attach("b", [&](Message) { ++received; });
    LinkPolicy policy;
    policy.drop_prob = 0.5;
    net.set_policy("a", "b", policy);
    for (int i = 0; i < 1000; ++i) net.send("a", "b", Bytes{1});
    loop.run();
    return received;
  };
  int first = run(1);
  EXPECT_EQ(first, run(1));  // same seed, same outcome
  EXPECT_GT(first, 300);     // roughly half get through
  EXPECT_LT(first, 700);
}

TEST(Network, CorruptionFlipsBytes) {
  EventLoop loop;
  Network net(loop, 0, 0);
  Bytes received;
  net.attach("b", [&](Message msg) { received = msg.payload; });
  LinkPolicy policy;
  policy.corrupt_prob = 1.0;
  net.set_policy("a", "b", policy);
  net.send("a", "b", Bytes{0x00, 0x00});
  loop.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_TRUE(received[0] == 0xff || received[1] == 0xff);
  EXPECT_EQ(net.stats().corrupted, 1u);
}

TEST(Network, DuplicationDeliversTwice) {
  EventLoop loop;
  Network net(loop, 0, 0);
  int received = 0;
  net.attach("b", [&](Message) { ++received; });
  LinkPolicy policy;
  policy.dup_prob = 1.0;
  net.set_policy("a", "b", policy);
  net.send("a", "b", Bytes{1});
  loop.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, IsolateAndHeal) {
  EventLoop loop;
  Network net(loop, 0, 0);
  int received = 0;
  net.attach("b", [&](Message) { ++received; });
  net.isolate("b");
  net.send("a", "b", Bytes{1});
  net.send("b", "a", Bytes{1});
  loop.run();
  EXPECT_EQ(received, 0);
  net.heal("b");
  net.send("a", "b", Bytes{1});
  loop.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, ExtraDelayAndJitter) {
  EventLoop loop;
  Network net(loop, micros(10), 0);
  SimTime delivered_at = 0;
  net.attach("b", [&](Message) { delivered_at = loop.now(); });
  LinkPolicy policy;
  policy.extra_delay = millis(5);
  net.set_policy("a", "b", policy);
  net.send("a", "b", Bytes{1});
  loop.run();
  EXPECT_EQ(delivered_at, micros(10) + millis(5));
}

// net::Lanes over the simulated backend: completions land at the exact
// virtual times the service-lane model predicts.

TEST(Lanes, SingleLaneSerializes) {
  EventLoop loop;
  Network net(loop, 0, 0);
  net::Lanes lanes(net, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    lanes.submit(millis(10), [&] { completions.push_back(loop.now()); });
  }
  loop.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], millis(10));
  EXPECT_EQ(completions[1], millis(20));
  EXPECT_EQ(completions[2], millis(30));
}

TEST(Lanes, MultiLaneRunsInParallel) {
  EventLoop loop;
  Network net(loop, 0, 0);
  net::Lanes lanes(net, 4);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    lanes.submit(millis(10), [&] { completions.push_back(loop.now()); });
  }
  loop.run();
  ASSERT_EQ(completions.size(), 4u);
  for (SimTime t : completions) EXPECT_EQ(t, millis(10));
}

TEST(Lanes, QueueingAfterSaturation) {
  EventLoop loop;
  Network net(loop, 0, 0);
  net::Lanes lanes(net, 2);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    lanes.submit(millis(10), [&] { completions.push_back(loop.now()); });
  }
  loop.run();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_EQ(completions[0], millis(10));
  EXPECT_EQ(completions[1], millis(10));
  EXPECT_EQ(completions[2], millis(20));
  EXPECT_EQ(completions[3], millis(20));
  EXPECT_EQ(lanes.busy_ns(), millis(40));
  EXPECT_EQ(lanes.jobs(), 4u);
}

TEST(Lanes, ZeroCostCompletesImmediately) {
  EventLoop loop;
  Network net(loop, 0, 0);
  net::Lanes lanes(net, 1);
  bool done = false;
  lanes.submit(0, [&] { done = true; });
  loop.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(loop.now(), 0);
}

// ---------------------------------------------------------------------------
// Golden write round

namespace {

/// Full-fidelity signature of one simulated write round: every trace span
/// (op, stage, component, virtual begin/end), the network counters, the
/// final virtual time, and each replica's full state snapshot bytes.
std::string write_round_signature() {
  obs::Tracer::instance().reset();
  core::ReplicatedDeployment system;
  ItemId item = system.add_point("breaker/1", scada::Variant{0.0});
  system.start();

  scada::WriteResult result;
  bool done = false;
  system.hmi().write(item, scada::Variant{1.0},
                     [&](const scada::WriteResult& r) {
                       result = r;
                       done = true;
                     });
  system.settle();
  EXPECT_TRUE(done);
  EXPECT_EQ(result.status, scada::WriteStatus::kOk);

  std::string sig;
  for (const obs::Span& span : obs::Tracer::instance().spans()) {
    sig += std::to_string(span.op) + "|" + span.stage + "|" + span.component +
           "|" + std::to_string(span.begin) + "|" + std::to_string(span.end) +
           "\n";
  }
  const NetworkStats& stats = system.net().stats();
  sig += "net " + std::to_string(stats.sent) + " " +
         std::to_string(stats.delivered) + " " + std::to_string(stats.bytes) +
         "\n";
  sig += "now " + std::to_string(system.loop().now()) + "\n";
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    Bytes snapshot = system.replica(i).full_snapshot();
    sig += "replica " + std::to_string(i) + " ";
    sig.append(reinterpret_cast<const char*>(snapshot.data()),
               snapshot.size());
    sig += "\n";
  }
  obs::Tracer::instance().reset();
  return sig;
}

}  // namespace

// The agreement-engine seam (PR 9) must be byte-invisible: the same write
// round, replayed through the refactored PBFT engine, must reproduce the
// exact signature recorded from the pre-refactor monolithic replica —
// identical span timeline, identical wire traffic, identical virtual clock,
// identical replica snapshot bytes. The golden file was captured at the
// commit immediately before the engine extraction; regenerate it ONLY for a
// deliberate, reviewed protocol change.
TEST(EngineSeam, PbftEngineMatchesPreRefactorGolden) {
  std::ifstream golden_file(SS_SOURCE_DIR "/tests/data/pbft_write_round.golden",
                            std::ios::binary);
  ASSERT_TRUE(golden_file.is_open()) << "golden file missing";
  std::string golden((std::istreambuf_iterator<char>(golden_file)),
                     std::istreambuf_iterator<char>());
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(write_round_signature(), golden)
      << "engine seam changed observable behaviour vs the pre-refactor "
         "recording";
}

}  // namespace
}  // namespace ss::sim
