// Tests for the open-loop load subsystem (src/load).
//
// Covers the three guarantees the subsystem sells: schedules are a pure
// deterministic function of their options (replayable load), the driver is
// coordinated-omission-safe (a stalled server inflates the latency tail, it
// never shrinks the sample count), and per-op outcome accounting
// (ok/failed/timeout/duplicate/late) is exact. Plus one end-to-end run
// against the full replicated deployment on the simulated backend at f=1,
// and the benches' shared pipeline (bench/bench_util.h) on the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "core/replicated_deployment.h"
#include "load/driver.h"
#include "load/report.h"
#include "load/schedule.h"
#include "scada/handlers.h"
#include "scada/hmi.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace ss {
namespace {

using load::Arrival;
using load::ArrivalShape;
using load::OpenLoopDriver;
using load::ScheduleOptions;

bool same_schedule(const std::vector<Arrival>& a,
                   const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at || a[i].client != b[i].client ||
        a[i].index != b[i].index) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Schedule generation

TEST(Schedule, DeterministicForFixedSeedAcrossAllShapes) {
  for (ArrivalShape shape : {ArrivalShape::kFixedRate, ArrivalShape::kPoisson,
                             ArrivalShape::kBurst}) {
    ScheduleOptions opt;
    opt.shape = shape;
    opt.rate_per_sec = 500;
    opt.duration = seconds(4);
    opt.clients = 16;
    opt.seed = 0xBEEF;
    std::vector<Arrival> first = load::generate_schedule(opt);
    std::vector<Arrival> second = load::generate_schedule(opt);
    ASSERT_FALSE(first.empty()) << load::arrival_shape_name(shape);
    EXPECT_TRUE(same_schedule(first, second))
        << load::arrival_shape_name(shape) << ": same options, same schedule";

    opt.seed = 0xF00D;
    std::vector<Arrival> reseeded = load::generate_schedule(opt);
    EXPECT_FALSE(same_schedule(first, reseeded))
        << load::arrival_shape_name(shape) << ": new seed, new schedule";
  }
}

TEST(Schedule, ArrivalsAreSortedWithDenseIndices) {
  ScheduleOptions opt;
  opt.shape = ArrivalShape::kPoisson;
  opt.rate_per_sec = 2000;
  opt.duration = seconds(2);
  opt.clients = 32;
  std::vector<Arrival> schedule = load::generate_schedule(opt);
  ASSERT_FALSE(schedule.empty());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].index, i);
    EXPECT_LT(schedule[i].client, opt.clients);
    EXPECT_GE(schedule[i].at, 0);
    EXPECT_LT(schedule[i].at, opt.duration);
    if (i > 0) {
      EXPECT_GE(schedule[i].at, schedule[i - 1].at);
    }
  }
}

TEST(Schedule, FixedRateIsEvenlySpacedPerClient) {
  ScheduleOptions opt;
  opt.rate_per_sec = 400;
  opt.duration = seconds(2);
  opt.clients = 4;  // 100/s each -> 10ms period
  std::vector<Arrival> schedule = load::generate_schedule(opt);

  std::map<std::uint32_t, std::vector<SimTime>> by_client;
  for (const Arrival& a : schedule) by_client[a.client].push_back(a.at);
  ASSERT_EQ(by_client.size(), 4u);
  for (const auto& [client, times] : by_client) {
    for (std::size_t i = 1; i < times.size(); ++i) {
      EXPECT_EQ(times[i] - times[i - 1], millis(10))
          << "client " << client << " gap " << i;
    }
  }
  // Aggregate count: rate * duration, +/- one arrival per client (phase).
  EXPECT_NEAR(static_cast<double>(schedule.size()), 800.0, 4.0);
}

TEST(Schedule, PoissonHitsTheRequestedMeanRate) {
  ScheduleOptions opt;
  opt.shape = ArrivalShape::kPoisson;
  opt.rate_per_sec = 1000;
  opt.duration = seconds(10);
  opt.clients = 50;
  std::vector<Arrival> schedule = load::generate_schedule(opt);
  // 10000 expected arrivals; 10% slack is > 8 standard deviations.
  EXPECT_NEAR(static_cast<double>(schedule.size()), 10000.0, 1000.0);
}

TEST(Schedule, BurstWindowsAreDenserThanTheBaseStream) {
  ScheduleOptions opt;
  opt.shape = ArrivalShape::kBurst;
  opt.rate_per_sec = 500;
  opt.duration = seconds(8);
  opt.clients = 10;
  opt.burst_multiplier = 10.0;
  opt.burst_period = seconds(2);
  opt.burst_length = millis(200);
  std::vector<Arrival> schedule = load::generate_schedule(opt);
  ASSERT_FALSE(schedule.empty());

  std::uint64_t in_burst = 0;
  std::uint64_t outside = 0;
  for (const Arrival& a : schedule) {
    (a.at % opt.burst_period < opt.burst_length ? in_burst : outside)++;
  }
  // Windows cover 10% of the time at 10x the rate: the per-second density
  // inside must be several times the density outside.
  double in_rate = static_cast<double>(in_burst) / 0.1;
  double out_rate = static_cast<double>(outside) / 0.9;
  EXPECT_GT(in_rate, 4.0 * out_rate);
}

// ---------------------------------------------------------------------------
// Driver: coordinated omission and outcome accounting

struct SimHarness {
  sim::EventLoop loop;
  sim::Network net{loop, 0, 0};
};

TEST(Driver, StalledServerInflatesTailLatencyNotSampleCount) {
  // The open-loop property itself: the server freezes for one second in the
  // middle of the run. A closed-loop driver would simply issue fewer ops
  // (the stall would vanish from the data); this driver keeps issuing on
  // schedule and charges every op the full queueing delay from its
  // *scheduled* send time.
  SimHarness h;
  ScheduleOptions sopt;
  sopt.rate_per_sec = 1000;
  sopt.duration = seconds(4);
  sopt.clients = 8;
  std::vector<Arrival> schedule = load::generate_schedule(sopt);
  const std::size_t scheduled = schedule.size();

  constexpr SimTime kService = micros(500);
  constexpr SimTime kStallStart = seconds(1);
  constexpr SimTime kStallEnd = seconds(2);
  load::DriverOptions dopt;
  dopt.op_timeout = seconds(10);  // nothing may time out here
  OpenLoopDriver driver(
      h.net, std::move(schedule),
      [&](const Arrival&, OpenLoopDriver::CompletionFn done) {
        SimTime now = h.net.now();
        SimTime ready = now + kService;
        // Frozen server: everything that would finish inside the stall
        // window is held until the window ends.
        if (ready >= kStallStart && ready < kStallEnd) ready = kStallEnd;
        h.net.schedule(ready - now, [done] { done(true); });
      },
      dopt);
  driver.start();
  h.loop.run_until(seconds(20));

  ASSERT_TRUE(driver.finished());
  // No omission: every scheduled op produced exactly one latency sample.
  EXPECT_EQ(driver.stats().ok, scheduled);
  EXPECT_EQ(driver.latency().count(), scheduled);
  EXPECT_EQ(driver.stats().timeouts, 0u);

  // ~25% of the arrivals landed in the stall and owe queueing delay up to a
  // full second: the tail must show it while the median stays at service
  // time. The histogram's bounded relative error is ~6%; assert with slack.
  EXPECT_LT(driver.latency().percentile(50), millis(2));
  EXPECT_GT(driver.latency().percentile(99), millis(500));
  EXPECT_GT(driver.latency().max(), millis(900));
}

TEST(Driver, AccountsTimeoutsDuplicatesAndLateReplies) {
  SimHarness h;
  ScheduleOptions sopt;
  sopt.rate_per_sec = 300;
  sopt.duration = seconds(1);
  std::vector<Arrival> schedule = load::generate_schedule(sopt);
  const std::size_t scheduled = schedule.size();

  // index % 3 == 0: never answered            -> timeout
  // index % 3 == 1: answered twice            -> ok + 1 duplicate
  // index % 3 == 2: answered after the window -> timeout + 1 late reply
  constexpr SimTime kTimeout = millis(100);
  std::size_t never = 0;
  std::size_t twice = 0;
  std::size_t late = 0;
  load::DriverOptions dopt;
  dopt.op_timeout = kTimeout;
  OpenLoopDriver driver(
      h.net, std::move(schedule),
      [&](const Arrival& a, OpenLoopDriver::CompletionFn done) {
        switch (a.index % 3) {
          case 0:
            ++never;
            break;
          case 1:
            ++twice;
            h.net.schedule(millis(1), [done] { done(true); });
            h.net.schedule(millis(2), [done] { done(true); });
            break;
          default:
            ++late;
            h.net.schedule(kTimeout + millis(50), [done] { done(true); });
            break;
        }
      },
      dopt);
  driver.start();
  h.loop.run_until(seconds(10));

  ASSERT_TRUE(driver.finished());
  const load::DriverStats& s = driver.stats();
  EXPECT_EQ(s.scheduled, scheduled);
  EXPECT_EQ(s.issued, scheduled);
  EXPECT_EQ(s.ok, twice);
  EXPECT_EQ(s.duplicates, twice);
  EXPECT_EQ(s.timeouts, never + late);
  EXPECT_EQ(s.late_replies, late);
  EXPECT_EQ(s.failed, 0u);
  // Only successes contribute latency samples.
  EXPECT_EQ(driver.latency().count(), twice);
}

TEST(Driver, FailedCompletionsAreNotSuccesses) {
  SimHarness h;
  ScheduleOptions sopt;
  sopt.rate_per_sec = 100;
  sopt.duration = seconds(1);
  std::vector<Arrival> schedule = load::generate_schedule(sopt);
  const std::size_t scheduled = schedule.size();

  OpenLoopDriver driver(h.net, std::move(schedule),
                        [&](const Arrival& a, OpenLoopDriver::CompletionFn done) {
                          bool ok = (a.index % 2) == 0;
                          h.net.schedule(millis(1), [done, ok] { done(ok); });
                        });
  driver.start();
  h.loop.run_until(seconds(10));

  ASSERT_TRUE(driver.finished());
  EXPECT_EQ(driver.stats().ok + driver.stats().failed, scheduled);
  EXPECT_GT(driver.stats().failed, 0u);
  EXPECT_EQ(driver.latency().count(), driver.stats().ok);
}

TEST(Report, RecordCarriesScheduleAndOutcome) {
  SimHarness h;
  ScheduleOptions sopt;
  sopt.rate_per_sec = 200;
  sopt.duration = seconds(1);
  OpenLoopDriver driver(h.net, load::generate_schedule(sopt),
                        [&](const Arrival&, OpenLoopDriver::CompletionFn done) {
                          h.net.schedule(millis(3), [done] { done(true); });
                        });
  driver.start();
  h.loop.run_until(seconds(10));
  ASSERT_TRUE(driver.finished());

  load::RunRecord record =
      load::RunRecord::from_driver("unit", "noop", sopt, driver);
  EXPECT_EQ(record.stats.ok, driver.stats().ok);
  EXPECT_GT(record.goodput_per_sec, 0.0);
  EXPECT_EQ(record.latency.samples, driver.stats().ok);
  EXPECT_GT(record.latency.p50_us, 0.0);
  EXPECT_EQ(record.timeout_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end on the simulated backend, f = 1

TEST(LoadEndToEnd, OpenLoopWritesAgainstReplicatedDeploymentF1) {
  core::ReplicatedOptions options;
  options.storage_retention = 256;
  options.checkpoint_interval = 4096;
  options.client_reply_timeout = seconds(60);
  options.request_timeout = seconds(60);
  core::ReplicatedDeployment system(options);
  ItemId setpoint = system.add_point("plant/setpoint", scada::Variant{20.0});
  system.start();

  ScheduleOptions sopt;
  sopt.rate_per_sec = 200;
  sopt.duration = seconds(2);
  sopt.clients = 20;
  load::DriverOptions dopt;
  dopt.op_timeout = seconds(5);
  OpenLoopDriver driver(
      system.net(), load::generate_schedule(sopt),
      [&](const Arrival& a, OpenLoopDriver::CompletionFn done) {
        system.hmi().write(setpoint,
                           scada::Variant{static_cast<double>(a.index)},
                           [done](const scada::WriteResult& r) {
                             done(r.status == scada::WriteStatus::kOk);
                           });
      },
      dopt);
  driver.start();

  SimTime deadline = system.loop().now() + seconds(30);
  while (!driver.finished() && system.loop().now() < deadline) {
    system.run_until(system.loop().now() + millis(100));
  }
  ASSERT_TRUE(driver.finished());
  EXPECT_EQ(driver.stats().ok, driver.stats().scheduled);
  EXPECT_EQ(driver.stats().timeouts, 0u);
  EXPECT_EQ(driver.stats().failed, 0u);
  EXPECT_GT(driver.goodput_per_sec(), 100.0);
  EXPECT_GT(driver.latency().percentile(50), 0);
}

// ---------------------------------------------------------------------------
// The benches' shared pipeline: run_open_loop and closed_loop_writes

TEST(BenchPipeline, OpenLoopAlarmUpdatesAllResolveAtTheOfferedRate) {
  core::ReplicatedDeployment system(bench::replicated_options());
  std::vector<ItemId> items = {system.add_point("feeder/0"),
                               system.add_point("feeder/1")};
  system.configure_masters([&items](scada::ScadaMaster& master) {
    for (ItemId item : items) {
      master.handlers(item).emplace<scada::MonitorHandler>(
          scada::MonitorHandler::Condition::kAbove, 100.0);
    }
  });
  system.start();

  bench::Workload workload{.items = items, .alarm_pct = 50};
  load::RunRecord record = bench::run_open_loop(
      system, workload, "alarms",
      ScheduleOptions{.rate_per_sec = 200, .duration = seconds(3)},
      seconds(1), seconds(2));
  EXPECT_GT(record.stats.scheduled, 500u);
  EXPECT_EQ(record.stats.ok, record.stats.scheduled);
  EXPECT_EQ(record.stats.timeouts, 0u);
  EXPECT_EQ(record.latency.samples, record.stats.ok);
  EXPECT_NEAR(bench::delivered(record), 200.0, 2.0);
  EXPECT_NEAR(bench::extra(record, "events_per_sec"), 100.0, 5.0);
}

TEST(BenchPipeline, MixedOpenLoopRunResolvesWritesAndUpdates) {
  core::ReplicatedDeployment system(bench::replicated_options());
  ItemId feeder = system.add_point("feeder");
  ItemId setpoint = system.add_point("setpoint", scada::Variant{20.0});
  system.start();

  bench::Workload workload{
      .op = "mixed", .items = {feeder}, .write_item = setpoint};
  load::RunRecord record = bench::run_open_loop(
      system, workload, "mixed",
      ScheduleOptions{.rate_per_sec = 100, .duration = seconds(2)}, 0,
      seconds(2));
  ASSERT_GT(record.stats.scheduled, 100u);
  EXPECT_EQ(record.stats.ok, record.stats.scheduled);
  // Odd arrivals are writes, even ones updates: both kinds resolved.
  EXPECT_EQ(system.hmi().counters().writes_ok, record.stats.scheduled / 2);
  EXPECT_GT(bench::delivered(record), 0.0);
}

TEST(BenchPipeline, ClosedLoopWritesBalanceAndStopWhenTheCallReturns) {
  core::ReplicatedDeployment system(bench::replicated_options());
  ItemId valve = system.add_point("valve", scada::Variant{0.0});
  system.start();

  load::RunRecord record =
      bench::closed_loop_writes(system, valve, "writes", seconds(1),
                                seconds(2));
  EXPECT_GT(record.stats.ok, 100u);
  EXPECT_EQ(record.stats.ok + record.stats.failed, record.stats.scheduled);
  EXPECT_EQ(record.stats.timeouts, 0u);
  EXPECT_EQ(record.latency.samples, record.stats.ok);
  EXPECT_DOUBLE_EQ(record.goodput_per_sec,
                   static_cast<double>(record.stats.ok) / 2.0);

  // The write in flight at the window's end was drained, and no callback
  // issues another one.
  const std::uint64_t issued = system.hmi().counters().writes_issued;
  EXPECT_EQ(system.hmi().pending_writes(), 0u);
  system.run_until(system.loop().now() + seconds(2));
  EXPECT_EQ(system.hmi().counters().writes_issued, issued);
}

TEST(BenchPipeline, ClosedLoopWritesCountLogicalTimeoutsAsFailures) {
  core::ReplicatedOptions options;
  options.write_timeout = millis(400);
  core::ReplicatedDeployment system(options);
  ItemId valve = system.add_point("valve", scada::Variant{0.0});
  system.start();
  system.net().set_policy(core::kFrontendEndpoint,
                          core::kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());

  load::RunRecord record =
      bench::closed_loop_writes(system, valve, "drops", 0, seconds(3));
  EXPECT_GT(record.stats.failed, 2u);
  EXPECT_EQ(record.stats.ok, 0u);
  EXPECT_EQ(record.stats.ok + record.stats.failed, record.stats.scheduled);
  EXPECT_EQ(record.latency.samples, 0u);
  EXPECT_EQ(system.hmi().counters().writes_timeout,
            system.hmi().counters().writes_issued);
}

}  // namespace
}  // namespace ss
