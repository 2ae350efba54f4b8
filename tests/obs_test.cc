// Observability layer: histogram percentile accuracy (including the
// empty/one-sample edge cases), registry sources, tracer span lifecycle —
// both in isolation and across a full replicated write round in the sim
// harness — and the flight recorder's bounded window, which merges the
// Tracer's spans with its own log notes at dump time.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/replicated_deployment.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ss::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, EmptyHistogramReadsAsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0), 0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.percentile(100), 0);
}

TEST(HistogramTest, OneSampleEveryPercentileIsThatSample) {
  Histogram h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 12345);
  EXPECT_EQ(h.max(), 12345);
  // The bucket midpoint is clamped to [min, max], so a single sample reads
  // back exactly at every percentile.
  EXPECT_EQ(h.percentile(0), 12345);
  EXPECT_EQ(h.percentile(50), 12345);
  EXPECT_EQ(h.percentile(99), 12345);
  EXPECT_EQ(h.percentile(100), 12345);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below 2^kSubBits land in unit-width buckets.
  Histogram h;
  for (std::int64_t v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.percentile(0), 0);
  EXPECT_EQ(h.percentile(100), 15);
  // Nearest-rank of p=50 over 0..15 is the 8th sample (value 7).
  EXPECT_EQ(h.percentile(50), 7);
}

TEST(HistogramTest, PercentilesWithinLogLinearErrorBound) {
  Histogram h;
  for (std::int64_t v = 1; v <= 100000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100000);
  EXPECT_NEAR(h.mean(), 50000.5, 1.0);
  // 16 sub-buckets per octave bound the relative error by ~1/16.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.percentile(90)), 90000.0, 90000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99000.0, 99000.0 * 0.07);
}

TEST(HistogramTest, NegativeValuesClampToZeroBucket) {
  Histogram h;
  h.record(-50);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(50), 0);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.record(7);
  h.record(9000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, CountersGaugesHistogramsByName) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("test/ops") += 3;
  reg.counter("test/ops") += 2;
  reg.gauge("test/depth") = 1.5;
  reg.histogram("test/lat").record(100);
  EXPECT_EQ(reg.counter("test/ops"), 5u);
  EXPECT_EQ(reg.gauge("test/depth"), 1.5);
  EXPECT_EQ(reg.histogram("test/lat").count(), 1u);

  std::string json = reg.json();
  EXPECT_NE(json.find("\"test/ops\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test/lat\""), std::string::npos) << json;
  reg.reset();
  EXPECT_EQ(reg.counter("test/ops"), 0u);
}

TEST(RegistryTest, SourceHandleRegistersAndUnregisters) {
  Registry& reg = Registry::instance();
  reg.reset();
  struct FakeStats {
    std::uint64_t frames = 7;
  } stats;
  {
    SourceHandle handle = reg.add_source(
        "fake", [&stats](const Registry::Emit& emit) {
          emit("frames", static_cast<double>(stats.frames));
        });
    std::string json = reg.json();
    EXPECT_NE(json.find("\"fake\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"frames\":7"), std::string::npos) << json;
    // Sources are polled live, not cached at registration.
    stats.frames = 9;
    json = reg.json();
    EXPECT_NE(json.find("\"frames\":9"), std::string::npos) << json;
  }
  // Handle destroyed: the source must be gone (its memory may be too).
  EXPECT_EQ(reg.json().find("\"fake\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, BeginEndProducesSpanWithInjectedClock) {
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  SimTime now = 1000;
  tracer.set_clock([&now] { return now; });

  tracer.begin(OpId{77}, "frontend", "frontend/a");
  now = 1600;
  tracer.end(OpId{77}, "frontend");
  tracer.set_clock(nullptr);

  ASSERT_TRUE(tracer.has_span(OpId{77}, "frontend"));
  std::vector<Span> spans = tracer.spans_for(OpId{77});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, 1000);
  EXPECT_EQ(spans[0].end, 1600);
  EXPECT_EQ(spans[0].duration(), 600);
  EXPECT_EQ(spans[0].component, "frontend/a");
}

TEST(TracerTest, EndWithoutBeginAndOpZeroAreNoops) {
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  tracer.end(OpId{5}, "frontend");  // never begun
  tracer.begin(OpId{0}, "frontend");  // op 0 = no context, ignored
  tracer.end(OpId{0}, "frontend");
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TracerTest, FinishedSpansFeedStageHistograms) {
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  Registry::instance().reset();
  tracer.record(OpId{9}, "teststage", "comp", 100, 400);
  const Histogram& h = Registry::instance().histogram("stage/teststage");
  ASSERT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 300);
}

TEST(TracerTest, OpenSpanTableIsBounded) {
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  // Begin far more spans than the open-table cap without ever ending them;
  // the tracer must not grow without bound and must stay functional.
  for (std::uint64_t i = 1; i <= 10000; ++i) {
    tracer.begin(OpId{i}, "leaky");
  }
  tracer.begin(OpId{20001}, "ok");
  tracer.end(OpId{20001}, "ok");
  EXPECT_TRUE(tracer.has_span(OpId{20001}, "ok"));
  tracer.reset();
}

// ---------------------------------------------------------------------------
// Tracer across a full replicated write round (sim harness)

sim::CostModel fast_costs() {
  sim::CostModel costs = sim::CostModel::zero();
  costs.hop_latency = micros(50);
  return costs;
}

TEST(TracerTest, WriteRoundYieldsTimelineAcrossAllStages) {
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  Registry::instance().reset();

  core::ReplicatedOptions options;
  options.costs = fast_costs();
  core::ReplicatedDeployment system(options);
  ItemId item = system.add_point("breaker/1", scada::Variant{0.0});
  system.start();

  bool completed = false;
  OpId op = system.hmi().write(item, scada::Variant{1.0},
                               [&](const scada::WriteResult& result) {
                                 completed = true;
                                 EXPECT_EQ(result.status,
                                           scada::WriteStatus::kOk);
                               });
  system.run_until(system.loop().now() + seconds(2));
  ASSERT_TRUE(completed);

  // The sim deployment has no RTU (the frontend's field writer is wired
  // straight through), so the timeline covers every other stage.
  for (const char* stage :
       {"hmi", "frontend", "agreement", "master", "adapter", "voter"}) {
    EXPECT_TRUE(tracer.has_span(op, stage)) << "missing stage " << stage;
  }
  for (const Span& span : tracer.spans_for(op)) {
    EXPECT_GE(span.duration(), 0)
        << span.stage << " has negative duration";
    EXPECT_GE(span.begin, 0) << span.stage;
  }
  // Stage histograms aggregate automatically as spans finish.
  EXPECT_GT(Registry::instance().histogram("stage/agreement").count(), 0u);
  EXPECT_GT(Registry::instance().histogram("stage/master").count(), 0u);
  tracer.reset();
  Registry::instance().reset();
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorderTest, RingIsBoundedAndKeepsTheTail) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  rec.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    rec.note(i, "event-" + std::to_string(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  std::string dump = rec.dump_string();
  EXPECT_EQ(dump.find("event-0"), std::string::npos);
  EXPECT_NE(dump.find("event-9"), std::string::npos);
  rec.set_capacity(4096);
  rec.clear();
}

TEST(FlightRecorderTest, CompletedSpansLandInTheRecorder) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  tracer.record(OpId{314}, "frontend", "comp", 10, 20);
  std::string dump = rec.dump_string();
  EXPECT_NE(dump.find("314"), std::string::npos) << dump;
  EXPECT_NE(dump.find("frontend"), std::string::npos) << dump;
  tracer.reset();
  rec.clear();
}

/// Asserts that `needles` occur in `dump` in this order.
void expect_in_order(const std::string& dump,
                     const std::vector<std::string>& needles) {
  std::size_t pos = 0;
  for (const std::string& needle : needles) {
    const std::size_t at = dump.find(needle, pos);
    ASSERT_NE(at, std::string::npos) << needle << " missing or out of order\n"
                                     << dump;
    pos = at + needle.size();
  }
}

TEST(FlightRecorderTest, SpansAndNotesDumpInAdmissionOrder) {
  FlightRecorder& rec = FlightRecorder::instance();
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  rec.clear();
  // Timestamps run against admission order: the dump follows admission.
  rec.note(900, "note-a");
  tracer.record(OpId{1}, "frontend", "comp", 0, 100);
  rec.note(800, "note-b");
  tracer.record(OpId{2}, "master", "comp", 0, 200);
  tracer.record(OpId{3}, "voter", "comp", 0, 300);
  rec.note(700, "note-c");
  EXPECT_EQ(rec.size(), 6u);
  expect_in_order(rec.dump_string(),
                  {"(6 of last 4096 events)", "note-a", "span op=1 ", "note-b",
                   "span op=2 ", "span op=3 ", "note-c",
                   "--- end flight recorder ---"});
  tracer.reset();
  rec.clear();
}

TEST(FlightRecorderTest, CapacityBoundsSpansAndNotesTogether) {
  FlightRecorder& rec = FlightRecorder::instance();
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  rec.clear();
  rec.set_capacity(4);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    rec.note(0, "note-" + std::to_string(i));
    tracer.record(OpId{i}, "frontend", "comp", 0, 10);
  }
  // Six events, room for four: the two oldest (note-1, span op=1) go.
  EXPECT_EQ(rec.size(), 4u);
  const std::string dump = rec.dump_string();
  EXPECT_EQ(dump.find("note-1"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("span op=1 "), std::string::npos) << dump;
  expect_in_order(dump, {"(4 of last 4 events)", "note-2", "span op=2 ",
                         "note-3", "span op=3 "});
  // The Tracer still holds all three spans; only the dump is bounded.
  EXPECT_EQ(tracer.spans().size(), 3u);
  rec.set_capacity(4096);
  tracer.reset();
  rec.clear();
}

TEST(FlightRecorderTest, ClearHidesEarlierSpansTheTracerStillHolds) {
  FlightRecorder& rec = FlightRecorder::instance();
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  rec.clear();
  tracer.record(OpId{7}, "frontend", "comp", 0, 10);
  rec.note(10, "before clear");
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(tracer.has_span(OpId{7}, "frontend"));
  tracer.record(OpId{8}, "frontend", "comp", 10, 20);
  const std::string dump = rec.dump_string();
  EXPECT_EQ(dump.find("op=7 "), std::string::npos) << dump;
  EXPECT_EQ(dump.find("before clear"), std::string::npos) << dump;
  EXPECT_NE(dump.find("span op=8 "), std::string::npos) << dump;
  EXPECT_EQ(rec.size(), 1u);
  tracer.reset();
  rec.clear();
}

TEST(FlightRecorderTest, SpanLineFormatIsUnchanged) {
  FlightRecorder& rec = FlightRecorder::instance();
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  rec.clear();
  tracer.record(OpId{42}, "agreement", "replica/0", millis(1),
                millis(3) + micros(500));
  rec.note(millis(4), "log INFO  net: hello");
  EXPECT_EQ(rec.dump_string(),
            "--- flight recorder (2 of last 4096 events) ---\n"
            "[       3.500ms] span op=42 stage=agreement component=replica/0 "
            "dur=2500000ns\n"
            "[       4.000ms] log INFO  net: hello\n"
            "--- end flight recorder ---\n");
  tracer.reset();
  rec.clear();
}

TEST(FlightRecorderTest, CapturesLogLinesBelowStderrThreshold) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  rec.capture_logs();
  // kDebug is below the default stderr threshold, but the capture hook sees
  // every line regardless of level.
  SS_LOG(LogLevel::kDebug, 0, "obs_test", "quiet debug line %d", 42);
  Logger::set_capture(nullptr);
  std::string dump = rec.dump_string();
  EXPECT_NE(dump.find("quiet debug line 42"), std::string::npos) << dump;
  rec.clear();
}

}  // namespace
}  // namespace ss::obs
