// Observability layer: histogram percentile accuracy (including the
// empty/one-sample edge cases), registry sources and handles, the process
// source's procfs memory fields, tracer span lifecycle — both in isolation
// and across a full replicated write round in the sim harness — the span
// ring against a std::deque<Span> model and its heap footprint, and the
// flight recorder's bounded window, which merges the Tracer's spans with
// its own log notes at dump time and streams the dump without building it
// in memory.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/replicated_deployment.h"
#include "heap_usage.h"
#include "obs/metrics.h"
#include "obs/process.h"
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

TEST(RegistryTest, HandlesTakenBeforeResetKeepRecording) {
  Registry& reg = Registry::instance();
  Histogram& handle = reg.histogram("test/handle");
  std::uint64_t& counter = reg.counter("test/handle_ops");
  handle.record(5);
  ++counter;
  reg.reset();
  EXPECT_EQ(handle.count(), 0u);
  EXPECT_EQ(counter, 0u);

  handle.record(700);
  counter += 2;
  EXPECT_EQ(&reg.histogram("test/handle"), &handle);
  std::string json = reg.json();
  EXPECT_NE(json.find("\"test/handle\":{\"count\":1,\"min\":700"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test/handle_ops\":2"), std::string::npos) << json;

  // The Tracer's stage handles survive a reset the same way.
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  tracer.record(OpId{1}, "handled", "comp", 0, 10);
  reg.reset();
  tracer.record(OpId{2}, "handled", "comp", 0, 30);
  json = reg.json();
  EXPECT_NE(json.find("\"stage/handled\":{\"count\":1,\"min\":30"),
            std::string::npos)
      << json;
  tracer.reset();
  reg.reset();
}

// The number after `"key":` in `json`; nullopt when the key is absent.
std::optional<double> json_number(const std::string& json,
                                  const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

TEST(ProcessSource, ReportsThisProcessMemory) {
  if (::access("/proc/self/status", R_OK) != 0) {
    GTEST_SKIP() << "no procfs";
  }
  const SourceHandle handle = add_process_source();
  const std::string json = Registry::instance().json();
  const std::size_t at = json.find("\"process\":{");
  ASSERT_NE(at, std::string::npos) << json;
  const std::string fields = json.substr(at, json.find('}', at) - at);
  std::map<std::string, double> kb;
  for (const char* key : {"vm_hwm_kb", "rss_anon_kb", "rss_file_kb", "pss_kb",
                          "private_dirty_kb"}) {
    const std::optional<double> v = json_number(fields, key);
    ASSERT_TRUE(v.has_value()) << key << " missing from " << fields;
    EXPECT_GT(*v, 0) << key;
    kb[key] = *v;
  }
  EXPECT_GE(kb["vm_hwm_kb"], kb["rss_anon_kb"] + kb["rss_file_kb"]) << fields;
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
// The span ring against a std::deque<Span> model

void expect_same_spans(const std::vector<Span>& got,
                       const std::deque<Span>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].op, want[i].op) << "span " << i;
    ASSERT_EQ(got[i].stage, want[i].stage) << "span " << i;
    ASSERT_EQ(got[i].component, want[i].component) << "span " << i;
    ASSERT_EQ(got[i].begin, want[i].begin) << "span " << i;
    ASSERT_EQ(got[i].end, want[i].end) << "span " << i;
  }
}

/// dump_jsonl() into a string.
std::string jsonl_of(const Tracer& tracer) {
  std::FILE* f = std::tmpfile();
  tracer.dump_jsonl(f);
  std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

std::string reference_jsonl(const std::deque<Span>& spans) {
  std::string out;
  char line[512];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"op\":%" PRIu64
                  ",\"stage\":\"%s\",\"component\":\"%s\",\"begin_ns\":%" PRId64
                  ",\"end_ns\":%" PRId64 ",\"dur_ns\":%" PRId64 "}\n",
                  s.op, s.stage.c_str(), s.component.c_str(), s.begin, s.end,
                  s.duration());
    out += line;
  }
  return out;
}

/// The flight recorder's dump of `spans` when they are all its events.
std::string reference_dump(const std::deque<Span>& spans,
                           std::size_t capacity) {
  const std::size_t shown = std::min(spans.size(), capacity);
  char line[512];
  std::snprintf(line, sizeof(line),
                "--- flight recorder (%zu of last %zu events) ---\n", shown,
                capacity);
  std::string out = line;
  for (std::size_t i = spans.size() - shown; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "[%12.3fms] span op=%" PRIu64
                  " stage=%s component=%s dur=%" PRId64 "ns\n",
                  static_cast<double>(s.end) / kNanosPerMilli, s.op,
                  s.stage.c_str(), s.component.c_str(), s.duration());
    out += line;
  }
  out += "--- end flight recorder ---\n";
  return out;
}

TEST(TracerModel, RingMatchesADequeOfSpans) {
  Tracer& tracer = Tracer::instance();
  FlightRecorder& rec = FlightRecorder::instance();
  tracer.reset();
  rec.clear();
  Registry::instance().reset();
  SimTime now = 0;
  tracer.set_clock([&now] { return now; });

  const std::size_t capacity = tracer.capacity();
  ASSERT_EQ(capacity, 8192u);
  const std::uint64_t completed_before = tracer.completed();
  const std::vector<std::string> stages = {"frontend", "agreement", "master",
                                           "adapter", "voter"};
  const std::vector<std::string> components = {"replica/0", "adapter/1",
                                               "hmi", ""};
  // A component's name dies with it, as `endpoint_.c_str()` does.
  auto dying = std::make_unique<std::string>("proxy/short-lived");

  std::mt19937_64 rng(11);
  std::deque<Span> model;
  std::map<std::string, std::uint64_t> stage_counts;
  for (std::size_t i = 0; i < 3 * capacity; ++i) {
    if (i == 2 * capacity) {
      std::fill(dying->begin(), dying->end(), '#');
      dying.reset();
    }
    Span span;
    span.op = 1 + rng() % 5000;
    span.stage = stages[rng() % stages.size()];
    const std::size_t pick = rng() % (components.size() + 1);
    const char* component = pick < components.size()
                                ? components[pick].c_str()
                                : (dying ? dying->c_str() : "hmi");
    span.component = component;
    span.begin = static_cast<SimTime>(i) * 1000;
    span.end = span.begin + static_cast<SimTime>(rng() % 5000);
    if (rng() % 2 == 0) {
      tracer.record(OpId{span.op}, span.stage.c_str(), component, span.begin,
                    span.end);
    } else {
      now = span.begin;
      tracer.begin(OpId{span.op}, span.stage.c_str(), component);
      now = span.end;
      tracer.end(OpId{span.op}, span.stage.c_str());
    }
    model.push_back(span);
    if (model.size() > capacity) model.pop_front();
    ++stage_counts["stage/" + span.stage];
  }
  tracer.set_clock(nullptr);

  expect_same_spans(tracer.spans(), model);
  EXPECT_EQ(tracer.completed() - completed_before, 3 * capacity);
  for (std::uint64_t op : {model.front().op, model.back().op,
                           std::uint64_t{4999}, std::uint64_t{6000}}) {
    std::deque<Span> want;
    for (const Span& s : model) {
      if (s.op == op) want.push_back(s);
    }
    expect_same_spans(tracer.spans_for(OpId{op}), want);
    for (const std::string& stage : stages) {
      bool found = false;
      for (const Span& s : want) found = found || s.stage == stage;
      EXPECT_EQ(tracer.has_span(OpId{op}, stage), found) << op << " " << stage;
    }
    EXPECT_FALSE(tracer.has_span(OpId{op}, "no-such-stage"));
  }
  EXPECT_EQ(jsonl_of(tracer), reference_jsonl(model));
  EXPECT_EQ(rec.dump_string(), reference_dump(model, rec.capacity()));
  for (const auto& [name, count] : stage_counts) {
    EXPECT_EQ(Registry::instance().histogram(name).count(), count) << name;
  }

  // Shrinking keeps the newest spans; growing keeps them all and fills on.
  auto record_more = [&](std::size_t n, std::size_t cap) {
    for (std::size_t i = 0; i < n; ++i) {
      Span span;
      span.op = 10000 + i;
      span.stage = stages[i % stages.size()];
      span.component = components[i % components.size()];
      span.begin = static_cast<SimTime>(i);
      span.end = span.begin + 7;
      tracer.record(OpId{span.op}, span.stage.c_str(),
                    span.component.c_str(), span.begin, span.end);
      model.push_back(span);
      while (model.size() > cap) model.pop_front();
    }
  };
  tracer.set_capacity(100);
  while (model.size() > 100) model.pop_front();
  expect_same_spans(tracer.spans(), model);
  record_more(150, 100);
  expect_same_spans(tracer.spans(), model);
  tracer.set_capacity(300);
  expect_same_spans(tracer.spans(), model);
  record_more(450, 300);
  expect_same_spans(tracer.spans(), model);
  EXPECT_EQ(jsonl_of(tracer), reference_jsonl(model));

  tracer.set_capacity(capacity);
  tracer.reset();
  rec.clear();
  Registry::instance().reset();
}

TEST(TracerFootprint, TwoRingsOfSpansFitTheRecordRing) {
  SS_REQUIRE_HEAP_USAGE();
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  const std::size_t before = test::heap_in_use();
  // The spans a replica's Adapter records: two stages, one component.
  for (std::uint64_t op = 1; op <= tracer.capacity(); ++op) {
    tracer.record(OpId{op}, "master", "adapter/0", 1000, 2000);
    tracer.record(OpId{op}, "adapter", "adapter/0", 1000, 3000);
  }
  const std::size_t used = test::heap_in_use() - before;
  EXPECT_LE(used, 320u * 1024) << used << " bytes";
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

TEST(FlightRecorderTest, ASpanRingOfTheRecorderCapacityDumpsTheSame) {
  // A deploy role keeps only as many spans as its recorder dumps events.
  // One stream of spans and notes, fed to a Tracer of 8192 spans and then
  // to one of 4096, must dump byte-identical text: with the window full,
  // and with a clear() limiting it to the events since.
  FlightRecorder& rec = FlightRecorder::instance();
  Tracer& tracer = Tracer::instance();
  ASSERT_EQ(rec.capacity(), 4096u);
  auto dump_after = [&](std::size_t span_capacity, std::uint64_t spans,
                        std::uint64_t clear_after) {
    tracer.reset();
    rec.clear();
    tracer.set_capacity(span_capacity);
    for (std::uint64_t i = 1; i <= spans; ++i) {
      const SimTime at = static_cast<SimTime>(i) * 1000;
      tracer.record(OpId{i}, i % 3 == 0 ? "agreement" : "voter", "replica/0",
                    at - 400, at);
      if (i % 5 == 0) rec.note(at, "log INFO  net: note " + std::to_string(i));
      if (i == clear_after) rec.clear();
    }
    return rec.dump_string();
  };
  const std::string full = dump_after(8192, 12000, 0);
  EXPECT_EQ(full, dump_after(4096, 12000, 0));
  EXPECT_NE(full.find("(4096 of last 4096 events)"), std::string::npos);
  const std::string cleared = dump_after(8192, 6000, 4500);
  EXPECT_EQ(cleared, dump_after(4096, 6000, 4500));
  EXPECT_NE(cleared.find("(1800 of last 4096 events)"), std::string::npos);
  tracer.reset();
  tracer.set_capacity(8192);
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

/// An fopencookie sink that checks each flushed chunk against the expected
/// dump in place (it stores nothing) and samples the heap as it goes.
struct DumpSink {
  const std::string* expected = nullptr;
  std::size_t offset = 0;
  bool matches = true;
  std::size_t heap_peak = 0;

  static ssize_t write(void* cookie, const char* buf, std::size_t size) {
    DumpSink& sink = *static_cast<DumpSink*>(cookie);
    sink.heap_peak = std::max(sink.heap_peak, test::heap_in_use());
    sink.matches = sink.matches &&
                   sink.expected->compare(sink.offset, size, buf, size) == 0;
    sink.offset += size;
    return static_cast<ssize_t>(size);
  }
};

TEST(FlightRecorderFootprint, FullDumpStreamsWithoutBuildingTheWindow) {
  SS_REQUIRE_HEAP_USAGE();
  FlightRecorder& rec = FlightRecorder::instance();
  Tracer& tracer = Tracer::instance();
  tracer.reset();
  rec.clear();
  // A full span ring with a log line every eighth span: the recorder's
  // whole 4096-event window is in use.
  for (std::uint64_t op = 1; op <= tracer.capacity(); ++op) {
    tracer.record(OpId{op}, "agreement", "replica/0", op * 1000,
                  op * 1000 + 750);
    if (op % 8 == 0) {
      rec.note(op * 1000, "log INFO  replica/0: decided cid=" +
                              std::to_string(op / 8) + " batch of 3 requests");
    }
  }
  ASSERT_EQ(rec.size(), rec.capacity());
  const std::string expected = rec.dump_string();
  ASSERT_GT(expected.size(), 256u * 1024);

  DumpSink sink;
  sink.expected = &expected;
  cookie_io_functions_t io{};
  io.write = &DumpSink::write;
  std::FILE* out = ::fopencookie(&sink, "w", io);
  ASSERT_NE(out, nullptr);
  const std::size_t before = test::heap_in_use();
  sink.heap_peak = before;
  rec.dump(out);
  std::fclose(out);

  EXPECT_TRUE(sink.matches);
  EXPECT_EQ(sink.offset, expected.size());
  const std::size_t growth = sink.heap_peak - before;
  EXPECT_LE(growth, 64u * 1024) << growth << " bytes";
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
