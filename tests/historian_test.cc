// Unit + integration tests for the Historian (value archive) and its
// replicated query path, plus the encoded archive against a
// std::deque<Sample> model and its heap footprint.
#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <limits>
#include <map>
#include <random>

#include "core/replicated_deployment.h"
#include "core/requests.h"
#include "heap_usage.h"
#include "record_reference.h"
#include "scada/historian.h"
#include "scada/master.h"

namespace ss::scada {
namespace {

TEST(Historian, RecordsAndQueriesRanges) {
  Historian historian;
  for (int i = 0; i < 10; ++i) {
    historian.record(ItemId{1}, millis(i * 10), Variant{double(i)},
                     Quality::kGood);
  }
  EXPECT_EQ(historian.total_samples(), 10u);
  EXPECT_EQ(historian.items_tracked(), 1u);

  std::vector<Sample> mid = historian.range(ItemId{1}, millis(20), millis(50));
  ASSERT_EQ(mid.size(), 4u);
  EXPECT_DOUBLE_EQ(mid.front().value.as_double(), 2.0);
  EXPECT_DOUBLE_EQ(mid.back().value.as_double(), 5.0);

  EXPECT_TRUE(historian.range(ItemId{2}, 0, seconds(1)).empty());
}

TEST(Historian, TailAndLatest) {
  Historian historian;
  EXPECT_FALSE(historian.latest(ItemId{1}).has_value());
  for (int i = 0; i < 5; ++i) {
    historian.record(ItemId{1}, millis(i), Variant{double(i)}, Quality::kGood);
  }
  std::vector<Sample> tail = historian.tail(ItemId{1}, 3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_DOUBLE_EQ(tail[0].value.as_double(), 2.0);
  EXPECT_DOUBLE_EQ(tail[2].value.as_double(), 4.0);
  EXPECT_DOUBLE_EQ(historian.latest(ItemId{1})->value.as_double(), 4.0);
  // Tail larger than the series returns everything.
  EXPECT_EQ(historian.tail(ItemId{1}, 100).size(), 5u);
}

TEST(Historian, CapacityEvictsOldest) {
  Historian historian(3);
  for (int i = 0; i < 10; ++i) {
    historian.record(ItemId{1}, millis(i), Variant{double(i)}, Quality::kGood);
  }
  EXPECT_EQ(historian.total_samples(), 10u);
  std::vector<Sample> all = historian.tail(ItemId{1}, 100);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].value.as_double(), 7.0);
}

TEST(Historian, Aggregates) {
  Historian historian;
  for (int i = 1; i <= 4; ++i) {
    historian.record(ItemId{1}, millis(i), Variant{double(i * 10)},
                     Quality::kGood);
  }
  // Non-numeric samples are skipped by aggregation.
  historian.record(ItemId{1}, millis(5), Variant{std::string("n/a")},
                   Quality::kBad);
  Aggregate agg = historian.aggregate(ItemId{1}, 0, seconds(1));
  EXPECT_EQ(agg.count, 4u);
  EXPECT_DOUBLE_EQ(agg.min, 10.0);
  EXPECT_DOUBLE_EQ(agg.max, 40.0);
  EXPECT_DOUBLE_EQ(agg.mean, 25.0);

  Aggregate empty = historian.aggregate(ItemId{2}, 0, seconds(1));
  EXPECT_EQ(empty.count, 0u);
}

TEST(Historian, EncodeDecodeRoundTrip) {
  Historian historian;
  historian.record(ItemId{1}, millis(1), Variant{1.5}, Quality::kGood);
  historian.record(ItemId{2}, millis(2), Variant{std::int64_t{7}},
                   Quality::kUncertain);
  Writer w;
  historian.encode(w);
  Historian restored;
  Reader r(w.bytes());
  restored.decode(r);
  EXPECT_EQ(restored.total_samples(), 2u);
  EXPECT_EQ(restored.latest(ItemId{1})->value, Variant{1.5});
  EXPECT_EQ(restored.latest(ItemId{2})->quality, Quality::kUncertain);

  // Deterministic re-encode (replica digests depend on it).
  Writer w2;
  restored.encode(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(Historian, MasterRecordsAcceptedUpdates) {
  MasterOptions options;
  options.deterministic = true;
  ScadaMaster master{std::move(options)};
  ItemId item = master.add_item("x");
  master.handlers(item).emplace<DeadbandHandler>(5.0);

  auto update = [&](double value, std::uint64_t op) {
    ItemUpdate msg;
    msg.item = item;
    msg.value = Variant{value};
    MsgContext ctx;
    ctx.op = OpId{op};
    ctx.timestamp = millis(op);
    master.handle(ScadaMessage{msg}, ctx, "frontend");
  };
  update(0.0, 1);
  update(1.0, 2);  // inside deadband: suppressed, not archived
  update(10.0, 3);

  EXPECT_EQ(master.historian().total_samples(), 2u);
  auto tail = master.historian().tail(item, 10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_DOUBLE_EQ(tail[1].value.as_double(), 10.0);
  EXPECT_EQ(tail[1].timestamp, millis(3));
}

/// The archive as it was kept before samples were stored encoded: one
/// std::deque<Sample> per item, and the base each item's log would code its
/// oldest sample against.
struct ModelHistorian {
  explicit ModelHistorian(std::size_t cap) : capacity(cap) {}

  std::size_t capacity;
  std::map<std::uint32_t, std::deque<Sample>> series;
  std::map<std::uint32_t, reference::Before> bases;
  std::uint64_t total = 0;

  void record(ItemId item, const Sample& sample) {
    auto& samples = series[item.value];
    samples.push_back(sample);
    ++total;
    if (samples.size() > capacity) {
      const Sample& evicted = samples.front();
      bases[item.value] =
          reference::before_of(evicted.value, evicted.timestamp);
      samples.pop_front();
    }
  }
  const std::deque<Sample>& of(ItemId item) const {
    static const std::deque<Sample> kEmpty;
    auto it = series.find(item.value);
    return it == series.end() ? kEmpty : it->second;
  }
  std::vector<Sample> range(ItemId item, SimTime from, SimTime to) const {
    std::vector<Sample> out;
    for (const Sample& s : of(item)) {
      if (s.timestamp >= from && s.timestamp <= to) out.push_back(s);
    }
    return out;
  }
  std::vector<Sample> tail(ItemId item, std::size_t n) const {
    const auto& samples = of(item);
    std::size_t start = samples.size() > n ? samples.size() - n : 0;
    return {samples.begin() + static_cast<std::ptrdiff_t>(start),
            samples.end()};
  }
  Aggregate aggregate(ItemId item, SimTime from, SimTime to) const {
    Aggregate agg;
    double sum = 0;
    for (const Sample& s : of(item)) {
      if (s.timestamp < from || s.timestamp > to) continue;
      if (!s.value.is_numeric()) continue;
      double v = s.value.as_double();
      agg.min = agg.count == 0 ? v : std::min(agg.min, v);
      agg.max = agg.count == 0 ? v : std::max(agg.max, v);
      sum += v;
      ++agg.count;
    }
    if (agg.count > 0) agg.mean = sum / static_cast<double>(agg.count);
    return agg;
  }
  /// The archive's snapshot section in the coded form (record_reference.h's
  /// coder, not the production one).
  Bytes encode() const {
    Writer w;
    w.varint(total);
    w.varint(series.size());
    for (const auto& [item, samples] : series) {
      w.varint(item);
      w.varint(samples.size());
      auto base = bases.find(item);
      reference::Before before =
          base == bases.end() ? reference::Before{} : base->second;
      reference::write_base(w, before, /*with_op=*/false);
      for (const Sample& s : samples) {
        reference::write_fields(w, before, s.value, s.timestamp, nullptr,
                                static_cast<std::uint8_t>(s.quality));
      }
    }
    return std::move(w).take();
  }
};

/// Today's encoding of a sample before records were coded: timestamp,
/// Variant, quality.
std::size_t plain_sample_size(const Sample& sample) {
  Writer w;
  sample.encode(w);
  return w.size();
}

/// Sample equality by encoding: a NaN is not equal to itself as a double,
/// but its bits must come back the same.
testing::AssertionResult same_samples(const std::vector<Sample>& a,
                                      const std::vector<Sample>& b) {
  auto bytes = [](const std::vector<Sample>& samples) {
    Writer w;
    for (const Sample& s : samples) s.encode(w);
    return std::move(w).take();
  };
  if (a.size() == b.size() && bytes(a) == bytes(b)) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure() << a.size() << " vs " << b.size()
                                     << " samples, or their bytes differ";
}

constexpr SimTime kMinTime = std::numeric_limits<SimTime>::min();
constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();

/// Compares every query on items 1-4 (4 is never recorded) and the encoded
/// archive; the random ranges fall inside [0, horizon].
void expect_matches(const Historian& historian, const ModelHistorian& model,
                    std::mt19937_64& rng, SimTime horizon) {
  ASSERT_EQ(historian.total_samples(), model.total);
  ASSERT_EQ(historian.items_tracked(), model.series.size());
  for (std::uint32_t id = 1; id <= 4; ++id) {
    const ItemId item{id};
    SimTime from = static_cast<SimTime>(rng() % static_cast<std::uint64_t>(horizon + 1));
    SimTime to = from + static_cast<SimTime>(rng() % static_cast<std::uint64_t>(horizon + 1));
    EXPECT_TRUE(same_samples(historian.range(item, from, to),
                             model.range(item, from, to)));
    EXPECT_TRUE(same_samples(historian.range(item, kMinTime, kMaxTime),
                             model.range(item, kMinTime, kMaxTime)));
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          model.capacity, model.capacity + 5,
                          static_cast<std::size_t>(rng() % 5000)}) {
      EXPECT_TRUE(same_samples(historian.tail(item, n), model.tail(item, n)))
          << n;
    }
    std::vector<Sample> last = model.tail(item, 1);
    std::optional<Sample> latest = historian.latest(item);
    ASSERT_EQ(latest.has_value(), !last.empty());
    if (latest) {
      EXPECT_TRUE(same_samples({*latest}, last));
    }
    Aggregate got = historian.aggregate(item, from, to);
    Aggregate want = model.aggregate(item, from, to);
    EXPECT_EQ(got.count, want.count);
    // Bitwise, so that NaN min/max/mean compare too.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min),
              std::bit_cast<std::uint64_t>(want.min));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max),
              std::bit_cast<std::uint64_t>(want.max));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean),
              std::bit_cast<std::uint64_t>(want.mean));
  }
  Writer w;
  historian.encode(w);
  ASSERT_EQ(w.bytes(), model.encode());
}

class HistorianModel : public ::testing::TestWithParam<std::size_t> {};

/// A sample time: mostly steps of 0-2 from `now` (repeats and gaps), but
/// also steps back and the extremes of SimTime, which code as the widest
/// wrapping differences.
SimTime next_time(std::mt19937_64& rng, SimTime& now) {
  switch (rng() % 16) {
    case 0:
      return kMinTime;
    case 1:
      return kMaxTime;
    case 2:
      now = std::max<SimTime>(0, now - static_cast<SimTime>(rng() % 5000));
      return now;
    default:
      now += static_cast<SimTime>(rng() % 3);
      return now;
  }
}

TEST_P(HistorianModel, MatchesADequeOfSamples) {
  const std::size_t capacity = GetParam();
  Historian historian(capacity);
  ModelHistorian model(capacity);
  std::mt19937_64 rng(capacity);
  SimTime now = 0;
  SimTime horizon = 0;
  std::map<std::uint32_t, reference::Before> last;
  const std::size_t records = 3 * capacity + 200;
  for (std::size_t i = 0; i < records; ++i) {
    ItemId item{static_cast<std::uint32_t>(1 + rng() % 3)};
    Sample sample{next_time(rng, now), reference::random_value(rng),
                  static_cast<Quality>(rng() % (static_cast<int>(Quality::kMax) + 1))};
    horizon = std::max(horizon, now);
    historian.record(item, sample.timestamp, sample.value, sample.quality);
    model.record(item, sample);
    // No sample codes to more than one byte past its plain encoding.
    Writer coded;
    reference::write_fields(coded, last[item.value], sample.value,
                            sample.timestamp, nullptr,
                            static_cast<std::uint8_t>(sample.quality));
    ASSERT_LE(coded.size(), plain_sample_size(sample) + 1) << i;
    if (i % 997 == 0 || i < 20) expect_matches(historian, model, rng, horizon);
  }
  expect_matches(historian, model, rng, horizon);
  const SimTime now_before_restore = now;

  // decode() restores the same archive, which then evolves identically.
  Writer w;
  historian.encode(w);
  const Bytes encoded = w.bytes();
  Historian restored(capacity);
  Reader r(encoded);
  restored.decode(r);
  EXPECT_TRUE(r.done());
  expect_matches(restored, model, rng, horizon);
  Writer again;
  restored.encode(again);
  EXPECT_EQ(again.bytes(), encoded);
  now = now_before_restore;
  for (int i = 0; i < 50; ++i) {
    Sample sample{next_time(rng, now), reference::random_value(rng),
                  Quality::kGood};
    horizon = std::max(horizon, now);
    restored.record(ItemId{2}, sample.timestamp, sample.value, sample.quality);
    model.record(ItemId{2}, sample);
  }
  expect_matches(restored, model, rng, horizon);

  // Any strict prefix is rejected; bytes after the archive are left to the
  // caller's expect_done().
  for (std::size_t cut : {std::size_t{1}, encoded.size() / 2,
                          encoded.size() - 1}) {
    Historian partial(capacity);
    Reader prefix(ByteView(encoded).first(cut));
    EXPECT_THROW(partial.decode(prefix), DecodeError) << cut;
  }
  Bytes trailing = encoded;
  trailing.push_back(0);
  Historian extra(capacity);
  Reader tr(trailing);
  extra.decode(tr);
  EXPECT_THROW(tr.expect_done(), DecodeError);
}

INSTANTIATE_TEST_SUITE_P(Capacity, HistorianModel,
                         ::testing::Values(1u, 3u, 4096u));

TEST(HistorianFootprint, FullWindowOfDoublesStaysEncoded) {
  SS_REQUIRE_HEAP_USAGE();
  const std::size_t before = test::heap_in_use();
  {
    Historian historian;
    // Two windows' worth, so the archive has slid as a replica's does.
    for (int i = 0; i < 2 * 4096; ++i) {
      historian.record(ItemId{1}, millis(i), Variant{i * 0.5}, Quality::kGood);
    }
    const std::size_t used = test::heap_in_use() - before;
    EXPECT_LE(used, 40u * 1024) << used << " bytes";
  }
}

}  // namespace
}  // namespace ss::scada

namespace ss::core {
namespace {

TEST(HistorianReplicated, ArchivesIdenticalAcrossReplicasAndQueryable) {
  ReplicatedOptions options;
  options.costs = sim::CostModel::zero();
  options.costs.hop_latency = micros(50);
  ReplicatedDeployment system(options);
  ItemId item = system.add_point("trend/sensor");
  system.start();

  for (int i = 1; i <= 8; ++i) {
    system.frontend().field_update(item, scada::Variant{double(i)});
    system.run_until(system.loop().now() + millis(40));
  }
  system.run_until(system.loop().now() + seconds(1));

  // Replicated archives are byte-identical (deterministic timestamps).
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    EXPECT_EQ(system.master(i).historian().total_samples(), 8u);
  }
  EXPECT_TRUE(system.masters_converged());

  // Query the archive through the adapter's read-only path.
  Bytes reply = system.adapter(0).execute_unordered(
      ClientId{1}, encode_query(QueryKind::kHistoryTail, item, 3));
  Reader r(reply);
  std::uint64_t n = r.varint();
  ASSERT_EQ(n, 3u);
  scada::Sample first = scada::Sample::decode(r);
  EXPECT_DOUBLE_EQ(first.value.as_double(), 6.0);

  Bytes agg_reply = system.adapter(0).execute_unordered(
      ClientId{1}, encode_query(QueryKind::kHistoryAggregate, item));
  Reader ar(agg_reply);
  EXPECT_EQ(ar.varint(), 8u);   // count
  EXPECT_DOUBLE_EQ(ar.f64(), 1.0);  // min
  EXPECT_DOUBLE_EQ(ar.f64(), 8.0);  // max
  EXPECT_DOUBLE_EQ(ar.f64(), 4.5);  // mean
}

}  // namespace
}  // namespace ss::core
