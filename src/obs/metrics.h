// Unified observability: per-process metrics registry.
//
// The repo grew ~10 per-component `Stats` structs (SocketStats,
// ReplicaStats, AdapterStats, PushVoterStats, ...) that are cheap to bump
// but invisible from the outside: nothing aggregated them, nothing could
// dump them, and nothing computed percentiles. The Registry fixes that
// without touching a single increment call site:
//
//  * Components keep their plain structs and `++stats_.field` increments.
//    At construction they register a *snapshot source* — a callback that
//    enumerates (name, value) pairs on demand. The RAII SourceHandle
//    removes the source when the component dies, so short-lived components
//    in tests don't leak registrations.
//  * Latency measurements go into log-linear Histograms (HdrHistogram
//    style): 16 sub-buckets per power of two, so any recorded value is off
//    by at most ~6% when read back through percentile(). A histogram is
//    ~8 KB and record() is a handful of arithmetic ops — cheap enough for
//    the hot path.
//  * dump_json() serialises everything (owned counters/gauges, histogram
//    percentiles, polled sources) as one JSON object per call; deploy
//    processes emit it periodically and on SIGUSR1.
//
// Everything here is single-threaded by design, like the rest of the
// codebase: each process runs one event loop, so there are no locks.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ss::obs {

/// Log-linear histogram of non-negative integer values (typically latency
/// in nanoseconds). Values below 2^kSubBits are exact; above that each
/// power-of-two range is split into kSubBuckets equal sub-buckets, bounding
/// the relative error of percentile() by 1/kSubBuckets.
class Histogram {
 public:
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;  // 16
  // Values occupy up to 64 bits: one unit-width group for [0, 16) plus one
  // 16-wide group per leading-bit position from 4 to 63.
  static constexpr std::size_t kBucketCount = kSubBuckets * 61;

  void record(std::int64_t value);

  std::uint64_t count() const { return count_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return count_ ? max_ : 0; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Nearest-rank percentile, p in [0, 100]. Returns the representative
  /// (midpoint) value of the bucket holding the rank; 0 when empty.
  std::int64_t percentile(double p) const;

  void reset();

 private:
  static std::size_t index_of(std::uint64_t v);
  static std::uint64_t lower_bound_of(std::size_t index);
  static std::uint64_t width_of(std::size_t index);

  std::vector<std::uint64_t> buckets_;  // sized lazily on first record()
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

class Registry;

/// RAII registration of a snapshot source; removes itself on destruction.
class SourceHandle {
 public:
  SourceHandle() = default;
  SourceHandle(SourceHandle&& other) noexcept;
  SourceHandle& operator=(SourceHandle&& other) noexcept;
  ~SourceHandle();

  SourceHandle(const SourceHandle&) = delete;
  SourceHandle& operator=(const SourceHandle&) = delete;

 private:
  friend class Registry;
  SourceHandle(Registry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}
  void release();

  Registry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Per-process metrics registry. Holds owned counters/gauges/histograms
/// (created on first access by name) and polled snapshot sources backed by
/// the components' existing Stats structs.
class Registry {
 public:
  /// Emit callback handed to snapshot sources: (field name, value).
  using Emit = std::function<void(const char* name, double value)>;
  /// A source enumerates its current stats fields through `emit`.
  using SnapshotFn = std::function<void(const Emit& emit)>;

  static Registry& instance();

  /// Created on first access by name. The reference stays valid for the
  /// process's lifetime, so hot paths resolve an instrument once and keep
  /// it as a handle.
  std::uint64_t& counter(const std::string& name);
  double& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers a polled source under `prefix` (e.g. "replica/2"). Fields
  /// appear in dumps as prefix.field. Keep the handle alive as long as the
  /// memory the callback reads.
  [[nodiscard]] SourceHandle add_source(std::string prefix, SnapshotFn fn);

  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

  /// One JSON object covering counters, gauges, histogram summaries
  /// (count/min/max/mean/p50/p90/p99), and all polled sources.
  std::string json() const;
  void dump_json(std::FILE* out) const;

  /// Zeroes owned counters/gauges/histograms in place, so a reference a
  /// component took from counter()/gauge()/histogram() stays valid and
  /// keeps recording into what json() reports. Sources stay registered
  /// (their backing structs belong to the components).
  void reset();

 private:
  friend class SourceHandle;
  void remove_source(std::uint64_t id);

  struct Source {
    std::uint64_t id;
    std::string prefix;
    SnapshotFn fn;
  };

  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<Source> sources_;
  std::uint64_t next_source_id_ = 1;
};

}  // namespace ss::obs
