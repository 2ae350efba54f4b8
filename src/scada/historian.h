// Value archive (historian): time-series storage of item values.
//
// Eclipse NeoSCADA ships a value-archive component next to the event
// storage; operators use it for trend displays. Ours records every accepted
// item update (bounded window per item), serves range / tail / aggregate
// queries, and participates in replica snapshots — in SMaRt-SCADA the
// archive contents must be byte-identical across replicas, which only works
// because samples are stamped with the deterministic operation timestamps.
//
// Each item's samples are kept encoded in a BlockLog of small blocks, each
// coded against the sample before it (see block_log.h), freed from the
// front as the window slides, and decoded from the log's base only by
// queries. The logs are exactly the samples' section of the replica
// snapshot, so snapshot() copies them and state_digest() hashes them where
// they lie.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/serialization.h"
#include "common/types.h"
#include "scada/block_log.h"
#include "scada/item.h"
#include "scada/variant.h"

namespace ss::scada {

struct Sample {
  SimTime timestamp = 0;
  Variant value;
  Quality quality = Quality::kGood;

  /// The wire form of a history query's reply.
  void encode(Writer& w) const {
    w.i64(timestamp);
    value.encode(w);
    w.enumeration(quality);
  }
  static Sample decode(Reader& r) {
    Sample s;
    s.timestamp = r.i64();
    s.value = Variant::decode(r);
    s.quality =
        r.enumeration<Quality>(static_cast<std::uint64_t>(Quality::kMax));
    return s;
  }
  bool operator==(const Sample&) const = default;
};

/// min/max/mean/count over a time range (numeric samples only).
struct Aggregate {
  std::uint64_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
};

class Historian {
 public:
  /// Keeps at most `samples_per_item` recent samples per item (0 = 4096).
  explicit Historian(std::size_t samples_per_item = 4096)
      : capacity_(samples_per_item == 0 ? 4096 : samples_per_item) {}

  void record(ItemId item, SimTime timestamp, const Variant& value,
              Quality quality);

  /// Samples with timestamp in [from, to], oldest first.
  std::vector<Sample> range(ItemId item, SimTime from, SimTime to) const;

  /// The most recent `n` samples, oldest first.
  std::vector<Sample> tail(ItemId item, std::size_t n) const;

  std::optional<Sample> latest(ItemId item) const;

  Aggregate aggregate(ItemId item, SimTime from, SimTime to) const;

  std::uint64_t total_samples() const { return total_; }
  std::size_t items_tracked() const { return series_.size(); }
  /// Encoded bytes of the resident samples, over all items.
  std::size_t bytes() const;

  /// The total and item count; per item, its id, sample count, base (the
  /// fields of its last evicted sample, zero while none was) and samples.
  void encode(Writer& w) const;
  /// The same bytes as encode(), with each item's samples as views into its
  /// log (valid until the next record or decode).
  void encode(Pieces& out) const;
  /// Decodes every sample and stores its canonical re-encoding. Throws
  /// DecodeError on truncation, on item ids out of order, and on a sample
  /// or base that decode_record() or Prior::decode() rejects.
  void decode(Reader& r);

 private:
  /// A sample of a steadily sampled double takes about 6 bytes: 2 KiB
  /// blocks hold about three hundred and leave at most two partly used
  /// blocks per item.
  static constexpr std::size_t kBlockBytes = 2048;

  struct Series {
    BlockLog log{kBlockBytes};
    /// The fields of the sample before the oldest resident one, and of the
    /// newest one.
    Prior base;
    Prior last;

    /// Decodes the samples from the base and passes each to `f`, oldest
    /// first.
    template <typename F>
    void for_each(F&& f) const {
      Prior prior = base;
      log.for_each([&](Reader& r) { f(read(r, prior)); });
    }
    /// Reads one sample coded against `prior`.
    static Sample read(Reader& r, Prior& prior);
  };

  const Series* find(ItemId item) const;

  std::size_t capacity_;
  std::map<std::uint32_t, Series> series_;
  std::uint64_t total_ = 0;
  /// Reused by record() for each sample's encoding.
  Writer encoding_;
};

}  // namespace ss::scada
