#include "scada/historian.h"

#include <algorithm>

namespace ss::scada {

const BlockLog* Historian::find(ItemId item) const {
  auto it = series_.find(item.value);
  return it == series_.end() ? nullptr : &it->second;
}

void Historian::record(ItemId item, SimTime timestamp, const Variant& value,
                       Quality quality) {
  BlockLog& samples =
      series_.try_emplace(item.value, kBlockBytes).first->second;
  Writer w(32);
  Sample::encode(w, timestamp, value, quality);
  samples.push_back(w.bytes());
  ++total_;
  if (samples.size() > capacity_) samples.pop_front();
}

std::vector<Sample> Historian::range(ItemId item, SimTime from,
                                     SimTime to) const {
  std::vector<Sample> out;
  const BlockLog* samples = find(item);
  if (samples == nullptr) return out;
  samples->decode_each<Sample>([&](Sample sample) {
    if (sample.timestamp >= from && sample.timestamp <= to) {
      out.push_back(std::move(sample));
    }
  });
  return out;
}

std::vector<Sample> Historian::tail(ItemId item, std::size_t n) const {
  std::vector<Sample> out;
  const BlockLog* samples = find(item);
  if (samples == nullptr) return out;
  std::size_t start = samples->size() > n ? samples->size() - n : 0;
  samples->decode_each<Sample>(
      [&](Sample sample) { out.push_back(std::move(sample)); }, start);
  return out;
}

std::optional<Sample> Historian::latest(ItemId item) const {
  std::vector<Sample> last = tail(item, 1);
  if (last.empty()) return std::nullopt;
  return std::move(last.front());
}

Aggregate Historian::aggregate(ItemId item, SimTime from, SimTime to) const {
  Aggregate agg;
  double sum = 0;
  const BlockLog* samples = find(item);
  if (samples == nullptr) return agg;
  samples->decode_each<Sample>([&](const Sample& sample) {
    if (sample.timestamp < from || sample.timestamp > to) return;
    if (!sample.value.is_numeric()) return;
    double v = sample.value.as_double();
    if (agg.count == 0) {
      agg.min = agg.max = v;
    } else {
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
    }
    sum += v;
    ++agg.count;
  });
  if (agg.count > 0) agg.mean = sum / static_cast<double>(agg.count);
  return agg;
}

void Historian::encode(Writer& w) const {
  Pieces pieces;
  encode(pieces);
  pieces.write_to(w);
}

void Historian::encode(Pieces& out) const {
  out.writer().varint(total_);
  out.writer().varint(series_.size());
  for (const auto& [item, samples] : series_) {
    out.writer().varint(item);
    out.writer().varint(samples.size());
    for (ByteView block : samples.blocks()) out.view(block);
  }
}

void Historian::decode(Reader& r) {
  total_ = r.varint();
  series_.clear();
  std::uint64_t n_items = r.varint();
  for (std::uint64_t i = 0; i < n_items; ++i) {
    std::uint32_t item = r.varint32();
    std::uint64_t n_samples = r.varint();
    BlockLog& samples = series_.try_emplace(item, kBlockBytes).first->second;
    for (std::uint64_t j = 0; j < n_samples; ++j) {
      Writer w(32);
      Sample::decode(r).encode(w);
      samples.push_back(w.bytes());
    }
  }
}

}  // namespace ss::scada
