#include "scada/historian.h"

#include <algorithm>

namespace ss::scada {

Sample Historian::Series::read(Reader& r, Prior& prior) {
  Sample sample;
  sample.quality = static_cast<Quality>(
      decode_record(r, prior, sample.value, sample.timestamp, nullptr,
                    static_cast<std::uint8_t>(Quality::kMax)));
  return sample;
}

const Historian::Series* Historian::find(ItemId item) const {
  auto it = series_.find(item.value);
  return it == series_.end() ? nullptr : &it->second;
}

void Historian::record(ItemId item, SimTime timestamp, const Variant& value,
                       Quality quality) {
  Series& series = series_[item.value];
  encoding_.clear();
  encode_record(encoding_, series.last, value, timestamp, nullptr,
                static_cast<std::uint8_t>(quality));
  series.log.push_back(encoding_.bytes());
  ++total_;
  if (series.log.size() > capacity_) {
    series.log.pop_front(
        [&series](Reader& r) { Series::read(r, series.base); });
  }
}

std::vector<Sample> Historian::range(ItemId item, SimTime from,
                                     SimTime to) const {
  std::vector<Sample> out;
  const Series* series = find(item);
  if (series == nullptr) return out;
  series->for_each([&](Sample sample) {
    if (sample.timestamp >= from && sample.timestamp <= to) {
      out.push_back(std::move(sample));
    }
  });
  return out;
}

std::vector<Sample> Historian::tail(ItemId item, std::size_t n) const {
  std::vector<Sample> out;
  const Series* series = find(item);
  if (series == nullptr) return out;
  // Records have no offsets: the skipped head is decoded and dropped.
  const std::size_t size = series->log.size();
  std::size_t skip = size > n ? size - n : 0;
  out.reserve(size - skip);
  series->for_each([&](Sample sample) {
    if (skip > 0) {
      --skip;
    } else {
      out.push_back(std::move(sample));
    }
  });
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
  const Series* series = find(item);
  if (series == nullptr) return agg;
  series->for_each([&](const Sample& sample) {
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

std::size_t Historian::bytes() const {
  std::size_t total = 0;
  for (const auto& [item, series] : series_) total += series.log.bytes();
  return total;
}

void Historian::encode(Writer& w) const {
  Pieces pieces;
  encode(pieces);
  pieces.write_to(w);
}

void Historian::encode(Pieces& out) const {
  out.writer().varint(total_);
  out.writer().varint(series_.size());
  for (const auto& [item, series] : series_) {
    out.writer().varint(item);
    out.writer().varint(series.log.size());
    series.base.encode(out.writer(), /*with_op=*/false);
    for (ByteView block : series.log.blocks()) out.view(block);
  }
}

void Historian::decode(Reader& r) {
  total_ = r.varint();
  series_.clear();
  std::uint64_t n_items = r.varint();
  for (std::uint64_t i = 0; i < n_items; ++i) {
    std::uint32_t item = r.varint32();
    if (!series_.empty() && item <= series_.rbegin()->first) {
      throw DecodeError("historian items out of order");
    }
    std::uint64_t n_samples = r.varint();
    Series& series = series_.try_emplace(series_.end(), item)->second;
    series.base.decode(r, /*with_op=*/false);
    // Each sample is read against `read` and written again against
    // series.last: both move onto the same fields, sample by sample.
    Prior read = series.base;
    series.last = series.base;
    for (std::uint64_t j = 0; j < n_samples; ++j) {
      const Sample sample = Series::read(r, read);
      encoding_.clear();
      encode_record(encoding_, series.last, sample.value, sample.timestamp,
                    nullptr, static_cast<std::uint8_t>(sample.quality));
      series.log.push_back(encoding_.bytes());
    }
  }
}

}  // namespace ss::scada
