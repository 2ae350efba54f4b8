#include "obs/metrics.h"

#include <bit>
#include <cinttypes>
#include <cmath>
#include <utility>

namespace ss::obs {

// --- Histogram -------------------------------------------------------------

std::size_t Histogram::index_of(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  // Leading-bit position e in [kSubBits, 63]; group g >= 1 covers
  // [kSubBuckets << (g-1), kSubBuckets << g) in kSubBuckets equal steps.
  const std::uint32_t e = static_cast<std::uint32_t>(std::bit_width(v)) - 1;
  const std::uint32_t g = e - kSubBits + 1;
  const std::uint64_t sub = (v >> (e - kSubBits)) - kSubBuckets;
  return static_cast<std::size_t>(g) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::lower_bound_of(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t g = index / kSubBuckets;
  const std::size_t sub = index % kSubBuckets;
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (g - 1);
}

std::uint64_t Histogram::width_of(std::size_t index) {
  if (index < kSubBuckets) return 1;
  return std::uint64_t{1} << (index / kSubBuckets - 1);
}

void Histogram::record(std::int64_t value) {
  if (value < 0) value = 0;  // latencies; clamp defensively
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  ++buckets_[index_of(static_cast<std::uint64_t>(value))];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += static_cast<double>(value);
}

std::int64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest rank: the k-th smallest recorded value, k in [1, count].
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const std::uint64_t lb = lower_bound_of(i);
      const std::uint64_t mid = lb + (width_of(i) - 1) / 2;
      // Never report outside the observed range.
      const std::uint64_t lo = static_cast<std::uint64_t>(min_);
      const std::uint64_t hi = static_cast<std::uint64_t>(max_);
      return static_cast<std::int64_t>(mid < lo ? lo : (mid > hi ? hi : mid));
    }
  }
  return max_;
}

void Histogram::reset() {
  buckets_.clear();
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
}

// --- SourceHandle ----------------------------------------------------------

SourceHandle::SourceHandle(SourceHandle&& other) noexcept
    : registry_(other.registry_), id_(other.id_) {
  other.registry_ = nullptr;
  other.id_ = 0;
}

SourceHandle& SourceHandle::operator=(SourceHandle&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

SourceHandle::~SourceHandle() { release(); }

void SourceHandle::release() {
  if (registry_ != nullptr) registry_->remove_source(id_);
  registry_ = nullptr;
  id_ = 0;
}

// --- Registry --------------------------------------------------------------

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

std::uint64_t& Registry::counter(const std::string& name) {
  return counters_[name];
}

double& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name) {
  return histograms_[name];
}

SourceHandle Registry::add_source(std::string prefix, SnapshotFn fn) {
  const std::uint64_t id = next_source_id_++;
  sources_.push_back(Source{id, std::move(prefix), std::move(fn)});
  return SourceHandle(this, id);
}

void Registry::remove_source(std::uint64_t id) {
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->id == id) {
      sources_.erase(it);
      return;
    }
  }
}

void Registry::for_each_histogram(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  for (const auto& [name, h] : histograms_) fn(name, h);
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  out += buf;
}

}  // namespace

std::string Registry::json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_escaped(out, name);
    out += "\":";
    append_number(out, static_cast<double>(v));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_escaped(out, name);
    out += "\":";
    append_number(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_escaped(out, name);
    out += "\":{\"count\":";
    append_number(out, static_cast<double>(h.count()));
    out += ",\"min\":";
    append_number(out, static_cast<double>(h.min()));
    out += ",\"max\":";
    append_number(out, static_cast<double>(h.max()));
    out += ",\"mean\":";
    append_number(out, h.mean());
    out += ",\"p50\":";
    append_number(out, static_cast<double>(h.percentile(50)));
    out += ",\"p90\":";
    append_number(out, static_cast<double>(h.percentile(90)));
    out += ",\"p99\":";
    append_number(out, static_cast<double>(h.percentile(99)));
    out.push_back('}');
  }
  out += "},\"sources\":{";
  first = true;
  for (const auto& source : sources_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_escaped(out, source.prefix);
    out += "\":{";
    bool first_field = true;
    source.fn([&](const char* name, double value) {
      if (!first_field) out.push_back(',');
      first_field = false;
      out.push_back('"');
      append_escaped(out, name);
      out += "\":";
      append_number(out, value);
    });
    out.push_back('}');
  }
  out += "}}";
  return out;
}

void Registry::dump_json(std::FILE* out) const {
  const std::string s = json();
  std::fwrite(s.data(), 1, s.size(), out);
  std::fputc('\n', out);
}

void Registry::reset() {
  for (auto& [name, value] : counters_) value = 0;
  for (auto& [name, value] : gauges_) value = 0;
  for (auto& [name, histogram] : histograms_) histogram.reset();
}

}  // namespace ss::obs
