#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ss::obs {

// --- FlightRecorder --------------------------------------------------------

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_capacity(std::size_t n) {
  capacity_ = n == 0 ? 1 : n;
  while (ring_.size() > capacity_) ring_.pop_front();
}

void FlightRecorder::note(SimTime at, std::string text) {
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(Entry{at, std::move(text), Tracer::instance().completed()});
}

void FlightRecorder::capture_logs() {
  Logger::set_capture([](LogLevel level, SimTime now, const char* component,
                         const char* message) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "log %-5s %s: %s",
                  Logger::level_name(level), component, message);
    FlightRecorder::instance().note(now, buf);
  });
}

FlightRecorder::Window FlightRecorder::window() const {
  const Tracer& tracer = Tracer::instance();
  const std::size_t spans = tracer.spans().size();
  Window w;
  w.first = tracer.completed() - spans;
  // Spans completed before clear() stay in the Tracer but not in the dump.
  const std::size_t oldest_span =
      hidden_spans_ > w.first
          ? static_cast<std::size_t>(
                std::min<std::uint64_t>(hidden_spans_ - w.first, spans))
          : 0;
  // Walk back from the newest event. Note n-1 is newer than span s-1 (span
  // number first + s - 1) iff that span had completed when it arrived.
  w.span = spans;
  w.note = ring_.size();
  while (w.events < capacity_) {
    const bool note_left = w.note > 0;
    const bool span_left = w.span > oldest_span;
    if (!note_left && !span_left) break;
    if (note_left &&
        (!span_left || ring_[w.note - 1].spans_before >= w.first + w.span)) {
      --w.note;
    } else {
      --w.span;
    }
    ++w.events;
  }
  return w;
}

std::size_t FlightRecorder::size() const { return window().events; }

std::string FlightRecorder::dump_string() const {
  const std::deque<Span>& spans = Tracer::instance().spans();
  Window w = window();
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "--- flight recorder (%zu of last %zu events) ---\n",
                w.events, capacity_);
  out += line;
  auto stamp = [&](SimTime at) {
    std::snprintf(line, sizeof(line), "[%12.3fms] ",
                  static_cast<double>(at) / kNanosPerMilli);
    out += line;
  };
  while (w.span < spans.size() || w.note < ring_.size()) {
    // A note precedes span number j iff fewer than j + 1 spans had
    // completed when it arrived.
    if (w.note < ring_.size() &&
        (w.span == spans.size() ||
         ring_[w.note].spans_before <= w.first + w.span)) {
      const Entry& e = ring_[w.note++];
      stamp(e.at);
      out += e.text;
    } else {
      const Span& span = spans[w.span++];
      stamp(span.end);
      std::snprintf(line, sizeof(line),
                    "span op=%" PRIu64 " stage=%s component=%s dur=%" PRId64
                    "ns",
                    span.op, span.stage.c_str(), span.component.c_str(),
                    span.duration());
      out += line;
    }
    out.push_back('\n');
  }
  out += "--- end flight recorder ---\n";
  return out;
}

void FlightRecorder::dump(std::FILE* out) const {
  const std::string s = dump_string();
  std::fwrite(s.data(), 1, s.size(), out);
  std::fflush(out);
}

void FlightRecorder::clear() {
  ring_.clear();
  hidden_spans_ = Tracer::instance().completed();
}

// --- Tracer ----------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::begin(OpId op, const char* stage, const char* component) {
  if (op.value == 0) return;  // unattributed traffic (e.g. subscribes)
  const Key key{op.value, stage};
  const std::uint64_t seq = next_seq_++;
  open_[key] = Open{component, now(), seq};
  open_order_.emplace_back(key, seq);
  evict_open_if_needed();
}

void Tracer::end(OpId op, const char* stage) {
  if (op.value == 0) return;
  const auto it = open_.find(Key{op.value, stage});
  if (it == open_.end()) return;
  Span span;
  span.op = op.value;
  span.stage = stage;
  span.component = it->second.component;
  span.begin = it->second.begin;
  span.end = now();
  open_.erase(it);
  finish(span);
}

void Tracer::record(OpId op, const char* stage, const char* component,
                    SimTime begin, SimTime end) {
  if (op.value == 0) return;
  Span span;
  span.op = op.value;
  span.stage = stage;
  span.component = component;
  span.begin = begin;
  span.end = end;
  finish(span);
}

void Tracer::finish(const Span& span) {
  if (spans_.size() >= capacity_) spans_.pop_front();
  spans_.push_back(span);
  ++completed_;
  Registry::instance()
      .histogram(std::string("stage/") + span.stage)
      .record(span.duration());
}

void Tracer::evict_open_if_needed() {
  // Ops that never complete (lost writes, timeouts) would otherwise leak
  // open spans; drop the oldest once the table is full.
  constexpr std::size_t kMaxOpen = 4096;
  while (open_.size() > kMaxOpen && !open_order_.empty()) {
    const auto [key, seq] = open_order_.front();
    open_order_.pop_front();
    const auto it = open_.find(key);
    if (it != open_.end() && it->second.seq == seq) open_.erase(it);
  }
  // Keep the FIFO itself bounded despite stale entries.
  while (open_order_.size() > 4 * kMaxOpen) open_order_.pop_front();
}

std::vector<Span> Tracer::spans_for(OpId op) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.op == op.value) out.push_back(s);
  }
  return out;
}

bool Tracer::has_span(OpId op, const std::string& stage) const {
  for (const Span& s : spans_) {
    if (s.op == op.value && s.stage == stage) return true;
  }
  return false;
}

void Tracer::dump_jsonl(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"op\":%" PRIu64
                 ",\"stage\":\"%s\",\"component\":\"%s\",\"begin_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"dur_ns\":%" PRId64 "}\n",
                 s.op, s.stage.c_str(), s.component.c_str(), s.begin, s.end,
                 s.duration());
  }
}

void Tracer::set_capacity(std::size_t n) {
  capacity_ = n == 0 ? 1 : n;
  while (spans_.size() > capacity_) spans_.pop_front();
}

void Tracer::reset() {
  open_.clear();
  open_order_.clear();
  spans_.clear();
  next_seq_ = 1;
}

}  // namespace ss::obs
