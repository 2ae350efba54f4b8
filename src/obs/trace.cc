#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

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
  const std::size_t spans = tracer.span_count();
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

template <typename Emit>
void FlightRecorder::write_pieces(Emit&& emit) const {
  const Tracer& tracer = Tracer::instance();
  const std::size_t spans = tracer.span_count();
  Window w = window();
  char line[160];
  std::snprintf(line, sizeof(line),
                "--- flight recorder (%zu of last %zu events) ---\n",
                w.events, capacity_);
  emit(std::string_view(line));
  auto stamp = [&](SimTime at) {
    std::snprintf(line, sizeof(line), "[%12.3fms] ",
                  static_cast<double>(at) / kNanosPerMilli);
    emit(std::string_view(line));
  };
  while (w.span < spans || w.note < ring_.size()) {
    // A note precedes span number j iff fewer than j + 1 spans had
    // completed when it arrived.
    if (w.note < ring_.size() &&
        (w.span == spans ||
         ring_[w.note].spans_before <= w.first + w.span)) {
      const Entry& e = ring_[w.note++];
      stamp(e.at);
      emit(std::string_view(e.text));
    } else {
      const Span span = tracer.span(w.span++);
      stamp(span.end);
      std::snprintf(line, sizeof(line),
                    "span op=%" PRIu64 " stage=%s component=%s dur=%" PRId64
                    "ns",
                    span.op, span.stage.c_str(), span.component.c_str(),
                    span.duration());
      emit(std::string_view(line));
    }
    emit(std::string_view("\n"));
  }
  emit(std::string_view("--- end flight recorder ---\n"));
}

std::string FlightRecorder::dump_string() const {
  std::string out;
  write_pieces([&out](std::string_view piece) { out += piece; });
  return out;
}

void FlightRecorder::dump(std::FILE* out) const {
  // Pieces are batched through a stack buffer: stderr is unbuffered, and a
  // write(2) per piece would make one dump thousands of system calls.
  char buf[4096];
  std::size_t used = 0;
  write_pieces([&](std::string_view piece) {
    if (used + piece.size() > sizeof(buf)) {
      std::fwrite(buf, 1, used, out);
      used = 0;
    }
    if (piece.size() > sizeof(buf)) {
      std::fwrite(piece.data(), 1, piece.size(), out);
      return;
    }
    std::memcpy(buf + used, piece.data(), piece.size());
    used += piece.size();
  });
  std::fwrite(buf, 1, used, out);
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

std::uint32_t Tracer::intern(const char* name) {
  const std::string_view text(name);
  if (const auto it = index_.find(text); it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(Name{std::string(text), nullptr});
  index_.emplace(names_.back().text, id);
  return id;
}

void Tracer::begin(OpId op, const char* stage, const char* component) {
  if (op.value == 0) return;  // unattributed traffic (e.g. subscribes)
  const Key key{op.value, intern(stage)};
  const std::uint64_t seq = next_seq_++;
  open_[key] = Open{intern(component), now(), seq};
  open_order_.emplace_back(key, seq);
  evict_open_if_needed();
}

void Tracer::end(OpId op, const char* stage) {
  if (op.value == 0) return;
  const auto name = index_.find(std::string_view(stage));
  if (name == index_.end()) return;
  const auto it = open_.find(Key{op.value, name->second});
  if (it == open_.end()) return;
  const Record record{op.value, it->second.begin, now(), name->second,
                      it->second.component};
  open_.erase(it);
  finish(record);
}

void Tracer::record(OpId op, const char* stage, const char* component,
                    SimTime begin, SimTime end) {
  if (op.value == 0) return;
  finish(Record{op.value, begin, end, intern(stage), intern(component)});
}

void Tracer::finish(const Record& record) {
  if (ring_.size() < capacity_) {
    if (ring_.empty()) ring_.reserve(capacity_);
    ring_.push_back(record);
  } else {
    ring_[head_] = record;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  }
  ++completed_;
  Name& stage = names_[record.stage];
  if (stage.stage_histogram == nullptr) {
    stage.stage_histogram =
        &Registry::instance().histogram("stage/" + stage.text);
  }
  stage.stage_histogram->record(record.end - record.begin);
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

Span Tracer::to_span(const Record& record) const {
  Span span;
  span.op = record.op;
  span.stage = names_[record.stage].text;
  span.component = names_[record.component].text;
  span.begin = record.begin;
  span.end = record.end;
  return span;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(span(i));
  return out;
}

std::vector<Span> Tracer::spans_for(OpId op) const {
  std::vector<Span> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (at(i).op == op.value) out.push_back(span(i));
  }
  return out;
}

bool Tracer::has_span(OpId op, const std::string& stage) const {
  const auto name = index_.find(std::string_view(stage));
  if (name == index_.end()) return false;
  for (const Record& r : ring_) {
    if (r.op == op.value && r.stage == name->second) return true;
  }
  return false;
}

void Tracer::dump_jsonl(std::FILE* out) const {
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Record& r = at(i);
    std::fprintf(out,
                 "{\"op\":%" PRIu64
                 ",\"stage\":\"%s\",\"component\":\"%s\",\"begin_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"dur_ns\":%" PRId64 "}\n",
                 r.op, names_[r.stage].text.c_str(),
                 names_[r.component].text.c_str(), r.begin, r.end,
                 r.end - r.begin);
  }
}

void Tracer::set_capacity(std::size_t n) {
  capacity_ = n == 0 ? 1 : n;
  if (ring_.empty()) return;
  // Keep the newest records, oldest first, so the ring fills in order again.
  const std::size_t keep = std::min(ring_.size(), capacity_);
  std::vector<Record> ring;
  ring.reserve(capacity_);
  for (std::size_t i = ring_.size() - keep; i < ring_.size(); ++i) {
    ring.push_back(at(i));
  }
  ring_ = std::move(ring);
  head_ = 0;
}

void Tracer::reset() {
  open_.clear();
  open_order_.clear();
  std::vector<Record>().swap(ring_);
  head_ = 0;
  names_.clear();
  index_.clear();
  next_seq_ = 1;
}

}  // namespace ss::obs
