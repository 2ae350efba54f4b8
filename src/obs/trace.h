// Unified observability: op-level trace spans and the flight recorder.
//
// A SCADA operation already carries a process-wide identity — the OpId
// minted by the HMI or Frontend and propagated in every ScadaMessage's
// MsgContext (the paper's ContextInfo). The Tracer piggybacks on it: each
// component brackets its part of the op with begin(op, stage) / end(op,
// stage), and the completed spans form a cross-component timeline:
//
//   hmi > frontend > agreement > master/adapter > rtu > voter
//
// Spans are process-local (begin and end always run in the same process),
// so durations need no cross-host clock sync. In the sim backend every
// component shares one virtual clock and spans from different "processes"
// line up exactly; in the UDP deployment each process dumps its spans to
// SS_TRACE_DIR and the orchestrator merges them by op id.
//
// The FlightRecorder is a bounded window over recent spans and log lines,
// dumped to stderr when a chaos invariant fires or a deploy process
// crashes — the last few thousand events before the failure, for free. It
// stores only the log lines: spans live once, in the Tracer's ring, and are
// merged with the lines when a dump is printed.
//
// Single-threaded like the rest of the codebase; no locks.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace ss::obs {

class Histogram;

struct Span {
  std::uint64_t op = 0;
  std::string stage;      // frontend | agreement | master | adapter | rtu | voter | hmi
  std::string component;  // emitting component, e.g. "proxy/frontend"
  SimTime begin = 0;
  SimTime end = 0;

  SimTime duration() const { return end - begin; }
};

/// Bounded window over recent observability events: the completed spans the
/// Tracer retains and the log lines noted here. Events are ordered by one
/// shared admission counter, the Tracer's completed-span count: a note
/// records how many spans had completed when it arrived. dump() prints the
/// newest capacity() events — cheap enough to keep always-on, detailed
/// enough to explain a crash.
class FlightRecorder {
 public:
  static FlightRecorder& instance();

  void set_capacity(std::size_t n);
  std::size_t capacity() const { return capacity_; }
  /// Events the next dump() prints (spans and notes together).
  std::size_t size() const;

  void note(SimTime at, std::string text);

  /// Installs a Logger capture hook so every SS_LOG line (at any level)
  /// is recorded here in addition to its normal destination.
  void capture_logs();

  /// The dump as one string; dump() writes the same bytes.
  std::string dump_string() const;
  /// Writes the dump to `out` as it is formatted, a few lines at a time:
  /// it builds no string of the whole window, so a dump from a crash or
  /// signal handler allocates next to nothing.
  void dump(std::FILE* out) const;
  /// Drops the notes and hides every span completed so far; the Tracer
  /// keeps those spans.
  void clear();

 private:
  struct Entry {
    SimTime at = 0;
    std::string text;
    std::uint64_t spans_before = 0;  // Tracer::completed() at admission
  };
  /// The newest capacity() visible events: Tracer::span(span..) and
  /// ring_[note..].
  struct Window {
    std::uint64_t first = 0;  // span number of Tracer::span(0)
    std::size_t span = 0;
    std::size_t note = 0;
    std::size_t events = 0;
  };
  Window window() const;
  /// The one formatting loop behind dump() and dump_string(): passes the
  /// dump to `emit` in order, as string_views of a few pieces per line.
  template <typename Emit>
  void write_pieces(Emit&& emit) const;

  std::deque<Entry> ring_;
  std::size_t capacity_ = 4096;
  std::uint64_t hidden_spans_ = 0;  // spans completed before clear()
};

/// Per-process span tracker keyed by (op, stage). begin()/end() cover async
/// stages; record() covers synchronous ones measured by the caller.
///
/// Completed spans are kept as fixed 32-byte records in one ring of
/// capacity() slots, reserved when the first span completes. Stage and
/// component names are interned once, by content (components pass
/// `endpoint_.c_str()`, whose storage dies with them), and each stage's
/// `stage/<name>` histogram is resolved into a handle once. Span is the
/// value type the read side builds.
class Tracer {
 public:
  static Tracer& instance();

  /// Time source for begin()/end(). Deployments point this at their
  /// transport clock (sim virtual time or socket monotonic time) and clear
  /// it on teardown. Unset clock reads as 0 — spans still form, with zero
  /// durations.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  SimTime now() const { return clock_ ? clock_() : 0; }

  void begin(OpId op, const char* stage, const char* component = "");
  /// Completes an open span; no-op if begin() was never called for the key.
  void end(OpId op, const char* stage);
  /// Records an already-measured span in one call.
  void record(OpId op, const char* stage, const char* component, SimTime begin,
              SimTime end);

  /// Completed spans, oldest first, bounded by capacity().
  std::vector<Span> spans() const;
  /// How many completed spans are retained, and the i-th oldest of them.
  std::size_t span_count() const { return ring_.size(); }
  Span span(std::size_t i) const { return to_span(at(i)); }
  /// Spans completed since the process started; reset() keeps counting, so
  /// span(i) is span number completed() - span_count() + i.
  std::uint64_t completed() const { return completed_; }
  std::vector<Span> spans_for(OpId op) const;
  bool has_span(OpId op, const std::string& stage) const;

  void dump_jsonl(std::FILE* out) const;

  std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t n);
  /// Drops completed and open spans and frees the ring; keeps the clock.
  void reset();

 private:
  /// A completed span as the ring stores it; names are indices into names_.
  struct Record {
    std::uint64_t op = 0;
    SimTime begin = 0;
    SimTime end = 0;
    std::uint32_t stage = 0;
    std::uint32_t component = 0;
  };
  static_assert(sizeof(Record) <= 32);
  struct Name {
    std::string text;
    Histogram* stage_histogram = nullptr;  // resolved on first use as a stage
  };
  struct Open {
    std::uint32_t component = 0;
    SimTime begin = 0;
    std::uint64_t seq = 0;  // admission order, for FIFO eviction
  };
  using Key = std::pair<std::uint64_t, std::uint32_t>;  // (op, stage name)

  std::uint32_t intern(const char* name);
  const Record& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }
  Span to_span(const Record& record) const;
  void finish(const Record& record);
  void evict_open_if_needed();

  std::function<SimTime()> clock_;
  /// Interned names; a deque, so the views index_ holds stay valid.
  std::deque<Name> names_;
  std::unordered_map<std::string_view, std::uint32_t> index_;
  std::map<Key, Open> open_;
  // FIFO of (key, seq) for bounding open_; entries whose seq no longer
  // matches are stale (the span ended or was restarted) and are skipped.
  std::deque<std::pair<Key, std::uint64_t>> open_order_;
  /// The ring: filled in order up to capacity_, then overwritten from
  /// head_, the oldest record.
  std::vector<Record> ring_;
  std::size_t head_ = 0;
  std::size_t capacity_ = 8192;
  std::uint64_t next_seq_ = 1;
  std::uint64_t completed_ = 0;
};

}  // namespace ss::obs
