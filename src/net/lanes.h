// CPU service-time modelling.
//
// The paper attributes part of SMaRt-SCADA's overhead to the refactored,
// single-threaded SCADA Master ("it does not take full advantage of
// multi-core CPUs", §V-B). We model a component's CPU as a bank of k
// identical service lanes: work submitted to the bank starts on the earliest
// free lane and completes after its cost. The baseline NeoSCADA Master runs
// with k = 8 (two quad-core Xeons, as in the paper's testbed); the
// deterministic SMaRt-SCADA Master runs with k = 1.
//
// The model is expressed against the Transport seam, so components that
// charge virtual CPU cost work on any backend. On the simulated backend
// completions land at exact virtual times, each one a timer. On the socket
// backend costs are usually zero (real CPUs charge themselves), and a job
// that costs nothing and finds a lane free runs in place, inside submit():
// it needs no timer, and a received message is handled before the next one
// is read. A non-zero cost degrades gracefully into a real delay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/transport.h"

namespace ss::net {

class Lanes {
 public:
  Lanes(Transport& transport, std::uint32_t lanes)
      : transport_(transport),
        free_at_(std::max<std::uint32_t>(lanes, 1), 0) {}

  std::uint32_t lanes() const {
    return static_cast<std::uint32_t>(free_at_.size());
  }

  /// Schedules `done` to run when a lane has spent `cost` ns on this work
  /// item. Queueing delay is implicit: if every lane is busy the work waits
  /// for the earliest completion. On a transport that models no CPU, work
  /// that would complete now runs before submit() returns.
  template <typename Done>
  void submit(SimTime cost, Done&& done) {
    auto it = std::min_element(free_at_.begin(), free_at_.end());
    SimTime now = transport_.now();
    SimTime start = std::max(*it, now);
    SimTime finish = start + cost;
    *it = finish;
    busy_ns_ += cost;
    ++jobs_;
    if (finish == now && !transport_.models_cpu()) {
      done();
      return;
    }
    transport_.schedule(finish - now,
                        std::function<void()>(std::forward<Done>(done)));
  }

  /// Time at which the next submitted job could start (for backlog probes).
  SimTime earliest_free() const {
    return *std::min_element(free_at_.begin(), free_at_.end());
  }

  SimTime busy_ns() const { return busy_ns_; }
  std::uint64_t jobs() const { return jobs_; }

 private:
  Transport& transport_;
  std::vector<SimTime> free_at_;
  SimTime busy_ns_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace ss::net
