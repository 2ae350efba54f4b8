// Shared helpers for the figure-reproduction benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bft/executable.h"
#include "common/serialization.h"
#include "core/baseline_deployment.h"
#include "core/replicated_deployment.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ss::bench {

/// Per-stage latency summary pulled from the Tracer's "stage/<name>"
/// histograms, in microseconds.
struct StageSummary {
  std::string stage;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t samples = 0;
};

/// Clears the metrics registry and tracer so the stage histograms reflect
/// exactly one bench configuration. Call before each measured run.
inline void reset_observability() {
  obs::Registry::instance().reset();
  obs::Tracer::instance().reset();
}

/// Snapshot of every populated stage histogram. The Tracer feeds these as
/// spans complete, so after a run this is the per-stage latency breakdown
/// of everything that op ids flowed through.
inline std::vector<StageSummary> stage_breakdown() {
  std::vector<StageSummary> out;
  obs::Registry::instance().for_each_histogram(
      [&](const std::string& name, const obs::Histogram& h) {
        if (name.rfind("stage/", 0) != 0 || h.count() == 0) return;
        out.push_back(StageSummary{
            name.substr(6), static_cast<double>(h.percentile(50)) / 1000.0,
            static_cast<double>(h.percentile(99)) / 1000.0, h.count()});
      });
  return out;
}

inline void print_stage_breakdown(const std::vector<StageSummary>& stages) {
  for (const StageSummary& s : stages) {
    std::printf("  stage %-10s p50 %9.1f us  p99 %9.1f us  (%llu spans)\n",
                s.stage.c_str(), s.p50_us, s.p99_us,
                static_cast<unsigned long long>(s.samples));
  }
}

/// Open-loop workload: calls `tick(scheduled)` at `rate_per_sec` for
/// `duration`. Every arrival time is fixed up front against an absolute
/// epoch (arrival k fires at epoch + k*period, never at "previous tick +
/// period"), and the tick receives its *scheduled* time — latency probes
/// must measure from it, not from loop.now() at emission. Chained relative
/// scheduling would let any tick that fires late push every later arrival
/// back, silently thinning the workload exactly when the system is slow —
/// the coordinated-omission failure mode the src/load driver exists to
/// avoid (see load/schedule.h).
inline void drive_open_loop(sim::EventLoop& loop, double rate_per_sec,
                            SimTime duration,
                            const std::function<void(SimTime scheduled)>& tick) {
  SimTime period = static_cast<SimTime>(kNanosPerSec / rate_per_sec);
  SimTime epoch = loop.now();
  SimTime end = epoch + duration;
  auto index = std::make_shared<std::uint64_t>(0);
  auto step = std::make_shared<std::function<void()>>();
  // The scheduled copies reach the step through a weak reference: a step
  // that held itself would never be freed. This scope owns it for the run.
  *step = [&loop, period, epoch, end, tick, index,
           self = std::weak_ptr<std::function<void()>>(step)] {
    // Issue everything due (a late wakeup issues the whole backlog), then
    // re-arm at the next absolute arrival time.
    for (;;) {
      SimTime scheduled = epoch + static_cast<SimTime>(*index) * period;
      if (scheduled >= end) return;
      if (scheduled > loop.now()) {
        if (auto again = self.lock()) {
          loop.schedule(scheduled - loop.now(), *again);
        }
        return;
      }
      ++*index;
      tick(scheduled);
    }
  };
  loop.schedule(0, *step);
  loop.run_until(end + millis(1));
}

/// Null service for the raw-BFT bench (bft_raw): a
/// one-byte ack per request, and the executed-request count as its state.
class NullApp final : public bft::Executable, public bft::Recoverable {
 public:
  Bytes execute_ordered(const bft::ExecuteContext&, ByteView) override {
    ++executed_;
    return ack();
  }
  Bytes execute_unordered(ClientId, ByteView) override { return ack(); }
  Bytes snapshot() const override {
    Writer w(8);
    w.varint(executed_);
    return std::move(w).take();
  }
  void restore(ByteView data) override {
    Reader r(data);
    executed_ = r.varint();
  }

 private:
  static Bytes ack() {
    Writer w(1);
    w.u8(1);
    return std::move(w).take();
  }

  std::uint64_t executed_ = 0;
};

inline void print_header(const char* figure, const char* title) {
  std::printf("\n=== %s: %s ===\n", figure, title);
}

inline void print_row(const std::string& system, double value,
                      const char* unit) {
  std::printf("%-34s %10.1f %s\n", system.c_str(), value, unit);
}

inline void print_note(const std::string& note) {
  std::printf("  %s\n", note.c_str());
}

inline double overhead_pct(double baseline, double value) {
  return baseline <= 0 ? 0.0 : 100.0 * (baseline - value) / baseline;
}

/// Nearest-rank percentile; `p` in [0, 100]. Sorts a copy.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Machine-readable companion to the stdout report: collects named records
/// (ops/s plus optional latency samples) and writes `BENCH_<bench>.json` to
/// the working directory on write(), so the perf trajectory can be tracked
/// mechanically across commits.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  /// Adds one record. `latencies_us` may be empty: the record then carries
  /// only the rate and omits the percentile fields. `stages` attaches the
  /// per-stage latency breakdown (see stage_breakdown()).
  void add(const std::string& name, double ops_per_sec,
           std::vector<double> latencies_us = {},
           std::vector<StageSummary> stages = {}) {
    records_.push_back(Record{name, ops_per_sec, std::move(latencies_us),
                              std::move(stages)});
  }

  /// Writes BENCH_<bench>.json and prints the path to stdout.
  void write() const {
    std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"records\": [",
                 bench_.c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(out, "%s\n    {\"name\": \"%s\", \"ops_per_sec\": %.2f",
                   i == 0 ? "" : ",", r.name.c_str(), r.ops_per_sec);
      if (!r.latencies_us.empty()) {
        std::fprintf(out,
                     ", \"p50_us\": %.2f, \"p99_us\": %.2f, \"samples\": %zu",
                     percentile(r.latencies_us, 50.0),
                     percentile(r.latencies_us, 99.0), r.latencies_us.size());
      }
      if (!r.stages.empty()) {
        std::fprintf(out, ", \"stages\": [");
        for (std::size_t j = 0; j < r.stages.size(); ++j) {
          const StageSummary& s = r.stages[j];
          std::fprintf(out,
                       "%s{\"stage\": \"%s\", \"p50_us\": %.2f, "
                       "\"p99_us\": %.2f, \"samples\": %llu}",
                       j == 0 ? "" : ", ", s.stage.c_str(), s.p50_us,
                       s.p99_us, static_cast<unsigned long long>(s.samples));
        }
        std::fprintf(out, "]");
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct Record {
    std::string name;
    double ops_per_sec;
    std::vector<double> latencies_us;
    std::vector<StageSummary> stages;
  };

  std::string bench_;
  std::vector<Record> records_;
};

}  // namespace ss::bench
