// Replica supervision policy: crash restarts and proactive recovery.
//
// Intrusion tolerance assumes at most f faulty replicas *at a time*.
// Proactive recovery (Castro & Liskov, "Practical Byzantine Fault-Tolerance
// and Proactive Recovery" — reference [14] of the paper) keeps that true
// over time by periodically reincarnating each replica from trusted durable
// state, so an undetected intrusion survives at most one cycle. It must
// never itself be the (f+1)-th fault: a replica is only ever taken down
// while every replica is up.
//
// The policy is pure: it holds no clock and does no I/O. A driver reports
// every replica death and every restart, and asks at its own `now_ms` which
// restarts and which proactive kill are due. `deploy local --supervise`
// drives it over real processes (fork / SIGKILL / waitpid every 50 ms);
// tests/supervisor_test.cc drives it over the simulated group with the same
// poll loop.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace ss::core {

/// Restart-budget accounting for one supervised replica. A dead replica is
/// restarted with exponential backoff, but only a bounded number of times,
/// so a replica that dies on startup (bad state dir, port clash) cannot
/// flap forever. The budget is time-aware: sustained healthy uptime grants
/// amnesty and zeroes the counter, so crashes hours apart are not misread
/// as one burst. Each *burst* of crashes still hits the cap.
class RestartBudget {
 public:
  explicit RestartBudget(std::uint32_t max_attempts = 5,
                         long healthy_reset_ms = 10'000,
                         long base_backoff_ms = 200)
      : max_attempts_(max_attempts),
        healthy_reset_ms_(healthy_reset_ms),
        base_backoff_ms_(base_backoff_ms) {}

  /// The process was (re)started at `now_ms`.
  void on_start(long now_ms) { alive_since_ms_ = now_ms; }

  /// The process died at `now_ms`. Returns the backoff delay before the
  /// next restart attempt, or -1 when the budget is exhausted (give up).
  long on_death(long now_ms) {
    note_healthy(now_ms);  // a long healthy run before this death counts
    alive_since_ms_ = -1;
    if (attempts_ >= max_attempts_) return -1;
    long backoff = base_backoff_ms_ << attempts_;
    ++attempts_;
    return backoff;
  }

  /// Periodic tick while the process is alive: after healthy_reset_ms of
  /// uninterrupted uptime the attempt counter resets.
  void note_healthy(long now_ms) {
    if (attempts_ > 0 && alive_since_ms_ >= 0 &&
        now_ms - alive_since_ms_ >= healthy_reset_ms_) {
      attempts_ = 0;
    }
  }

  std::uint32_t attempts() const { return attempts_; }
  bool exhausted() const { return attempts_ >= max_attempts_; }

 private:
  std::uint32_t max_attempts_;
  long healthy_reset_ms_;
  long base_backoff_ms_;
  std::uint32_t attempts_ = 0;
  long alive_since_ms_ = -1;  ///< -1 while dead
};

struct SupervisorStats {
  std::uint64_t reincarnations = 0;     ///< proactive kills issued
  std::uint64_t skipped_unhealthy = 0;  ///< periods skipped: a replica down
};

class Supervisor {
 public:
  /// How long a proactive victim stays down before its restart is due.
  static constexpr long kReincarnationDowntimeMs = 200;

  /// Supervises `n` replicas, all up at construction. Every
  /// `proactive_period_ms` the next replica round-robin is reincarnated;
  /// 0 disables proactive recovery.
  Supervisor(std::uint32_t n, long proactive_period_ms)
      : replicas_(n),
        period_ms_(proactive_period_ms),
        next_period_ms_(proactive_period_ms) {}

  /// Replica `i` died at `now_ms`. Returns the delay until its restart is
  /// due, or -1 when its restart budget is exhausted and it stays down. A
  /// proactive victim's death is not a crash: its restart is due after the
  /// fixed downtime and its budget is not charged.
  long on_death(std::uint32_t i, long now_ms) {
    Replica& r = replicas_.at(i);
    const long delay = r.state == State::kReincarnating
                           ? kReincarnationDowntimeMs
                           : r.budget.on_death(now_ms);
    r.state = delay < 0 ? State::kGaveUp : State::kDown;
    r.restart_at_ms = now_ms + delay;
    return delay;
  }

  /// Replica `i` was restarted at `now_ms`.
  void on_start(std::uint32_t i, long now_ms) {
    Replica& r = replicas_.at(i);
    r.state = State::kUp;
    r.budget.on_start(now_ms);
  }

  /// Replicas whose restart is due at `now_ms`. The driver starts each one
  /// and reports it with on_start.
  std::vector<std::uint32_t> due_restarts(long now_ms) const {
    std::vector<std::uint32_t> due;
    for (std::uint32_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].state == State::kDown &&
          now_ms >= replicas_[i].restart_at_ms) {
        due.push_back(i);
      }
    }
    return due;
  }

  /// The replica to kill now for proactive recovery, if a period boundary
  /// has passed. A boundary with any replica down is skipped. The victim
  /// counts as down from this call on, not from when its death is reported,
  /// so a second boundary before that report cannot pick another one.
  std::optional<std::uint32_t> due_reincarnation(long now_ms) {
    if (period_ms_ <= 0 || now_ms < next_period_ms_) return std::nullopt;
    next_period_ms_ += period_ms_;
    for (const Replica& r : replicas_) {
      if (r.state != State::kUp) {
        ++stats_.skipped_unhealthy;
        return std::nullopt;
      }
    }
    const std::uint32_t victim = next_victim_;
    next_victim_ = static_cast<std::uint32_t>((victim + 1) % replicas_.size());
    replicas_[victim].state = State::kReincarnating;
    ++stats_.reincarnations;
    return victim;
  }

  /// Crash restarts charged to replica `i`'s current burst.
  std::uint32_t attempts(std::uint32_t i) const {
    return replicas_.at(i).budget.attempts();
  }
  const SupervisorStats& stats() const { return stats_; }

 private:
  enum class State {
    kUp,
    kReincarnating,  ///< picked as the proactive victim, death not reported
    kDown,           ///< dead, restart due at restart_at_ms
    kGaveUp,         ///< dead for good: its restart budget is exhausted
  };
  struct Replica {
    State state = State::kUp;
    RestartBudget budget;
    long restart_at_ms = 0;
  };

  std::vector<Replica> replicas_;
  long period_ms_;
  long next_period_ms_;
  std::uint32_t next_victim_ = 0;
  SupervisorStats stats_;
};

}  // namespace ss::core
