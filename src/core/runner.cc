#include "core/runner.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ss::core {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct PooledOrderedRunner::State {
  RunnerOptions options;

  std::mutex mu;
  std::condition_variable work_cv;  // workers wait for queue/stop
  std::condition_variable done_cv;  // drain_until_idle waits for the head

  struct PendingTask {
    std::uint64_t seq;
    Task task;
  };
  struct Completion {
    Solo solo;
    std::exception_ptr error;
    std::int64_t task_ns = 0;      // worker time spent inside task()
    std::int64_t finished_at = 0;  // steady_ns() when the worker finished
  };

  std::deque<PendingTask> queue;
  std::map<std::uint64_t, Completion> completed;
  std::uint64_t next_submit_seq = 0;
  std::uint64_t next_deliver_seq = 0;
  bool stop = false;

  int event_fd = -1;
  std::vector<std::thread> threads;

#ifndef NDEBUG
  std::thread::id driver;  // bound on first driver-side call
#endif

  // Metrics: created on the constructing thread (obs::Registry is not
  // thread-safe), recorded only from the driver thread inside drain().
  double* queue_depth = nullptr;
  obs::Histogram* task_ns_hist = nullptr;
  obs::Histogram* reorder_wait_hist = nullptr;

  void assert_driver() {
#ifndef NDEBUG
    if (driver == std::thread::id{}) {
      driver = std::this_thread::get_id();
    }
    assert(driver == std::this_thread::get_id() &&
           "runner submit/drain must stay on one driver thread");
#endif
  }
};

PooledOrderedRunner::PooledOrderedRunner(std::uint32_t workers,
                                         RunnerOptions options)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.options = std::move(options);
  if (workers == 0) workers = 1;

  s.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (s.options.metrics) {
    auto& reg = obs::Registry::instance();
    const std::string prefix = "runner/" + s.options.tag;
    s.queue_depth = &reg.gauge(prefix + ".queue_depth");
    s.task_ns_hist = &reg.histogram(prefix + ".task_ns");
    s.reorder_wait_hist = &reg.histogram(prefix + ".reorder_wait_ns");
  }

  s.threads.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    s.threads.emplace_back([this, state = state_.get()] { worker_loop(state); });
  }
}

PooledOrderedRunner::~PooledOrderedRunner() {
  State& s = *state_;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.stop = true;
    // Unstarted tasks are discarded: a stopped runner never half-runs work.
    s.queue.clear();
  }
  s.work_cv.notify_all();
  s.done_cv.notify_all();
  for (std::thread& t : s.threads) t.join();
  if (s.event_fd >= 0) ::close(s.event_fd);
  // Undelivered solos in s.completed are dropped with the state.
}

void PooledOrderedRunner::worker_loop(State* state) {
  State& s = *state;
  std::unique_lock<std::mutex> lock(s.mu);
  while (true) {
    s.work_cv.wait(lock, [&] { return s.stop || !s.queue.empty(); });
    if (s.stop) return;

    State::PendingTask pending = std::move(s.queue.front());
    s.queue.pop_front();
    lock.unlock();

    State::Completion done;
    const std::int64_t start = steady_ns();
    try {
      done.solo = pending.task();
    } catch (...) {
      done.error = std::current_exception();
    }
    done.finished_at = steady_ns();
    done.task_ns = done.finished_at - start;

    lock.lock();
    const bool head = pending.seq == s.next_deliver_seq;
    s.completed.emplace(pending.seq, std::move(done));
    if (head) {
      // Only the completion that unblocks delivery needs to wake the
      // driver; later-sequence completions would be spurious wake-ups.
      s.done_cv.notify_all();
      if (s.event_fd >= 0) {
        std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(s.event_fd, &one, sizeof(one));
      }
    }
  }
}

void PooledOrderedRunner::submit(Task task) {
  State& s = *state_;
  s.assert_driver();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.queue.push_back({s.next_submit_seq++, std::move(task)});
  }
  if (s.queue_depth) *s.queue_depth += 1;
  s.work_cv.notify_one();
}

void PooledOrderedRunner::deliver_one() {
  // Pops the head completion and runs its solo outside the lock. The solo
  // may re-enter submit() (dispatch paths send messages), so no lock may be
  // held and all metric updates use driver-thread-only obs calls.
  State& s = *state_;
  State::Completion done;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.completed.find(s.next_deliver_seq);
    done = std::move(it->second);
    s.completed.erase(it);
    ++s.next_deliver_seq;
  }
  if (s.queue_depth) *s.queue_depth -= 1;
  if (s.task_ns_hist) s.task_ns_hist->record(done.task_ns);
  if (s.reorder_wait_hist) {
    s.reorder_wait_hist->record(steady_ns() - done.finished_at);
  }
  if (done.error) {
    // Sequence already advanced: a later drain() continues past the
    // throwing task, per the Runner::drain contract.
    std::rethrow_exception(done.error);
  }
  if (done.solo) done.solo();
}

void PooledOrderedRunner::drain() {
  State& s = *state_;
  s.assert_driver();
  if (s.event_fd >= 0) {
    std::uint64_t counter;
    [[maybe_unused]] ssize_t n = ::read(s.event_fd, &counter, sizeof(counter));
  }
  while (true) {
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.completed.find(s.next_deliver_seq) == s.completed.end()) return;
    }
    deliver_one();
  }
}

void PooledOrderedRunner::drain_until_idle() {
  State& s = *state_;
  s.assert_driver();
  while (true) {
    drain();
    std::unique_lock<std::mutex> lock(s.mu);
    if (s.next_deliver_seq == s.next_submit_seq) return;
    s.done_cv.wait(lock, [&] {
      return s.stop || s.completed.count(s.next_deliver_seq) > 0 ||
             s.next_deliver_seq == s.next_submit_seq;
    });
    if (s.stop) return;
  }
}

bool PooledOrderedRunner::idle() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  return s.next_deliver_seq == s.next_submit_seq;
}

int PooledOrderedRunner::notify_fd() const { return state_->event_fd; }

std::uint32_t PooledOrderedRunner::workers() const {
  return static_cast<std::uint32_t>(state_->threads.size());
}

std::uint64_t PooledOrderedRunner::submitted() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  return s.next_submit_seq;
}

std::uint64_t PooledOrderedRunner::delivered() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  return s.next_deliver_seq;
}

std::unique_ptr<Runner> make_runner_from_env(const std::string& tag) {
  const char* spec = std::getenv("SS_RUNNER");
  if (spec == nullptr || std::strcmp(spec, "") == 0 ||
      std::strcmp(spec, "inline") == 0) {
    return std::make_unique<InlineRunner>();
  }
  std::string text(spec);
  if (text.rfind("pooled", 0) == 0) {
    // "pooled" or "pooled:<N>"; a missing or zero N means 4 workers.
    unsigned long n =
        text.size() > 7 ? std::strtoul(text.c_str() + 7, nullptr, 10) : 0;
    RunnerOptions options;
    options.tag = tag;
    return std::make_unique<PooledOrderedRunner>(
        n == 0 ? 4 : static_cast<std::uint32_t>(n), std::move(options));
  }
  std::fprintf(stderr,
               "SS_RUNNER=%s not recognized (want inline|pooled:N); "
               "using inline\n",
               spec);
  return std::make_unique<InlineRunner>();
}

}  // namespace ss::core
