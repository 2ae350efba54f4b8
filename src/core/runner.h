// Ordered worker-pool seam for the replica's crypto/codec pipeline.
//
// The paper's prototype is single-threaded, and PR 2-5 kept every backend
// that way: one thread decodes, verifies HMACs, runs agreement, executes,
// signs, and encodes. That serializes the two heaviest pure computations —
// HMAC verification of inbound messages and HMAC signing + encoding of
// outbound ones — with the state machine, so a replica process can never
// use more than one core (the throughput wall §V-B attributes to the
// BFT layer). The fix follows the dsnet/PBFT shape: fan the *pure* work out
// to N workers, then re-sequence results so the state machine still sees
// one message at a time, in arrival order.
//
// A task has two halves:
//
//   submit(task)  ->  Solo solo = task();   // "prologue": runs on a worker,
//                                           // pure computation only
//                     solo();               // "solo": runs on the driver
//                                           // thread, in submission order
//
// The ordering invariant: solos run strictly in submission order, exactly
// once, all on the single driver thread. Workers only ever see the task
// halves, which must not touch replica state; everything stateful lives in
// the solo. With that split the replica's execution is a deterministic
// function of the submission order — which is why InlineRunner (run both
// halves immediately) keeps the simulated backend byte-identical to the
// pre-runner code, and why inline and pooled runs produce byte-identical
// replica output for the same input stream (tests/runner_test.cc proves
// it by replaying a recorded trace through both).
//
// Threading contract:
//  * submit(), drain(), drain_until_idle() are driver-thread-only (asserted
//    in debug builds). The driver is whichever thread first calls one of
//    them — in deployments, the transport's poll loop thread.
//  * task() runs on an arbitrary worker thread; it must only read state
//    that is immutable while the runner is live (keys, group config, ids).
//  * Completion is signalled on notify_fd() (an eventfd): the poll loop
//    registers it via SocketTransport::add_pollable and calls drain() when
//    it fires, so delivery and drain share the poll thread by construction.
//
// Destruction stops the workers: queued-but-unstarted tasks and undelivered
// solos are discarded (never half-run), and the destructor joins all
// workers before returning — after it, no task can touch captured state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace ss::core {

class Runner {
 public:
  /// Driver-thread half of a task; runs in submission order.
  using Solo = std::function<void()>;
  /// Worker-thread half; returns the solo (may be empty for fire-and-forget).
  using Task = std::function<Solo()>;

  virtual ~Runner() = default;

  /// Enqueues one task. The returned solo runs on the driver thread, after
  /// every earlier-submitted task's solo and before every later one.
  /// Submitting from within a solo is allowed (the replica's dispatch path
  /// sends messages, which re-enter submit()).
  virtual void submit(Task task) = 0;

  /// Runs every solo that is ready in-order right now; never blocks.
  /// A task exception is re-thrown here, at the throwing task's position in
  /// the order; calling drain() again continues with the next task.
  virtual void drain() {}

  /// Drains and blocks until every submitted task (including tasks that
  /// solos submit while draining) has been delivered.
  virtual void drain_until_idle() {}

  /// True when every submitted task's solo has run.
  virtual bool idle() const { return true; }

  /// Readable fd that signals "a solo is ready to drain" (-1 when delivery
  /// is synchronous and no notification is needed). drain() consumes the
  /// pending notification.
  virtual int notify_fd() const { return -1; }

  virtual std::uint32_t workers() const { return 0; }
};

/// Runs both halves synchronously inside submit(). This is the simulated
/// backend's runner: every existing test, bench, and chaos sweep keeps the
/// exact pre-runner event order, byte for byte.
class InlineRunner final : public Runner {
 public:
  void submit(Task task) override {
    Solo solo = task();
    if (solo) solo();
  }
};

struct RunnerOptions {
  /// Metrics prefix: gauges/histograms appear as runner/<tag>.*.
  std::string tag = "pool";
  /// Registers runner/<tag>.queue_depth (gauge), .task_ns and
  /// .reorder_wait_ns (histograms) with obs::Registry. Creation happens on
  /// the constructing thread; recording happens on the driver thread.
  bool metrics = true;
};

/// N worker threads plus a re-sequencing buffer keyed by per-task sequence
/// number. Workers complete tasks in any order; drain() delivers solos in
/// submission order, holding back later completions until the head of the
/// sequence is done (the held-back time is the reorder_wait_ns histogram).
class PooledOrderedRunner final : public Runner {
 public:
  explicit PooledOrderedRunner(std::uint32_t workers, RunnerOptions options = {});
  ~PooledOrderedRunner() override;

  PooledOrderedRunner(const PooledOrderedRunner&) = delete;
  PooledOrderedRunner& operator=(const PooledOrderedRunner&) = delete;

  void submit(Task task) override;
  void drain() override;
  void drain_until_idle() override;
  bool idle() const override;
  int notify_fd() const override;
  std::uint32_t workers() const override;

  std::uint64_t submitted() const;
  std::uint64_t delivered() const;

 private:
  struct State;
  void worker_loop(State* state);
  void deliver_one();

  std::unique_ptr<State> state_;
};

/// Builds a runner from the SS_RUNNER environment variable:
///   unset / "inline"  -> InlineRunner
///   "pooled:<N>"      -> PooledOrderedRunner with N workers
/// Unrecognized specs warn on stderr and fall back to inline. `tag` becomes
/// the metrics prefix (runner/<tag>.*).
std::unique_ptr<Runner> make_runner_from_env(const std::string& tag);

}  // namespace ss::core
