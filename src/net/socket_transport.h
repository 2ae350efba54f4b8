// Real-socket Transport backend: UDP datagrams on a poll(2)-driven loop.
//
// Each attached endpoint binds one non-blocking UDP socket at the address
// the Resolver maps its name to. Messages are framed with the repo's
// Writer/Reader wire format (magic, version, message id, fragment index /
// count, from, to, payload fragment); payloads larger than one datagram are
// fragmented and reassembled, so state-transfer snapshots cross real wires
// too. Outgoing datagrams are batched per poll iteration and flushed with
// sendmmsg(2) (falling back to sendto(2)); incoming ones are drained with
// recvmmsg(2) into a lazily resident slab; timers live in a min-heap that
// drives the poll timeout, one allocation each, and cancelled ones are
// compacted out of it whenever it has doubled since the last compaction.
// The CPU is real, so models_cpu() is false: net::Lanes runs zero-cost work
// in place, and each received datagram is fully handled before the next
// one is parsed. Single-threaded by design, like the simulated
// loop: everything on this class — attach/detach, send, poll_once/run,
// handlers and timer actions — runs on the one thread that polls it, and
// handlers never run re-entrantly inside send(). Debug builds assert it
// (poll_once binds the loop to the first calling thread). A deploy process
// is one such thread (DESIGN.md §13), so the reassembly state, the outbox
// and the handler map need no locks.
//
// Delivery is UDP: unreliable and unordered. That is exactly the fault
// model the BFT stack already tolerates (clients retransmit, replicas
// dedupe), and the HMAC layer above the transport rejects anything a real
// wire corrupts or forges.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "net/resolver.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace ss::net {

/// Fragment size, message cap, reassembly timeout, send-batch size, socket
/// buffer sizes and the recv-failure limit are fixed (see the constants in
/// socket_transport.cc); only the RX ring size is a knob.
struct SocketOptions {
  /// Datagrams drained per recvmmsg(2) call — the number of RX ring slots.
  /// 1 disables the batched path and reads one datagram per recvfrom(2)
  /// call (also the automatic fallback where recvmmsg is unavailable). Each
  /// slot reserves a full 64 KiB datagram of address space, but only the
  /// pages a received datagram has touched are resident.
  std::size_t rx_batch = 32;
};

/// `base` with SS_RX_BATCH=<n> (RX ring size, 1 = recvfrom path) applied on
/// top. Throws std::invalid_argument, naming the variable, when the value is
/// not an integer in [1, 1024].
SocketOptions socket_options_from_env(SocketOptions base = {});

struct SocketStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t decode_errors = 0;    ///< malformed/truncated frames dropped
  std::uint64_t unresolved_drops = 0; ///< destination name not in resolver
  std::uint64_t oversized_drops = 0;
  std::uint64_t misdirected = 0;      ///< frame for a name not attached here
  std::uint64_t send_errors = 0;
  std::uint64_t recv_errors = 0;      ///< hard recvfrom failures
  std::uint64_t endpoints_detached = 0;  ///< detached after repeated failures
  std::uint64_t reassembly_expired = 0;
  /// Fragments dropped because partial messages held the whole budget.
  std::uint64_t reassembly_budget_drops = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t rx_batches = 0;    ///< recvmmsg/recvfrom calls that returned data
  std::uint64_t rx_ring_full = 0;  ///< batched reads that filled the whole ring
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(Resolver resolver, SocketOptions options = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // --- Transport ----------------------------------------------------------
  /// Binds a UDP socket at the resolver's address for `name`; throws
  /// std::runtime_error if the name is unknown or the bind fails.
  void attach(const std::string& name, Handler handler) override;
  void detach(const std::string& name) override;
  bool attached(const std::string& name) const override;
  void send(const std::string& from, const std::string& to,
            Bytes payload) override;
  Timer schedule(SimTime delay, std::function<void()> action) override;
  /// Monotonic wall-clock nanoseconds since transport construction.
  SimTime now() const override;
  bool models_cpu() const override { return false; }

  // --- loop ---------------------------------------------------------------
  /// One poll iteration: flush sends, wait (at most `max_wait` ns) for
  /// readable sockets or the next timer, deliver, fire due timers, flush.
  /// Returns the number of messages delivered plus timers fired.
  std::size_t poll_once(SimTime max_wait);

  /// Runs until stop() is called (from a handler/timer or signal-checked
  /// predicate installed via set_interrupt_check).
  void run();

  /// Polls until `done()` returns true or `timeout` ns elapse. Returns the
  /// predicate's final value.
  bool run_until(const std::function<bool()>& done, SimTime timeout);

  void stop() { stopped_ = true; }

  /// Optional hook polled every iteration (e.g. a signal flag); returning
  /// true stops the loop.
  void set_interrupt_check(std::function<bool()> check) {
    interrupt_check_ = std::move(check);
  }

  const SocketStats& stats() const { return stats_; }
  const Resolver& resolver() const { return resolver_; }
  /// Scheduled timers neither fired nor cancelled (the registry's
  /// "timers_pending").
  std::size_t timers_pending() const;

  /// One scheduled action; it is also the Timer's Impl, so a timer costs one
  /// allocation (plus whatever its action's captures need).
  struct TimerState;

 private:
  struct EndpointState {
    int fd = -1;
    Handler handler;
    std::size_t consecutive_recv_errors = 0;
  };
  struct PendingTimer {
    SimTime when;
    std::uint64_t seq;
    std::shared_ptr<TimerState> state;
  };
  /// Heap order for timers_: std::*_heap keep the earliest (when, seq) at
  /// the front.
  struct TimerLater {
    bool operator()(const PendingTimer& a, const PendingTimer& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct OutDatagram {
    int fd;
    SocketAddress dest;
    Bytes bytes;
  };
  /// A multi-fragment message in the making. Fragments that arrive in
  /// order are copied straight to their place at the end of `payload`; one
  /// that arrives past a gap waits in `early` until the gap closes.
  struct Reassembly {
    SimTime first_seen = 0;
    std::uint16_t count = 0;  ///< fragments, as the first one seen says
    std::uint16_t next = 0;   ///< fragments [0, next) are in `payload`
    std::size_t bytes = 0;    ///< fragment bytes received so far
    std::size_t reserved = 0; ///< charged to reassembly_reserved_
    std::size_t held = 0;     ///< charged to reassembly_held_
    Bytes payload;
    std::map<std::uint16_t, Bytes> early;
  };

  /// (sender name, message id, receiver name) -> partial message.
  using ReassemblyMap =
      std::map<std::tuple<std::string, std::uint64_t, std::string>,
               Reassembly>;

  struct RxRing;  // mmap'd recvmmsg slab (defined in the .cc)

  int open_socket(const std::string& name);
  void enqueue_fragments(const std::string& from, const std::string& to,
                         const Bytes& payload, int fd,
                         const SocketAddress& dest);
  void flush_outbox();
  void read_socket(const std::string& name, int fd);
  void read_socket_single(const std::string& name, int fd);
  void read_socket_batched(const std::string& name, int fd);
  /// Counts a hard recv failure on `name`; returns true if the endpoint was
  /// detached (caller must stop reading this fd).
  bool note_recv_failure(const std::string& name, int err);
  void handle_datagram(ByteView datagram);
  void fire_due_timers();
  /// Erases the cancelled entries of timers_ and re-heapifies it.
  void compact_timers();
  /// Erases a partial message and hands its reservation and held charge
  /// back.
  ReassemblyMap::iterator drop_reassembly(ReassemblyMap::iterator it);
  void expire_reassemblies();

  Resolver resolver_;
  SimTime epoch_ = 0;
  bool stopped_ = false;
  std::function<bool()> interrupt_check_;

  std::map<std::string, EndpointState> endpoints_;
  /// Unbound scratch socket for sends from names that are not attached
  /// locally (mirrors the simulated network, which lets anyone send).
  int anon_fd_ = -1;

  std::uint64_t next_msg_id_ = 1;
  std::vector<OutDatagram> outbox_;

  std::uint64_t next_timer_seq_ = 0;
  /// Min-heap (TimerLater) of scheduled timers, cancelled ones included
  /// until the next compaction or their deadline.
  std::vector<PendingTimer> timers_;
  /// timers_.size() after the last compaction, at least this floor; the
  /// next one runs once the heap has doubled from it.
  static constexpr std::size_t kTimerCompactionFloor = 32;
  std::size_t timers_compacted_size_ = kTimerCompactionFloor;

  ReassemblyMap reassembly_;
  /// Bytes the partial messages in reassembly_ have reserved up front, at
  /// most kMaxMessage in all: a frame header is not authenticated, so a
  /// forged first fragment may claim any size.
  std::size_t reassembly_reserved_ = 0;
  /// What the partial messages hold: fragment bytes plus a fixed overhead
  /// per entry and per fragment waiting past a gap, at most kMaxMessage in
  /// all. Past it, a fragment is dropped and counted.
  std::size_t reassembly_held_ = 0;
  SimTime last_gc_ = 0;

  /// RX slots for both read paths; recvfrom reads into slot 0.
  std::unique_ptr<RxRing> rx_ring_;
  /// Cleared at runtime if recvmmsg(2) reports ENOSYS/EOPNOTSUPP — every
  /// later read takes the recvfrom path.
  bool recvmmsg_ok_ = true;
  SocketStats stats_;
  obs::SourceHandle obs_source_;
  /// "net.rx_batch_size", resolved once: recorded per RX batch.
  obs::Histogram& rx_batch_size_;

#ifndef NDEBUG
  /// poll_once binds the loop to its first caller; later calls (and the
  /// state they drive) must come from that same thread.
  std::thread::id loop_thread_{};
#endif
};

}  // namespace ss::net
