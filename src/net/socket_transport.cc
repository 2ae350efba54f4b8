#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "common/serialization.h"
#include "obs/metrics.h"

namespace ss::net {

namespace {

constexpr std::uint32_t kMagic = 0x53535450;  // "SSTP"
constexpr std::uint8_t kVersion = 1;
/// Max payload bytes per datagram fragment; the header rides on top and the
/// whole datagram stays under the 65507-byte UDP limit.
constexpr std::size_t kMaxFragment = 60000;
/// Reassembled-message cap; larger sends are dropped (and counted).
constexpr std::size_t kMaxMessage = 64u << 20;
/// Partial reassemblies older than this are discarded.
constexpr SimTime kReassemblyTimeout = seconds(10);
/// What a partial message's map entry, or a fragment waiting past a gap,
/// holds beyond the bytes it carries (node, bookkeeping), charged to the
/// reassembly budget with them.
constexpr std::size_t kReassemblyNodeBytes = 256;
/// send() flushes the outbox early once this many datagrams are queued, and
/// one sendmmsg(2) call carries at most this many.
constexpr std::size_t kMaxSendBatch = 128;
constexpr int kSocketBufferBytes = 1 << 22;  // SO_RCVBUF and SO_SNDBUF
/// After this many *consecutive* hard recv failures (anything other than
/// EAGAIN/EWOULDBLOCK/EINTR) the endpoint is detached instead of spinning
/// the read loop forever.
constexpr std::size_t kMaxRecvFailures = 64;
/// Address space reserved per RX ring slot: one whole UDP datagram.
constexpr std::size_t kRxSlotBytes = 65536;
/// No page size Linux uses is smaller, so a datagram longer than this has
/// made more than one page of its slot resident.
constexpr std::size_t kSmallestPageBytes = 4096;

SimTime monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<SimTime>(ts.tv_sec) * kNanosPerSec + ts.tv_nsec;
}

bool to_sockaddr(const SocketAddress& address, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(address.port);
  const char* host =
      address.host == "localhost" ? "127.0.0.1" : address.host.c_str();
  return inet_pton(AF_INET, host, &out->sin_addr) == 1;
}

}  // namespace

SocketOptions socket_options_from_env(SocketOptions base) {
  if (const char* v = std::getenv("SS_RX_BATCH")) {
    char* end = nullptr;
    errno = 0;
    long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE || n < 1 || n > 1024) {
      throw std::invalid_argument("SS_RX_BATCH=" + std::string(v) +
                                  ": want an integer in [1, 1024]");
    }
    base.rx_batch = static_cast<std::size_t>(n);
  }
  return base;
}

/// One 64 KiB slot per datagram recvmmsg may return, carved out of a single
/// anonymous mapping that the transport never writes itself: a page becomes
/// resident only when the kernel copies a datagram into it, so the ring
/// costs about one page per slot a datagram has touched, and at worst
/// (every slot holding a full fragment) the whole slab. Headers/iovecs are
/// set up once and reused for every call, so the steady-state RX path does
/// no allocation.
struct SocketTransport::RxRing {
  explicit RxRing(std::size_t slots)
      : hdrs(slots), iovs(slots), peers(slots) {
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::runtime_error("socket transport: RX ring mmap failed: " +
                               std::string(std::strerror(errno)));
    }
    slab = static_cast<std::uint8_t*>(p);
    // A transparent huge page would make the whole slab resident on the
    // first datagram.
    ::madvise(slab, bytes(), MADV_NOHUGEPAGE);
    rearm();
  }
  ~RxRing() { ::munmap(slab, bytes()); }
  RxRing(const RxRing&) = delete;
  RxRing& operator=(const RxRing&) = delete;

  std::size_t slots() const { return hdrs.size(); }
  std::size_t bytes() const { return slots() * kRxSlotBytes; }
  std::uint8_t* slot(std::size_t i) const { return slab + i * kRxSlotBytes; }

  /// Once the datagram of `len` bytes in slot `i` has been handled, hands
  /// the slot's pages back if it spanned more than one: the next datagram
  /// there faults in only what it touches. A slot is a multiple of any page
  /// size up to 64 KiB from a page-aligned start, so the whole slot is a
  /// valid range without asking for the page size. MADV_DONTNEED, not
  /// MADV_FREE: pages freed lazily still count as resident. Without this,
  /// one state transfer's large datagrams stay resident in their slots for
  /// the life of the process.
  void release(std::size_t i, std::size_t len) const {
    if (len <= kSmallestPageBytes) return;
    ::madvise(slot(i), kRxSlotBytes, MADV_DONTNEED);
  }

  /// msg_hdr fields (namelen in particular) are overwritten by the kernel on
  /// every call and must be reset before the next one.
  void rearm() {
    for (std::size_t i = 0; i < slots(); ++i) {
      iovs[i].iov_base = slot(i);
      iovs[i].iov_len = kRxSlotBytes;
      std::memset(&hdrs[i], 0, sizeof(hdrs[i]));
      hdrs[i].msg_hdr.msg_name = &peers[i];
      hdrs[i].msg_hdr.msg_namelen = sizeof(peers[i]);
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
    }
  }
  std::vector<mmsghdr> hdrs;
  std::vector<iovec> iovs;
  std::vector<sockaddr_in> peers;
  std::uint8_t* slab = nullptr;
};

struct SocketTransport::TimerState final : Timer::Impl {
  void cancel() override {
    cancelled = true;
    action = nullptr;  // release captures eagerly
  }
  bool active() const override { return !cancelled; }

  bool cancelled = false;
  std::function<void()> action;
};

SocketTransport::SocketTransport(Resolver resolver, SocketOptions options)
    : resolver_(std::move(resolver)),
      rx_ring_(std::make_unique<RxRing>(
          std::max<std::size_t>(options.rx_batch, 1))),
      rx_batch_size_(obs::Registry::instance().histogram("net.rx_batch_size")) {
  epoch_ = monotonic_ns();
  obs_source_ = obs::Registry::instance().add_source(
      "transport", [this](const obs::Registry::Emit& emit) {
        emit("messages_sent", static_cast<double>(stats_.messages_sent));
        emit("messages_delivered",
             static_cast<double>(stats_.messages_delivered));
        emit("datagrams_sent", static_cast<double>(stats_.datagrams_sent));
        emit("datagrams_received",
             static_cast<double>(stats_.datagrams_received));
        emit("bytes_sent", static_cast<double>(stats_.bytes_sent));
        emit("bytes_received", static_cast<double>(stats_.bytes_received));
        emit("decode_errors", static_cast<double>(stats_.decode_errors));
        emit("unresolved_drops", static_cast<double>(stats_.unresolved_drops));
        emit("oversized_drops", static_cast<double>(stats_.oversized_drops));
        emit("misdirected", static_cast<double>(stats_.misdirected));
        emit("send_errors", static_cast<double>(stats_.send_errors));
        emit("recv_errors", static_cast<double>(stats_.recv_errors));
        emit("endpoints_detached",
             static_cast<double>(stats_.endpoints_detached));
        emit("reassembly_expired",
             static_cast<double>(stats_.reassembly_expired));
        emit("reassembly_budget_drops",
             static_cast<double>(stats_.reassembly_budget_drops));
        emit("timers_fired", static_cast<double>(stats_.timers_fired));
        emit("timers_pending", static_cast<double>(timers_pending()));
        emit("rx_batches", static_cast<double>(stats_.rx_batches));
        emit("rx_ring_full", static_cast<double>(stats_.rx_ring_full));
      });
}

SocketTransport::~SocketTransport() {
  for (auto& [name, ep] : endpoints_) {
    if (ep.fd >= 0) ::close(ep.fd);
  }
  if (anon_fd_ >= 0) ::close(anon_fd_);
}

SimTime SocketTransport::now() const { return monotonic_ns() - epoch_; }

int SocketTransport::open_socket(const std::string& name) {
  const SocketAddress* address = resolver_.lookup(name);
  if (address == nullptr) {
    throw std::runtime_error("socket transport: endpoint not in resolver: " +
                             name);
  }
  sockaddr_in sa{};
  if (!to_sockaddr(*address, &sa)) {
    throw std::runtime_error("socket transport: bad host for " + name + ": " +
                             address->host);
  }
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("socket transport: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSocketBufferBytes,
               sizeof(kSocketBufferBytes));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSocketBufferBytes,
               sizeof(kSocketBufferBytes));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error("socket transport: bind " + name + " to " +
                             address->host + ":" +
                             std::to_string(address->port) + " failed: " +
                             std::strerror(err));
  }
  return fd;
}

void SocketTransport::attach(const std::string& name, Handler handler) {
  auto it = endpoints_.find(name);
  if (it != endpoints_.end()) {
    it->second.handler = std::move(handler);  // replace, keep the socket
    return;
  }
  EndpointState ep;
  ep.fd = open_socket(name);
  ep.handler = std::move(handler);
  endpoints_.emplace(name, std::move(ep));
}

void SocketTransport::detach(const std::string& name) {
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  endpoints_.erase(it);
}

bool SocketTransport::attached(const std::string& name) const {
  return endpoints_.count(name) > 0;
}

void SocketTransport::enqueue_fragments(const std::string& from,
                                        const std::string& to,
                                        const Bytes& payload, int fd,
                                        const SocketAddress& dest) {
  std::uint64_t msg_id = next_msg_id_++;
  std::size_t total = payload.size();
  std::size_t nfrags =
      total == 0 ? 1 : (total + kMaxFragment - 1) / kMaxFragment;
  for (std::size_t i = 0; i < nfrags; ++i) {
    std::size_t off = i * kMaxFragment;
    std::size_t len = std::min(kMaxFragment, total - off);
    Writer w(len + from.size() + to.size() + 32);
    w.u32(kMagic);
    w.u8(kVersion);
    w.u64(msg_id);
    w.u16(static_cast<std::uint16_t>(i));
    w.u16(static_cast<std::uint16_t>(nfrags));
    w.str(from);
    w.str(to);
    w.blob(ByteView(payload.data() + off, len));
    stats_.bytes_sent += w.size();
    outbox_.push_back(OutDatagram{fd, dest, std::move(w).take()});
  }
  ++stats_.messages_sent;
}

void SocketTransport::send(const std::string& from, const std::string& to,
                           Bytes payload) {
  const SocketAddress* dest = resolver_.lookup(to);
  if (dest == nullptr) {
    ++stats_.unresolved_drops;
    return;
  }
  if (payload.size() > kMaxMessage ||
      (payload.size() + kMaxFragment - 1) / kMaxFragment > 65535) {
    ++stats_.oversized_drops;
    return;
  }
  int fd = -1;
  auto it = endpoints_.find(from);
  if (it != endpoints_.end()) {
    fd = it->second.fd;
  } else {
    // Unattached sender (the simulated network allows this too): use a
    // shared unbound socket; the receiver trusts the frame's `from` only as
    // far as the HMAC above the transport lets it.
    if (anon_fd_ < 0) {
      anon_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (anon_fd_ < 0) {
        ++stats_.send_errors;
        return;
      }
    }
    fd = anon_fd_;
  }
  enqueue_fragments(from, to, payload, fd, *dest);
  if (outbox_.size() >= kMaxSendBatch) flush_outbox();
}

void SocketTransport::flush_outbox() {
  std::size_t i = 0;
  while (i < outbox_.size()) {
    // One sendmmsg batch per run of datagrams sharing a source socket.
    std::size_t j = i + 1;
    while (j < outbox_.size() && outbox_[j].fd == outbox_[i].fd &&
           j - i < kMaxSendBatch) {
      ++j;
    }
    std::size_t n = j - i;
    std::vector<mmsghdr> hdrs(n);
    std::vector<iovec> iovs(n);
    std::vector<sockaddr_in> addrs(n);
    bool addr_ok = true;
    for (std::size_t k = 0; k < n; ++k) {
      OutDatagram& d = outbox_[i + k];
      if (!to_sockaddr(d.dest, &addrs[k])) {
        addr_ok = false;
        break;
      }
      iovs[k].iov_base = d.bytes.data();
      iovs[k].iov_len = d.bytes.size();
      std::memset(&hdrs[k], 0, sizeof(hdrs[k]));
      hdrs[k].msg_hdr.msg_name = &addrs[k];
      hdrs[k].msg_hdr.msg_namelen = sizeof(addrs[k]);
      hdrs[k].msg_hdr.msg_iov = &iovs[k];
      hdrs[k].msg_hdr.msg_iovlen = 1;
    }
    std::size_t sent = 0;
    if (addr_ok) {
      int rc = ::sendmmsg(outbox_[i].fd, hdrs.data(),
                          static_cast<unsigned int>(n), 0);
      if (rc > 0) sent = static_cast<std::size_t>(rc);
    }
    // Whatever sendmmsg did not take, try individually; UDP semantics let
    // us drop on persistent failure (upper layers retransmit).
    for (std::size_t k = sent; k < n; ++k) {
      OutDatagram& d = outbox_[i + k];
      sockaddr_in sa{};
      if (!to_sockaddr(d.dest, &sa)) {
        ++stats_.send_errors;
        continue;
      }
      ssize_t rc = ::sendto(d.fd, d.bytes.data(), d.bytes.size(), 0,
                            reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
      if (rc < 0) ++stats_.send_errors;
    }
    stats_.datagrams_sent += n;
    i = j;
  }
  outbox_.clear();
}

void SocketTransport::handle_datagram(ByteView datagram) {
  std::string from;
  std::string to;
  std::uint64_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 0;
  ByteView fragment;  // where it lies in the RX slot
  try {
    Reader r(datagram);
    if (r.u32() != kMagic) throw DecodeError("bad magic");
    if (r.u8() != kVersion) throw DecodeError("bad version");
    msg_id = r.u64();
    frag_index = r.u16();
    frag_count = r.u16();
    from = r.str();
    to = r.str();
    fragment = r.blob_view();
    r.expect_done();
    if (frag_count == 0 || frag_index >= frag_count) {
      throw DecodeError("bad fragment header");
    }
  } catch (const DecodeError&) {
    ++stats_.decode_errors;
    return;
  }

  auto ep = endpoints_.find(to);
  if (ep == endpoints_.end()) {
    ++stats_.misdirected;
    return;
  }

  Bytes payload;
  if (frag_count == 1) {
    payload.assign(fragment.begin(), fragment.end());
  } else {
    auto [slot, fresh] =
        reassembly_.try_emplace(std::make_tuple(from, msg_id, to));
    Reassembly& rs = slot->second;
    if (fresh) {
      rs.first_seen = now();
      rs.count = frag_count;
    }
    if (rs.count != frag_count) {
      // Conflicting fragment header: the first-seen header stays
      // authoritative and only the conflicting datagram is dropped.
      // Erasing the whole reassembly here would let one spoofed datagram
      // poison an in-progress transfer (e.g. a state-transfer snapshot).
      ++stats_.decode_errors;
      return;
    }
    if (frag_index < rs.next || rs.early.count(frag_index) > 0) {
      // Duplicate fragment: keep the first copy.
      return;
    }
    if (fragment.size() > kMaxMessage - rs.bytes) {
      ++stats_.oversized_drops;
      drop_reassembly(slot);
      return;
    }
    // A frame header is not authenticated, so what partial messages hold
    // until they complete or expire comes out of one transport-wide
    // budget: the fragment's bytes, its node when it waits past a gap, and
    // the entry and its key when the fragment opens one.
    std::size_t cost = fragment.size();
    if (frag_index != rs.next) cost += kReassemblyNodeBytes;
    if (fresh) cost += kReassemblyNodeBytes + from.size() + to.size();
    if (cost > kMaxMessage - reassembly_held_) {
      ++stats_.reassembly_budget_drops;
      if (fresh) drop_reassembly(slot);
      return;
    }
    rs.held += cost;
    reassembly_held_ += cost;
    rs.bytes += fragment.size();
    if (frag_index != rs.next) {
      rs.early.emplace(frag_index, Bytes(fragment.begin(), fragment.end()));
      return;
    }
    if (rs.next == 0) {
      // Every fragment but the last is as long as the first, so this is
      // room for the whole message: appending never reallocates. The size
      // is only what an unauthenticated header claims, so the room comes
      // out of one transport-wide budget; once a flood of such claims has
      // spent it, a message grows as its fragments arrive instead.
      const std::size_t want = std::min<std::size_t>(
          std::size_t{rs.count} * fragment.size(), kMaxMessage);
      if (want <= kMaxMessage - reassembly_reserved_) {
        rs.payload.reserve(want);
        rs.reserved = want;
        reassembly_reserved_ += want;
      }
    }
    rs.payload.insert(rs.payload.end(), fragment.begin(), fragment.end());
    ++rs.next;
    for (auto it = rs.early.begin();
         it != rs.early.end() && it->first == rs.next;
         it = rs.early.erase(it)) {
      rs.payload.insert(rs.payload.end(), it->second.begin(), it->second.end());
      ++rs.next;
    }
    if (rs.next < rs.count) return;
    payload = std::move(rs.payload);
    drop_reassembly(slot);
  }

  ++stats_.messages_delivered;
  // Copy the handler: it may detach (and so destroy) its own entry.
  Handler handler = ep->second.handler;
  if (handler) handler(Message{std::move(from), std::move(to), std::move(payload)});
}

bool SocketTransport::note_recv_failure(const std::string& name, int err) {
  // ECONNREFUSED et al. from queued ICMP errors are transient: count and
  // keep reading. A socket that *only* ever errors (EBADF after an fd was
  // yanked, ENOTCONN, resource exhaustion) must not spin the read loop
  // forever, so after a run of consecutive hard failures the endpoint is
  // detached and the failure is logged instead.
  ++stats_.recv_errors;
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) return true;
  if (++it->second.consecutive_recv_errors >= kMaxRecvFailures) {
    SS_LOG(LogLevel::kError, now(), "net",
           "endpoint %s: %zu consecutive recv failures (last errno=%d), "
           "detaching",
           name.c_str(), it->second.consecutive_recv_errors, err);
    ++stats_.endpoints_detached;
    detach(name);
    return true;
  }
  return false;
}

void SocketTransport::read_socket(const std::string& name, int fd) {
  if (rx_ring_->slots() > 1 && recvmmsg_ok_) {
    read_socket_batched(name, fd);
  } else {
    read_socket_single(name, fd);
  }
}

void SocketTransport::read_socket_single(const std::string& name, int fd) {
  for (;;) {
    auto it = endpoints_.find(name);
    if (it == endpoints_.end() || it->second.fd != fd) return;  // detached
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    ssize_t n = ::recvfrom(fd, rx_ring_->slot(0), kRxSlotBytes, 0,
                           reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (note_recv_failure(name, errno)) return;
      continue;
    }
    it->second.consecutive_recv_errors = 0;
    ++stats_.rx_batches;
    rx_batch_size_.record(1);
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    handle_datagram(ByteView(rx_ring_->slot(0), static_cast<std::size_t>(n)));
    rx_ring_->release(0, static_cast<std::size_t>(n));
  }
}

void SocketTransport::read_socket_batched(const std::string& name, int fd) {
  RxRing& ring = *rx_ring_;
  for (;;) {
    auto it = endpoints_.find(name);
    if (it == endpoints_.end() || it->second.fd != fd) return;  // detached
    ring.rearm();
    int n = ::recvmmsg(fd, ring.hdrs.data(),
                       static_cast<unsigned int>(ring.slots()), 0, nullptr);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        // Kernel/libc without recvmmsg: permanently fall back to the
        // one-datagram-per-syscall path. Delivery is byte-identical; only
        // the syscall count differs.
        recvmmsg_ok_ = false;
        SS_LOG(LogLevel::kWarn, now(), "net",
               "recvmmsg unavailable (errno=%d), falling back to recvfrom",
               errno);
        read_socket_single(name, fd);
        return;
      }
      if (note_recv_failure(name, errno)) return;
      continue;
    }
    if (n == 0) return;
    it->second.consecutive_recv_errors = 0;
    ++stats_.rx_batches;
    rx_batch_size_.record(n);
    for (int i = 0; i < n; ++i) {
      std::size_t len = ring.hdrs[i].msg_len;
      ++stats_.datagrams_received;
      stats_.bytes_received += len;
      handle_datagram(ByteView(ring.slot(i), len));
      ring.release(static_cast<std::size_t>(i), len);
    }
    if (static_cast<std::size_t>(n) < ring.slots()) return;  // drained
    // The whole ring filled — more datagrams are likely queued; go again
    // without returning to poll().
    ++stats_.rx_ring_full;
  }
}

Timer SocketTransport::schedule(SimTime delay, std::function<void()> action) {
  if (delay < 0) delay = 0;
  auto state = std::make_shared<TimerState>();
  state->action = std::move(action);
  timers_.push_back(PendingTimer{now() + delay, next_timer_seq_++, state});
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
  // A cancelled timer stays in the heap until its deadline unless it is
  // compacted out. Compacting only once the heap has doubled keeps the
  // cost amortized O(1) per schedule and needs no link from a Timer back
  // to the transport.
  if (timers_.size() >= 2 * timers_compacted_size_) compact_timers();
  return Timer(std::move(state));
}

void SocketTransport::compact_timers() {
  std::erase_if(timers_,
                [](const PendingTimer& t) { return t.state->cancelled; });
  std::make_heap(timers_.begin(), timers_.end(), TimerLater{});
  timers_compacted_size_ = std::max(timers_.size(), kTimerCompactionFloor);
}

std::size_t SocketTransport::timers_pending() const {
  return static_cast<std::size_t>(
      std::count_if(timers_.begin(), timers_.end(),
                    [](const PendingTimer& t) { return !t.state->cancelled; }));
}

void SocketTransport::fire_due_timers() {
  SimTime t = now();
  while (!timers_.empty() && timers_.front().when <= t) {
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    std::shared_ptr<TimerState> state = std::move(timers_.back().state);
    timers_.pop_back();
    if (state->cancelled || !state->action) continue;
    ++stats_.timers_fired;
    std::function<void()> action = std::move(state->action);
    action();
  }
}

SocketTransport::ReassemblyMap::iterator SocketTransport::drop_reassembly(
    ReassemblyMap::iterator it) {
  reassembly_reserved_ -= it->second.reserved;
  reassembly_held_ -= it->second.held;
  return reassembly_.erase(it);
}

void SocketTransport::expire_reassemblies() {
  SimTime t = now();
  if (t - last_gc_ < kReassemblyTimeout / 2) return;
  last_gc_ = t;
  for (auto it = reassembly_.begin(); it != reassembly_.end();) {
    if (t - it->second.first_seen > kReassemblyTimeout) {
      ++stats_.reassembly_expired;
      it = drop_reassembly(it);
    } else {
      ++it;
    }
  }
}

std::size_t SocketTransport::poll_once(SimTime max_wait) {
#ifndef NDEBUG
  // Bind the loop to its first caller, then hold every later iteration to
  // it: delivery and timers must share one thread — see the header.
  if (loop_thread_ == std::thread::id{}) {
    loop_thread_ = std::this_thread::get_id();
  }
  assert(loop_thread_ == std::this_thread::get_id() &&
         "SocketTransport must be polled from a single thread");
#endif
  std::uint64_t delivered_before =
      stats_.messages_delivered + stats_.timers_fired;
  flush_outbox();

  SimTime wait = max_wait < 0 ? 0 : max_wait;
  if (!timers_.empty()) {
    SimTime until_timer = timers_.front().when - now();
    if (until_timer < wait) wait = until_timer;
  }
  if (wait < 0) wait = 0;
  int timeout_ms = static_cast<int>((wait + kNanosPerMilli - 1) / kNanosPerMilli);

  std::vector<std::pair<std::string, int>> snapshot;
  snapshot.reserve(endpoints_.size());
  for (const auto& [name, ep] : endpoints_) snapshot.emplace_back(name, ep.fd);
  std::vector<pollfd> fds;
  fds.reserve(snapshot.size());
  for (const auto& [name, fd] : snapshot) {
    fds.push_back(pollfd{fd, POLLIN, 0});
  }

  int ready = 0;
  if (!fds.empty()) {
    ready = ::poll(fds.data(), fds.size(), timeout_ms);
  } else if (timeout_ms > 0) {
    ::poll(nullptr, 0, timeout_ms);
  }
  if (ready > 0) {
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLERR)) {
        read_socket(snapshot[i].first, snapshot[i].second);
      }
    }
  }

  fire_due_timers();
  flush_outbox();
  expire_reassemblies();
  return static_cast<std::size_t>(stats_.messages_delivered +
                                  stats_.timers_fired - delivered_before);
}

void SocketTransport::run() {
  stopped_ = false;
  while (!stopped_) {
    if (interrupt_check_ && interrupt_check_()) break;
    poll_once(millis(50));
  }
}

bool SocketTransport::run_until(const std::function<bool()>& done,
                                SimTime timeout) {
  SimTime deadline = now() + timeout;
  while (!done()) {
    if (stopped_) return done();
    if (interrupt_check_ && interrupt_check_()) return done();
    SimTime remaining = deadline - now();
    if (remaining <= 0) return done();
    poll_once(std::min<SimTime>(remaining, millis(20)));
  }
  return true;
}

}  // namespace ss::net
