// Conformance tests for the net::Transport seam.
//
// The same contract tests run against both backends — the deterministic
// simulated network (virtual time) and the UDP SocketTransport on localhost
// (real time) — so a component written against the seam behaves identically
// whichever backend a deployment picks. Plus: resolver parsing, wire-format
// hardening (truncation / byte-flip / hostile length prefixes), and a
// regression pinning that injected corruption is always *rejected*
// end-to-end (HMAC on SCADA links, CRC on field links), never silently
// accepted as data.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bft/messages.h"
#include "common/file.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "core/scada_link.h"
#include "heap_usage.h"
#include "net/lanes.h"
#include "net/resolver.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "rtu/driver.h"
#include "rtu/frame_check.h"
#include "rtu/modbus.h"
#include "rtu/rtu.h"
#include "rtu/sensors.h"
#include "scada/frontend.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace ss {
namespace {

// ---------------------------------------------------------------------------
// Backend harness

/// Wraps one Transport backend with a way to drive its loop, so the
/// conformance tests below are written once against this interface.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual net::Transport& transport() = 0;
  /// Drives the backend until pred() or `timeout` of backend time passes.
  virtual bool run_until(const std::function<bool()>& pred, SimTime timeout) = 0;
  /// Drives the backend for `duration` regardless of activity.
  void settle(SimTime duration) {
    run_until([] { return false; }, duration);
  }
};

class SimBackend final : public Backend {
 public:
  net::Transport& transport() override { return net_; }

  bool run_until(const std::function<bool()>& pred, SimTime timeout) override {
    SimTime deadline = loop_.now() + timeout;
    while (!pred() && !loop_.empty() && loop_.now() < deadline) {
      loop_.run_steps(1);
    }
    return pred();
  }

 private:
  sim::EventLoop loop_;
  sim::Network net_{loop_, micros(100), 0};
};

/// Ports for the socket backend: derived from the pid so parallel ctest
/// invocations on one machine don't collide, bumped per endpoint.
std::uint16_t next_port() {
  static std::uint16_t port =
      static_cast<std::uint16_t>(30000 + (::getpid() % 20000));
  return ++port;
}

class SocketBackend final : public Backend {
 public:
  SocketBackend() {
    net::Resolver resolver;
    for (const char* name :
         {"alice", "bob", "carol", "tester", "lonely"}) {
      resolver.add(name, net::SocketAddress{"127.0.0.1", next_port()});
    }
    transport_ = std::make_unique<net::SocketTransport>(std::move(resolver));
  }

  net::Transport& transport() override { return *transport_; }

  bool run_until(const std::function<bool()>& pred, SimTime timeout) override {
    return transport_->run_until(pred, timeout);
  }

 private:
  std::unique_ptr<net::SocketTransport> transport_;
};

std::unique_ptr<Backend> make_backend(const std::string& kind) {
  if (kind == "sim") return std::make_unique<SimBackend>();
  return std::make_unique<SocketBackend>();
}

class TransportConformance : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values("sim", "socket"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Conformance: delivery

TEST_P(TransportConformance, DeliversPayloadWithSenderAndReceiverNames) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();

  std::vector<net::Message> got;
  t.attach("alice", [](net::Message) {});
  t.attach("bob", [&](net::Message m) { got.push_back(std::move(m)); });

  t.send("alice", "bob", Bytes{1, 2, 3});
  ASSERT_TRUE(backend->run_until([&] { return !got.empty(); }, seconds(5)));
  EXPECT_EQ(got[0].from, "alice");
  EXPECT_EQ(got[0].to, "bob");
  EXPECT_EQ(got[0].payload, (Bytes{1, 2, 3}));
}

TEST_P(TransportConformance, DeliveryIsNeverReentrantInsideSend) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();

  bool delivered = false;
  t.attach("alice", [](net::Message) {});
  t.attach("bob", [&](net::Message) { delivered = true; });

  t.send("alice", "bob", Bytes{42});
  // The contract: even a loopback/zero-latency send is delivered on a later
  // loop iteration, never inside send() itself.
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(backend->run_until([&] { return delivered; }, seconds(5)));
}

TEST_P(TransportConformance, SendToUnknownNameIsSilentlyDropped) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();
  t.attach("alice", [](net::Message) {});
  t.send("alice", "nobody-home", Bytes{9});  // must not throw or crash
  backend->settle(millis(50));
}

TEST_P(TransportConformance, AttachedTracksAttachAndDetach) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();
  EXPECT_FALSE(t.attached("carol"));
  t.attach("carol", [](net::Message) {});
  EXPECT_TRUE(t.attached("carol"));
  t.detach("carol");
  EXPECT_FALSE(t.attached("carol"));
}

TEST_P(TransportConformance, LargePayloadSurvivesRoundTrip) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();

  // Large enough to span several UDP fragments on the socket backend
  // (models a state-transfer snapshot).
  Bytes big(300'000);
  Rng rng(7);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.below(256));

  std::vector<net::Message> got;
  t.attach("alice", [](net::Message) {});
  t.attach("bob", [&](net::Message m) { got.push_back(std::move(m)); });
  t.send("alice", "bob", big);
  ASSERT_TRUE(backend->run_until([&] { return !got.empty(); }, seconds(5)));
  EXPECT_EQ(got[0].payload, big);
}

TEST_P(TransportConformance, PeerRestartResumesDelivery) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();

  std::size_t received = 0;
  auto handler = [&](net::Message) { ++received; };
  t.attach("alice", [](net::Message) {});
  t.attach("bob", handler);

  t.send("alice", "bob", Bytes{1});
  ASSERT_TRUE(backend->run_until([&] { return received == 1; }, seconds(5)));

  // Crash bob: messages sent while down are lost, not queued.
  t.detach("bob");
  t.send("alice", "bob", Bytes{2});
  backend->settle(millis(100));
  EXPECT_EQ(received, 1u);

  // Restart and verify fresh messages flow again.
  t.attach("bob", handler);
  t.send("alice", "bob", Bytes{3});
  EXPECT_TRUE(backend->run_until([&] { return received == 2; }, seconds(5)));
}

// ---------------------------------------------------------------------------
// Conformance: timers

TEST_P(TransportConformance, TimersFireInDelayOrderAndHonourCancel) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();

  std::vector<int> fired;
  net::Timer slow = t.schedule(millis(60), [&] { fired.push_back(1); });
  net::Timer fast = t.schedule(millis(10), [&] { fired.push_back(2); });
  net::Timer doomed = t.schedule(millis(30), [&] { fired.push_back(3); });

  EXPECT_TRUE(slow.active());
  doomed.cancel();
  EXPECT_FALSE(doomed.active());

  ASSERT_TRUE(backend->run_until([&] { return fired.size() == 2; }, seconds(5)));
  backend->settle(millis(50));
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  // active() reports "not cancelled"; firing does not clear it (both
  // backends share sim::TimerHandle's semantics).
  EXPECT_TRUE(fast.active());
  EXPECT_FALSE(doomed.active());
}

TEST_P(TransportConformance, NowAdvancesAcrossTimers) {
  auto backend = make_backend(GetParam());
  net::Transport& t = backend->transport();
  SimTime before = t.now();
  bool done = false;
  t.schedule(millis(20), [&] { done = true; });
  ASSERT_TRUE(backend->run_until([&] { return done; }, seconds(5)));
  EXPECT_GE(t.now() - before, millis(20));
}

TEST_P(TransportConformance, LanesRunSubmittedWorkInOrder) {
  auto backend = make_backend(GetParam());
  net::Lanes lanes(backend->transport(), 1);

  std::vector<int> order;
  lanes.submit(millis(5), [&] { order.push_back(1); });
  lanes.submit(millis(5), [&] { order.push_back(2); });
  ASSERT_TRUE(backend->run_until([&] { return order.size() == 2; }, seconds(5)));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(lanes.jobs(), 2u);
  EXPECT_EQ(lanes.busy_ns(), millis(10));
}

// ---------------------------------------------------------------------------
// Resolver

TEST(Resolver, ParsesNamesCommentsAndBlankLines) {
  net::Resolver r = net::Resolver::parse(
      "# deployment map\n"
      "replica/0 127.0.0.1:5000\n"
      "\n"
      "proxy/hmi localhost:5100   # trailing comment\n");
  ASSERT_EQ(r.size(), 2u);
  ASSERT_NE(r.lookup("replica/0"), nullptr);
  EXPECT_EQ(r.lookup("replica/0")->port, 5000);
  EXPECT_EQ(r.lookup("proxy/hmi")->host, "localhost");
  EXPECT_EQ(r.lookup("missing"), nullptr);
}

TEST(Resolver, RoundTripsThroughText) {
  net::Resolver r;
  r.add("a", net::SocketAddress{"10.0.0.1", 1234});
  r.add("b", net::SocketAddress{"127.0.0.1", 4321});
  net::Resolver again = net::Resolver::parse(r.to_text());
  EXPECT_EQ(again.size(), 2u);
  EXPECT_EQ(*again.lookup("a"), (net::SocketAddress{"10.0.0.1", 1234}));
}

TEST(Resolver, RejectsMalformedLines) {
  EXPECT_THROW(net::Resolver::parse("no-address\n"), std::runtime_error);
  EXPECT_THROW(net::Resolver::parse("name host:99999\n"), std::runtime_error);
  EXPECT_THROW(net::Resolver::parse("name host:0\n"), std::runtime_error);
  EXPECT_THROW(net::Resolver::parse("name host:\n"), std::runtime_error);
}

/// A fresh directory under /tmp, removed with everything in it on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/ss_net_test_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw std::runtime_error("mkdtemp");
    path_ = tmpl;
  }
  ~TempDir() {
    const std::string cmd = "rm -rf " + path_;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

void write_text(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr) << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), out), text.size());
  ASSERT_EQ(std::fclose(out), 0);
}

/// The message of the std::runtime_error `load` throws ("" if none).
template <typename Load>
std::string error_of(Load load) {
  try {
    load();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Resolver, FromFileRejectsADirectoryInsteadOfParsingItAsEmpty) {
  TempDir dir;
  const std::string error =
      error_of([&] { net::Resolver::from_file(dir.path()); });
  EXPECT_NE(error.find(dir.path()), std::string::npos) << error;
  EXPECT_NE(error.find("Is a directory"), std::string::npos) << error;
}

TEST(Resolver, FromFileOnAMissingFileSaysCannotOpen) {
  TempDir dir;
  const std::string path = dir.file("absent.conf");
  EXPECT_EQ(error_of([&] { net::Resolver::from_file(path); }),
            "cannot open resolver config: " + path);
}

TEST(Resolver, FromFileParsesAConfigLargerThanOneReadChunk) {
  // Comments and CRLF line ends throughout, and entries straddling every
  // read() boundary of the shared whole-file reader.
  std::string text = "# generated deployment map\r\n\r\n";
  std::uint16_t count = 0;
  while (text.size() < 2 * kReadChunk + 1000) {
    text += "# entry " + std::to_string(count) + "\r\n";
    text += "node/" + std::to_string(count) + " 127.0.0.1:" +
            std::to_string(1000 + count) + "   # trailing\r\n";
    ++count;
  }
  TempDir dir;
  write_text(dir.file("big.conf"), text);
  const net::Resolver r = net::Resolver::from_file(dir.file("big.conf"));
  ASSERT_EQ(r.size(), count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const net::SocketAddress* a = r.lookup("node/" + std::to_string(i));
    ASSERT_NE(a, nullptr) << i;
    EXPECT_EQ(*a, (net::SocketAddress{"127.0.0.1",
                                      static_cast<std::uint16_t>(1000 + i)}));
  }
}

TEST(Resolver, ToTextRoundTripsThroughAFileByteForByte) {
  net::Resolver r;
  r.add("replica/0", net::SocketAddress{"127.0.0.1", 47000});
  r.add("proxy/hmi", net::SocketAddress{"localhost", 65535});
  r.add("adapter/0", net::SocketAddress{"10.0.0.1", 1});
  const std::string text = r.to_text();
  EXPECT_EQ(text,
            "adapter/0 10.0.0.1:1\n"
            "proxy/hmi localhost:65535\n"
            "replica/0 127.0.0.1:47000\n");
  TempDir dir;
  write_text(dir.file("group.conf"), text);
  EXPECT_EQ(net::Resolver::from_file(dir.file("group.conf")).to_text(), text);
}

// ---------------------------------------------------------------------------
// Wire-format hardening

bft::ClientRequest sample_request() {
  bft::ClientRequest req;
  req.client = ClientId{7};
  req.sequence = RequestId{31};
  req.payload = bytes_of("write value item=9 v=1.5");
  return req;
}

TEST(Hardening, EveryTruncationOfAValidMessageThrowsDecodeError) {
  Bytes full = sample_request().encode();
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteView prefix(full.data(), len);
    // Any strict prefix must raise DecodeError — never crash, hang, or
    // return a half-parsed message (expect_done catches short reads that
    // happen to align on field boundaries... and those that parse fully
    // are impossible because the trailing field is length-prefixed).
    EXPECT_THROW(bft::ClientRequest::decode(prefix), DecodeError)
        << "prefix length " << len;
  }
}

TEST(Hardening, RandomByteFlipsNeverCrashTheDecoder) {
  Bytes full = sample_request().encode();
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = full;
    std::size_t flips = 1 + rng.below(3);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    try {
      bft::ClientRequest::decode(mutated);  // may succeed or...
    } catch (const DecodeError&) {          // ...fail cleanly; nothing else
    }
  }
}

TEST(Hardening, HostileLengthPrefixIsRejectedNotOverflowed) {
  // varint length prefix of ~2^63: `pos_ + n` used to wrap around the
  // bounds check and read out of bounds. Must throw instead.
  Bytes hostile = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
  Reader r(hostile);
  EXPECT_THROW(r.blob(), DecodeError);

  Bytes hostile_str = {0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
  Reader r2(hostile_str);
  EXPECT_THROW(r2.str(), DecodeError);
}

TEST(Hardening, OversizedIdVarintIsRejectedNotTruncated) {
  Writer w;
  w.varint(std::uint64_t{1} << 40);  // does not fit ItemId's uint32 rep
  Bytes data = std::move(w).take();
  Reader r(data);
  EXPECT_THROW(r.id<ItemId>(), DecodeError);

  Writer w2;
  w2.varint((std::uint64_t{1} << 32) + 5);
  Bytes data2 = std::move(w2).take();
  Reader r2(data2);
  EXPECT_THROW(r2.varint32(), DecodeError);
}

TEST(Hardening, ModbusCrcCatchesEverySingleByteCorruption) {
  rtu::ModbusRequest req;
  req.transaction = 9;
  req.function = rtu::FunctionCode::kWriteSingleRegister;
  req.address = 44;
  req.values = {1234};
  Bytes frame = req.encode();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    Bytes mutated = frame;
    mutated[i] ^= 0xff;
    EXPECT_THROW(rtu::ModbusRequest::decode(mutated), DecodeError)
        << "flip at byte " << i << " was silently accepted";
  }
  // The pristine frame still parses.
  EXPECT_EQ(rtu::ModbusRequest::decode(frame).values, req.values);
}

TEST(Hardening, ModbusCrcCatchesTruncationAndExtension) {
  rtu::ModbusRequest req;
  req.values = {77};
  Bytes frame = req.encode();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(
        rtu::ModbusRequest::decode(ByteView(frame.data(), len)), DecodeError);
  }
  Bytes extended = frame;
  extended.push_back(0xab);
  EXPECT_THROW(rtu::ModbusRequest::decode(extended), DecodeError);
}

// ---------------------------------------------------------------------------
// Corruption-injection regression: corrupted payloads must be rejected
// end-to-end, never silently accepted.

class CorruptionRejection : public ::testing::TestWithParam<sim::CorruptMode> {
};

INSTANTIATE_TEST_SUITE_P(Modes, CorruptionRejection,
                         ::testing::Values(sim::CorruptMode::kFlip,
                                           sim::CorruptMode::kTruncate,
                                           sim::CorruptMode::kExtend),
                         [](const auto& info) {
                           switch (info.param) {
                             case sim::CorruptMode::kFlip: return "Flip";
                             case sim::CorruptMode::kTruncate: return "Truncate";
                             default: return "Extend";
                           }
                         });

TEST_P(CorruptionRejection, CorruptedFieldWritesAreNeverApplied) {
  sim::EventLoop loop;
  sim::Network net(loop, micros(100), 0);
  rtu::Rtu rtu(net, "rtu/1");
  scada::Frontend frontend;
  rtu::RtuDriver driver(net, frontend,
                        rtu::DriverOptions{.poll_period = millis(20),
                                           .write_timeout = millis(200)});

  sim::LinkPolicy corrupt;
  corrupt.corrupt_prob = 1.0;
  corrupt.corrupt_mode = GetParam();
  net.set_policy("frontend/driver", "rtu/1", corrupt);

  rtu.add_actuator(7, 0);
  ItemId item = frontend.add_item("valve/a");
  driver.bind_actuator("rtu/1", 7, rtu::RegisterScaling{1.0, 0.0}, item);
  driver.start();

  std::vector<scada::ScadaMessage> to_master;
  frontend.set_master_sink(
      [&](const scada::ScadaMessage& m) { to_master.push_back(m); });

  scada::WriteValue write;
  write.ctx.op = OpId{1};
  write.item = item;
  write.value = scada::Variant{55.0};
  frontend.handle(scada::ScadaMessage{write});
  loop.run_until(millis(500));

  // Every write request was mangled on the wire: the RTU must reject the
  // frame (CRC), apply nothing, and the driver must time the write out.
  EXPECT_GT(net.stats().corrupted, 0u);
  EXPECT_EQ(rtu.writes_applied(), 0u);
  EXPECT_EQ(rtu.register_value(7), 0u);
  ASSERT_EQ(to_master.size(), 1u);
  EXPECT_EQ(std::get<scada::WriteResult>(to_master[0]).status,
            scada::WriteStatus::kFailed);
}

// ---------------------------------------------------------------------------
// Reassembly hardening (socket backend)

TEST(Reassembly, ConflictingFragmentHeaderDoesNotPoisonTransfer) {
  // Regression: a single spoofed datagram that reuses an in-flight
  // (from, msg_id, to) key with a *different* fragment count used to erase
  // the whole reassembly state, so the genuine transfer could never
  // complete. The first-seen header is authoritative; only the conflicting
  // datagram may be dropped.
  net::Resolver resolver;
  std::uint16_t port = next_port();
  resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
  net::SocketTransport transport(std::move(resolver));

  Bytes received;
  transport.attach("bob",
                   [&](net::Message m) { received = std::move(m.payload); });

  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(port);
  dest.sin_addr.s_addr = inet_addr("127.0.0.1");

  auto send_frag = [&](std::uint64_t msg_id, std::uint16_t index,
                       std::uint16_t count, const Bytes& piece) {
    Writer w;
    w.u32(0x53535450);  // "SSTP"
    w.u8(1);            // version
    w.u64(msg_id);
    w.u16(index);
    w.u16(count);
    w.str("alice");
    w.str("bob");
    w.blob(ByteView(piece.data(), piece.size()));
    Bytes datagram = std::move(w).take();
    ASSERT_EQ(::sendto(fd, datagram.data(), datagram.size(), 0,
                       reinterpret_cast<sockaddr*>(&dest), sizeof(dest)),
              static_cast<ssize_t>(datagram.size()));
  };

  send_frag(7, 0, 3, Bytes{'A', 'A', 'A', 'A'});
  ASSERT_TRUE(transport.run_until(
      [&] { return transport.stats().datagrams_received >= 1; }, millis(500)));

  // The spoofed conflicting header: same key, count 2 instead of 3.
  std::uint64_t errors_before = transport.stats().decode_errors;
  send_frag(7, 0, 2, Bytes{'X', 'X'});
  ASSERT_TRUE(transport.run_until(
      [&] { return transport.stats().decode_errors > errors_before; },
      millis(500)));
  EXPECT_EQ(transport.stats().decode_errors, errors_before + 1);
  EXPECT_TRUE(received.empty());

  // The genuine transfer still completes with the remaining fragments.
  send_frag(7, 1, 3, Bytes{'B', 'B', 'B', 'B'});
  send_frag(7, 2, 3, Bytes{'C', 'C'});
  EXPECT_TRUE(
      transport.run_until([&] { return !received.empty(); }, millis(500)));
  EXPECT_EQ(received,
            (Bytes{'A', 'A', 'A', 'A', 'B', 'B', 'B', 'B', 'C', 'C'}));
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Batched RX (recvmmsg fast path, socket backend)

/// One single-fragment SSTP frame, as a peer would put it on the wire.
Bytes make_frame(std::uint64_t msg_id, const std::string& from,
                 const std::string& to, const Bytes& payload) {
  Writer w;
  w.u32(0x53535450);  // "SSTP"
  w.u8(1);            // version
  w.u64(msg_id);
  w.u16(0);
  w.u16(1);
  w.str(from);
  w.str(to);
  w.blob(ByteView(payload.data(), payload.size()));
  return std::move(w).take();
}

/// Blasts `frames` into `port` from one ephemeral socket, so they are all
/// queued on the receiver before it polls once — the deterministic way to
/// force multi-datagram recvmmsg batches.
void blast(std::uint16_t port, const std::vector<Bytes>& frames) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(port);
  dest.sin_addr.s_addr = inet_addr("127.0.0.1");
  for (const Bytes& frame : frames) {
    ASSERT_EQ(::sendto(fd, frame.data(), frame.size(), 0,
                       reinterpret_cast<sockaddr*>(&dest), sizeof(dest)),
              static_cast<ssize_t>(frame.size()));
  }
  ::close(fd);
}

TEST(Reassembly, ShuffledDuplicatedAndSpoofedFragmentsOfALargeMessage) {
  // A 200 KB message in four fragments (three full 60 000-byte ones and a
  // short last one), sent out of order with a duplicate and a spoofed
  // conflicting header among them, arrives once and byte-identical.
  net::Resolver resolver;
  std::uint16_t port = next_port();
  resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
  net::SocketTransport transport(std::move(resolver));

  std::vector<Bytes> received;
  transport.attach("bob", [&](net::Message m) {
    received.push_back(std::move(m.payload));
  });

  Bytes message(200000);
  for (std::size_t k = 0; k < message.size(); ++k) {
    message[k] = static_cast<std::uint8_t>(k * 131 + (k >> 9));
  }
  auto fragment = [&](std::uint16_t index) {
    const std::size_t off = std::size_t{index} * 60000;
    return Bytes(message.begin() + static_cast<std::ptrdiff_t>(off),
                 message.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(off + 60000, message.size())));
  };
  auto datagram = [&](std::uint16_t index, std::uint16_t count,
                      const Bytes& piece) {
    Writer w;
    w.u32(0x53535450);  // "SSTP"
    w.u8(1);            // version
    w.u64(9);           // message id
    w.u16(index);
    w.u16(count);
    w.str("alice");
    w.str("bob");
    w.blob(piece);
    return std::move(w).take();
  };
  const std::uint64_t errors_before = transport.stats().decode_errors;
  // One datagram per poll, so every arrival order below is the one handled.
  auto deliver_one = [&](const Bytes& frame) {
    const std::uint64_t seen = transport.stats().datagrams_received;
    blast(port, {frame});
    ASSERT_TRUE(transport.run_until(
        [&] { return transport.stats().datagrams_received > seen; },
        seconds(2)));
  };
  deliver_one(datagram(2, 4, fragment(2)));
  deliver_one(datagram(0, 4, fragment(0)));
  deliver_one(datagram(2, 4, Bytes(60000, 0xee)));   // duplicate: first wins
  deliver_one(datagram(1, 5, Bytes(60000, 0xdd)));   // conflicting count
  deliver_one(datagram(3, 4, fragment(3)));
  EXPECT_TRUE(received.empty());
  deliver_one(datagram(1, 4, fragment(1)));

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], message);
  EXPECT_EQ(transport.stats().decode_errors, errors_before + 1);
  EXPECT_EQ(transport.stats().messages_delivered, 1u);
}

TEST(BatchedRx, BurstDrainsInOrderWithMultiDatagramBatches) {
  net::Resolver resolver;
  std::uint16_t port = next_port();
  resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
  net::SocketOptions options;
  options.rx_batch = 8;
  net::SocketTransport transport(std::move(resolver), options);

  std::vector<Bytes> got;
  transport.attach("bob",
                   [&](net::Message m) { got.push_back(std::move(m.payload)); });

  std::vector<Bytes> frames;
  for (std::uint8_t i = 0; i < 20; ++i) {
    frames.push_back(make_frame(i + 1, "alice", "bob", Bytes{i, i, i}));
  }
  blast(port, frames);

  ASSERT_TRUE(transport.run_until([&] { return got.size() >= 20; }, seconds(2)));
  ASSERT_EQ(got.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i], (Bytes{i, i, i})) << "datagram " << int(i) << " reordered";
  }
  // 20 queued datagrams through an 8-slot ring must arrive in fewer than 20
  // read calls — i.e. at least one batch held more than one datagram.
  EXPECT_EQ(transport.stats().datagrams_received, 20u);
  EXPECT_GE(transport.stats().rx_batches, 1u);
  EXPECT_LT(transport.stats().rx_batches,
            transport.stats().datagrams_received);
}

TEST(BatchedRx, RingExhaustionCountsAndKeepsDraining) {
  net::Resolver resolver;
  std::uint16_t port = next_port();
  resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
  net::SocketOptions options;
  options.rx_batch = 4;  // force several full rings for 20 datagrams
  net::SocketTransport transport(std::move(resolver), options);

  std::size_t delivered = 0;
  transport.attach("bob", [&](net::Message) { ++delivered; });

  std::vector<Bytes> frames;
  for (std::uint8_t i = 0; i < 20; ++i) {
    frames.push_back(make_frame(i + 1, "alice", "bob", Bytes{i}));
  }
  blast(port, frames);

  // A full ring must never truncate the burst: the read loop goes straight
  // back to the socket instead of waiting for the next poll wakeup.
  ASSERT_TRUE(transport.run_until([&] { return delivered >= 20; }, seconds(2)));
  EXPECT_EQ(delivered, 20u);
  EXPECT_GE(transport.stats().rx_ring_full, 1u);
}

TEST(BatchedRx, RecvfromFallbackDeliversByteIdenticalMessages) {
  // rx_batch = 1 selects the one-datagram-per-recvfrom path — the same code
  // that handles kernels without recvmmsg. Same wire input must produce the
  // same delivered messages, byte for byte, on both paths.
  std::vector<Bytes> frames;
  for (std::uint8_t i = 0; i < 12; ++i) {
    Bytes payload;
    for (std::uint8_t j = 0; j <= i; ++j) payload.push_back(i ^ j);
    frames.push_back(make_frame(i + 1, "alice", "bob", payload));
  }
  // A maximum-size fragment (the transport's 60 000-byte cap) fills most of
  // a 64 KiB ring slot, so every page of the slot must carry its bytes.
  Bytes largest(60000);
  for (std::size_t k = 0; k < largest.size(); ++k) {
    largest[k] = static_cast<std::uint8_t>(k * 31 + 7);
  }
  frames.push_back(make_frame(13, "alice", "bob", largest));

  auto deliver_with = [&](std::size_t rx_batch) {
    net::Resolver resolver;
    std::uint16_t port = next_port();
    resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
    net::SocketOptions options;
    options.rx_batch = rx_batch;
    net::SocketTransport transport(std::move(resolver), options);
    std::vector<net::Message> got;
    transport.attach("bob",
                     [&](net::Message m) { got.push_back(std::move(m)); });
    blast(port, frames);
    transport.run_until([&] { return got.size() >= frames.size(); },
                        seconds(2));
    return got;
  };

  std::vector<net::Message> batched = deliver_with(8);
  std::vector<net::Message> single = deliver_with(1);
  ASSERT_EQ(batched.size(), frames.size());
  ASSERT_EQ(single.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(batched[i].from, single[i].from);
    EXPECT_EQ(batched[i].to, single[i].to);
    EXPECT_EQ(batched[i].payload, single[i].payload);
  }
  EXPECT_EQ(batched.back().payload, largest);
  EXPECT_EQ(single.back().payload, largest);
}

/// A "<field> <n> kB" line of /proc/self/status, in KiB.
long status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtol(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return -1;
}

/// This process's resident set in KiB.
long resident_kib() { return status_kib("VmRSS:"); }

TEST(BatchedRx, RingIsResidentOnlyWhereDatagramsLand) {
  // The default ring reserves 32 x 64 KiB of address space. Constructing the
  // transport must not make it resident, small datagrams through every slot
  // touch about one page each, and full 60 000-byte fragments leave no more
  // once handled: their slots hand their pages back.
  constexpr long kBoundKib = 1024;
  std::vector<Bytes> small_frames;
  std::vector<Bytes> large_frames;
  for (std::uint8_t i = 0; i < 32; ++i) {
    small_frames.push_back(make_frame(i + 1, "alice", "bob", Bytes{i, i, i}));
    large_frames.push_back(make_frame(i + 1, "alice", "bob", Bytes(60000, i)));
  }
  // The full-size pass needs all 32 queued at once to land in every slot,
  // and its payloads go through malloc: a sanitizer's allocator keeps the
  // freed ones resident, so there VmRSS would not show the slab.
  std::string large_skip;
  {
    std::ifstream rmem("/proc/sys/net/core/rmem_max");
    long rmem_max = 0;
    if (rmem >> rmem_max && rmem_max < (3L << 20)) {
      large_skip = "net.core.rmem_max=" + std::to_string(rmem_max) +
                   " cannot queue 32 full-size datagrams";
    }
  }
  if (!SS_HEAP_USAGE_MEASURABLE) {
    large_skip = "the allocator is replaced in this build";
  }
  // VmRSS growth once a transport is constructed and once `frames` have
  // drained through it.
  auto growth = [&](std::size_t rx_batch, const std::vector<Bytes>& frames) {
    const long before = resident_kib();
    net::Resolver resolver;
    std::uint16_t port = next_port();
    resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
    net::SocketOptions options;
    options.rx_batch = rx_batch;
    net::SocketTransport transport(std::move(resolver), options);
    const long constructed = resident_kib() - before;
    std::size_t delivered = 0;
    transport.attach("bob", [&](net::Message) { ++delivered; });
    blast(port, frames);
    EXPECT_TRUE(transport.run_until(
        [&] { return delivered >= frames.size(); }, seconds(2)));
    return std::make_pair(constructed, resident_kib() - before);
  };
  // A first pass through a 2-slot ring faults in the code pages the RX path
  // runs (and the heap its payloads take), so the measured passes see only
  // what the default ring adds.
  ASSERT_GT(resident_kib(), 0);
  growth(2, large_skip.empty() ? large_frames : small_frames);
  const auto [constructed, drained] =
      growth(net::SocketOptions{}.rx_batch, small_frames);
  EXPECT_LT(constructed, kBoundKib) << "at construction";
  EXPECT_LT(drained, kBoundKib) << "after 32 datagrams";
  if (!large_skip.empty()) GTEST_SKIP() << "full-size pass: " << large_skip;
  const auto [large_constructed, large_drained] =
      growth(net::SocketOptions{}.rx_batch, large_frames);
  EXPECT_LT(large_constructed, kBoundKib) << "at construction";
  EXPECT_LT(large_drained, kBoundKib) << "after 32 full-size datagrams";
}

TEST(Reassembly, ForgedFirstFragmentsReserveABoundedTotal) {
  // A frame header is not authenticated, yet the first fragment's claimed
  // count sizes the room reserved for the whole message. 200 forged 1 KiB
  // first fragments that each claim 65535 fragments (a 64 MiB message)
  // must not reserve 200 x 64 MiB of address space, and a genuine large
  // message sent while they are all still in flight must arrive intact.
  net::Resolver resolver;
  std::uint16_t port = next_port();
  resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
  net::SocketTransport transport(std::move(resolver));
  std::vector<Bytes> received;
  transport.attach("bob", [&](net::Message m) {
    received.push_back(std::move(m.payload));
  });

  auto fragment_frame = [](std::uint64_t msg_id, std::uint16_t index,
                           std::uint16_t count, const Bytes& piece) {
    Writer w;
    w.u32(0x53535450);  // "SSTP"
    w.u8(1);            // version
    w.u64(msg_id);
    w.u16(index);
    w.u16(count);
    w.str("mallory");
    w.str("bob");
    w.blob(piece);
    return std::move(w).take();
  };
  // A few at a time, so a small socket buffer drops none of them.
  auto deliver = [&](const std::vector<Bytes>& frames) {
    for (std::size_t i = 0; i < frames.size(); i += 10) {
      const std::uint64_t seen = transport.stats().datagrams_received;
      const std::size_t end = std::min(frames.size(), i + 10);
      blast(port, std::vector<Bytes>(frames.begin() + i, frames.begin() + end));
      ASSERT_TRUE(transport.run_until(
          [&] {
            return transport.stats().datagrams_received >= seen + (end - i);
          },
          seconds(2)));
    }
  };

  constexpr int kForged = 200;
  std::vector<Bytes> forged;
  for (int i = 0; i < kForged; ++i) {
    forged.push_back(fragment_frame(1000 + i, 0, 65535,
                                    Bytes(1024, static_cast<std::uint8_t>(i))));
  }
  const long before = status_kib("VmSize:");
  ASSERT_GT(before, 0);
  deliver(forged);
  const long grown = status_kib("VmSize:") - before;
  // At most one message's worth (64 MiB) is reserved in all, plus the
  // bookkeeping of 200 partial messages.
  EXPECT_LT(grown, 96 * 1024) << "KiB of address space for " << kForged
                              << " forged first fragments";
  EXPECT_TRUE(received.empty());

  Bytes message(150000);
  for (std::size_t k = 0; k < message.size(); ++k) {
    message[k] = static_cast<std::uint8_t>(k * 7 + (k >> 11));
  }
  std::vector<Bytes> genuine;
  for (std::uint16_t f = 0; f < 3; ++f) {
    const std::size_t off = std::size_t{f} * 60000;
    genuine.push_back(fragment_frame(
        1, f, 3,
        Bytes(message.begin() + static_cast<std::ptrdiff_t>(off),
              message.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(off + 60000, message.size())))));
  }
  deliver(genuine);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], message);
}

TEST(Reassembly, ForgedFragmentsUnderManyIdsHoldABoundedTotal) {
  // Each forged datagram is the second fragment of a two-fragment message
  // under a message id of its own, so it waits past its gap for the whole
  // reassembly timeout. 1400 of them carry 84 MB; what partial messages
  // hold is budgeted at one maximal message (64 MiB), and the rest are
  // dropped and counted instead of held.
  SS_REQUIRE_HEAP_USAGE();
  net::Resolver resolver;
  std::uint16_t port = next_port();
  resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
  net::SocketTransport transport(std::move(resolver));
  std::size_t received = 0;
  transport.attach("bob", [&](net::Message) { ++received; });

  const Bytes piece(60000, 0xab);
  auto frame = [&](std::uint64_t msg_id) {
    Writer w;
    w.u32(0x53535450);  // "SSTP"
    w.u8(1);            // version
    w.u64(msg_id);
    w.u16(1);  // fragment 1 of 2
    w.u16(2);
    w.str("mallory");
    w.str("bob");
    w.blob(piece);
    return std::move(w).take();
  };
  constexpr int kForged = 1400;
  // Four at a time, so even a socket buffer capped at the kernel's default
  // rmem_max drops none of them.
  constexpr int kBatch = 4;
  const std::size_t before = test::heap_in_use();
  for (int i = 0; i < kForged; i += kBatch) {
    std::vector<Bytes> frames;
    for (int k = i; k < i + kBatch; ++k) frames.push_back(frame(5000 + k));
    const std::uint64_t seen = transport.stats().datagrams_received;
    blast(port, frames);
    ASSERT_TRUE(transport.run_until(
        [&] { return transport.stats().datagrams_received >= seen + kBatch; },
        seconds(2)));
  }
  const std::size_t grown = test::heap_in_use() - before;
  EXPECT_LT(grown, std::size_t{68} << 20)
      << "bytes held by " << kForged << " forged fragments";
  EXPECT_GT(transport.stats().reassembly_budget_drops, 0u);
  EXPECT_EQ(received, 0u);
}

// ---------------------------------------------------------------------------
// Socket timers and zero-cost work

TEST(ZeroCostWork, RunsInsideTheHandlerOnSockets) {
  // The socket backend models no CPU: a zero-cost Lanes job submitted from a
  // handler runs before the handler returns, without a timer, so each
  // datagram of an RX batch is fully handled before the next one is read.
  net::Resolver resolver;
  std::uint16_t port = next_port();
  resolver.add("bob", net::SocketAddress{"127.0.0.1", port});
  net::SocketOptions options;
  options.rx_batch = 8;
  net::SocketTransport transport(std::move(resolver), options);
  EXPECT_FALSE(transport.models_cpu());
  net::Lanes lanes(transport, 1);

  std::vector<std::string> order;
  transport.attach("bob", [&](net::Message m) {
    const std::string n = std::to_string(m.payload.at(0));
    lanes.submit(0, [&order, n] { order.push_back("job " + n); });
    order.push_back("return " + n);
  });
  blast(port, {make_frame(1, "alice", "bob", Bytes{1}),
               make_frame(2, "alice", "bob", Bytes{2})});
  ASSERT_TRUE(
      transport.run_until([&] { return order.size() >= 4; }, seconds(2)));
  EXPECT_EQ(order, (std::vector<std::string>{"job 1", "return 1", "job 2",
                                             "return 2"}));
  EXPECT_EQ(transport.stats().timers_fired, 0u);
  EXPECT_EQ(lanes.jobs(), 2u);
}

TEST(ZeroCostWork, StaysAZeroDelayTimerInTheSimulator) {
  // The simulator keeps its event order: the same job runs after the
  // handler returns, at the delivery time, ahead of a zero-delay timer the
  // handler schedules after it.
  sim::EventLoop loop;
  sim::Network net(loop, micros(100), 0);
  EXPECT_TRUE(net.models_cpu());
  net::Lanes lanes(net, 1);

  std::vector<std::string> order;
  SimTime job_at = -1;
  net.attach("bob", [&](net::Message) {
    lanes.submit(0, [&] {
      order.push_back("job");
      job_at = loop.now();
    });
    net.schedule(0, [&] { order.push_back("timer"); });
    order.push_back("return");
  });
  net.send("alice", "bob", Bytes{1});
  loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"return", "job", "timer"}));
  EXPECT_EQ(job_at, micros(100));
}

/// `transport.<field>` from the registry's JSON snapshot; -1 if absent.
double transport_metric(const std::string& field) {
  const std::string json = obs::Registry::instance().json();
  const std::string key = "\"" + field + "\":";
  const std::size_t source = json.find("\"transport\"");
  if (source == std::string::npos) return -1;
  const std::size_t at = json.find(key, source);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

TEST(SocketTimers, CancelledTimersLeaveTheHeap) {
  // Each follower arms a suspect timer per request and cancels it when the
  // request executes. 100 000 timers scheduled 1 s ahead and cancelled must
  // not stay queued until their deadline.
  SS_REQUIRE_HEAP_USAGE();
  net::Resolver resolver;
  resolver.add("bob", net::SocketAddress{"127.0.0.1", next_port()});
  net::SocketTransport transport(std::move(resolver));
  std::size_t fired = 0;
  transport.schedule(millis(1), [&] { ++fired; });  // one live timer
  const std::size_t before = test::heap_in_use();
  for (int i = 0; i < 100000; ++i) {
    net::Timer timer =
        transport.schedule(seconds(1), [&fired, i] { fired += i; });
    timer.cancel();
  }
  const std::size_t after = test::heap_in_use();
  EXPECT_EQ(transport_metric("timers_pending"), 1);
  EXPECT_LT(after, before + (std::size_t{16} << 10)) << "heap bytes";
  ASSERT_TRUE(transport.run_until([&] { return fired > 0; }, seconds(1)));
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(transport_metric("timers_pending"), 0);
  EXPECT_EQ(transport.stats().timers_fired, 1u);
}

TEST(SocketOptionsFromEnv, RxBatchTakesAWholeNumberInRange) {
  net::SocketOptions base;
  base.rx_batch = 5;
  ::unsetenv("SS_RX_BATCH");
  EXPECT_EQ(net::socket_options_from_env(base).rx_batch, 5u);
  ::setenv("SS_RX_BATCH", "8", 1);
  EXPECT_EQ(net::socket_options_from_env(base).rx_batch, 8u);
  // Each of these used to leave the base value (or, for "16k", 16) in
  // place without a word.
  for (const char* bad : {"abc", "0", "1025", "16k", ""}) {
    ::setenv("SS_RX_BATCH", bad, 1);
    try {
      net::socket_options_from_env(base);
      ADD_FAILURE() << "SS_RX_BATCH=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SS_RX_BATCH"), std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("SS_RX_BATCH");
}

TEST_P(CorruptionRejection, CorruptedScadaFramesFailHmacVerification) {
  sim::EventLoop loop;
  sim::Network net(loop, micros(100), 0);
  crypto::Keychain keys("net-test-secret");

  sim::LinkPolicy corrupt;
  corrupt.corrupt_prob = 1.0;
  corrupt.corrupt_mode = GetParam();
  net.set_policy(core::kHmiEndpoint, core::kProxyHmiEndpoint, corrupt);

  std::size_t delivered = 0;
  std::size_t accepted = 0;
  net.attach(core::kProxyHmiEndpoint, [&](net::Message m) {
    ++delivered;
    std::string sender;
    if (core::receive_scada(keys, core::kProxyHmiEndpoint, m, &sender)) {
      ++accepted;
    }
  });

  scada::Subscribe sub;
  sub.subscriber = core::kHmiEndpoint;
  for (int i = 0; i < 20; ++i) {
    core::send_scada(net, keys, core::kHmiEndpoint, core::kProxyHmiEndpoint,
                     scada::ScadaMessage{sub});
  }
  loop.run();

  EXPECT_EQ(net.stats().corrupted, 20u);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(accepted, 0u) << "a corrupted frame passed HMAC verification";
}

}  // namespace
}  // namespace ss
