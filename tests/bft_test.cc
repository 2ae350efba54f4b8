// Integration tests for the BFT SMR library: ordering, voting, batching,
// fault tolerance (crash, Byzantine, drops), view change, state transfer;
// and the replica's dedup table against a std::set model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bft/client.h"
#include "bft/dedup_table.h"
#include "bft/replica.h"
#include "heap_usage.h"
#include "common/config.h"
#include "crypto/keychain.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace ss::bft {
namespace {

// A small replicated key-value service used as the test application.
class KvApp final : public Executable, public Recoverable {
 public:
  enum class Op : std::uint8_t { kPut = 0, kGet = 1 };

  static Bytes put(const std::string& key, const std::string& value) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(Op::kPut));
    w.str(key);
    w.str(value);
    return std::move(w).take();
  }

  static Bytes get(const std::string& key) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(Op::kGet));
    w.str(key);
    return std::move(w).take();
  }

  Bytes execute_ordered(const ExecuteContext& ctx, ByteView request) override {
    timestamps_.push_back(ctx.timestamp);
    ++applied_;
    Reader r(request);
    Op op = static_cast<Op>(r.u8());
    std::string key = r.str();
    Writer reply;
    if (op == Op::kPut) {
      std::string value = r.str();
      reply.str(data_[key]);
      data_[key] = value;
    } else {
      reply.str(data_[key]);
    }
    return std::move(reply).take();
  }

  Bytes execute_unordered(ClientId, ByteView request) override {
    Reader r(request);
    r.u8();
    std::string key = r.str();
    Writer reply;
    auto it = data_.find(key);
    reply.str(it == data_.end() ? "" : it->second);
    return std::move(reply).take();
  }

  Bytes snapshot() const override {
    Writer w;
    w.varint(applied_);
    w.varint(data_.size());
    for (const auto& [key, value] : data_) {
      w.str(key);
      w.str(value);
    }
    return std::move(w).take();
  }

  void restore(ByteView snapshot) override {
    Reader r(snapshot);
    applied_ = r.varint();
    data_.clear();
    std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key = r.str();
      data_[key] = r.str();
    }
    r.expect_done();
  }

  std::uint64_t applied() const { return applied_; }
  const std::map<std::string, std::string>& data() const { return data_; }
  const std::vector<SimTime>& timestamps() const { return timestamps_; }

 private:
  std::map<std::string, std::string> data_;
  std::uint64_t applied_ = 0;
  std::vector<SimTime> timestamps_;
};

struct Cluster {
  sim::EventLoop loop;
  sim::Network net;
  crypto::Keychain keys{"bft-test"};
  GroupConfig group;
  std::vector<std::unique_ptr<KvApp>> apps;
  std::vector<std::unique_ptr<Replica>> replicas;

  explicit Cluster(std::uint32_t f = 1, ReplicaOptions options = {})
      : net(loop, micros(50), 0), group(GroupConfig::for_f(f)) {
    for (ReplicaId id : group.replica_ids()) {
      apps.push_back(std::make_unique<KvApp>());
      replicas.push_back(std::make_unique<Replica>(
          net, group, id, keys, *apps.back(), *apps.back(), options));
    }
  }

  std::unique_ptr<ClientProxy> make_client(std::uint32_t id,
                                           ClientOptions options = {}) {
    return std::make_unique<ClientProxy>(net, group, ClientId{id}, keys,
                                         options);
  }

  void run_for(SimTime duration) { loop.run_until(loop.now() + duration); }

  bool apps_converged() const {
    Bytes reference;
    bool first = true;
    for (std::uint32_t i = 0; i < group.n; ++i) {
      if (replicas[i]->crashed()) continue;
      Bytes snap = apps[i]->snapshot();
      if (first) {
        reference = snap;
        first = false;
      } else if (snap != reference) {
        return false;
      }
    }
    return true;
  }
};

TEST(Bft, OrdersASingleRequest) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  std::string reply_old;
  bool done = false;
  client->invoke_ordered(KvApp::put("grid", "stable"), [&](Bytes reply) {
    Reader r(reply);
    reply_old = r.str();
    done = true;
  });
  cluster.run_for(seconds(1));
  EXPECT_TRUE(done);
  EXPECT_EQ(reply_old, "");
  for (auto& app : cluster.apps) {
    EXPECT_EQ(app->applied(), 1u);
    EXPECT_EQ(app->data().at("grid"), "stable");
  }
  EXPECT_TRUE(cluster.apps_converged());
}

TEST(Bft, OrdersManyRequestsFromOneClient) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    client->invoke_ordered(
        KvApp::put("k" + std::to_string(i), "v" + std::to_string(i)),
        [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(5));
  EXPECT_EQ(completed, 50);
  for (auto& app : cluster.apps) EXPECT_EQ(app->applied(), 50u);
  EXPECT_TRUE(cluster.apps_converged());
}

TEST(Bft, MultipleClientsConverge) {
  Cluster cluster;
  std::vector<std::unique_ptr<ClientProxy>> clients;
  int completed = 0;
  for (std::uint32_t c = 1; c <= 4; ++c) {
    clients.push_back(cluster.make_client(c));
  }
  for (int i = 0; i < 20; ++i) {
    for (auto& client : clients) {
      client->invoke_ordered(
          KvApp::put("c" + std::to_string(client->id().value),
                     std::to_string(i)),
          [&](Bytes) { ++completed; });
    }
  }
  cluster.run_for(seconds(5));
  EXPECT_EQ(completed, 80);
  EXPECT_TRUE(cluster.apps_converged());
  for (auto& app : cluster.apps) {
    EXPECT_EQ(app->data().at("c1"), "19");
    EXPECT_EQ(app->data().at("c4"), "19");
  }
}

TEST(Bft, BatchingCoalescesRequests) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(5));
  EXPECT_EQ(completed, 100);
  // Pipelined requests must have been batched: far fewer decisions than
  // requests.
  EXPECT_LT(cluster.replicas[0]->stats().batches_decided, 60u);
  EXPECT_EQ(cluster.replicas[0]->stats().requests_executed, 100u);
}

TEST(Bft, UnorderedReadsServeLocalState) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  bool put_done = false;
  client->invoke_ordered(KvApp::put("x", "42"),
                         [&](Bytes) { put_done = true; });
  cluster.run_for(seconds(1));
  ASSERT_TRUE(put_done);

  std::string value;
  bool read_done = false;
  client->invoke_unordered(KvApp::get("x"), [&](Bytes reply) {
    Reader r(reply);
    value = r.str();
    read_done = true;
  });
  cluster.run_for(seconds(1));
  EXPECT_TRUE(read_done);
  EXPECT_EQ(value, "42");
  // Unordered requests do not consume consensus instances.
  EXPECT_EQ(cluster.replicas[0]->stats().batches_decided, 1u);
}

TEST(Bft, TimestampsAreMonotonicallyIncreasing) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  for (int i = 0; i < 30; ++i) {
    client->invoke_ordered(KvApp::put("k", std::to_string(i)), {});
  }
  cluster.run_for(seconds(5));
  for (auto& app : cluster.apps) {
    const auto& ts = app->timestamps();
    ASSERT_FALSE(ts.empty());
    for (std::size_t i = 1; i < ts.size(); ++i) {
      EXPECT_GE(ts[i], ts[i - 1]);
    }
  }
  // All replicas assigned the *same* timestamps (determinism challenge (c)).
  for (std::uint32_t i = 1; i < cluster.group.n; ++i) {
    EXPECT_EQ(cluster.apps[i]->timestamps(), cluster.apps[0]->timestamps());
  }
}

TEST(Bft, DropsAreMaskedByRetransmission) {
  Cluster cluster;
  // Lossy links between the client and every replica, both ways.
  sim::LinkPolicy lossy;
  lossy.drop_prob = 0.3;
  for (ReplicaId id : cluster.group.replica_ids()) {
    cluster.net.set_policy("client/1", crypto::replica_principal(id), lossy);
    cluster.net.set_policy(crypto::replica_principal(id), "client/1", lossy);
  }
  ClientOptions options;
  options.reply_timeout = millis(200);
  auto client = cluster.make_client(1, options);
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(30));
  EXPECT_EQ(completed, 20);
  EXPECT_TRUE(cluster.apps_converged());
  // Each replica must have executed each request exactly once despite
  // retransmissions.
  for (auto& app : cluster.apps) EXPECT_EQ(app->applied(), 20u);
}

TEST(Bft, CrashFaultyReplicaDoesNotBlockProgress) {
  Cluster cluster;
  cluster.replicas[3]->crash();  // a follower
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(5));
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(cluster.apps[0]->applied(), 10u);
  EXPECT_EQ(cluster.apps[3]->applied(), 0u);
}

TEST(Bft, LeaderCrashTriggersViewChange) {
  Cluster cluster;
  cluster.replicas[0]->crash();  // the initial leader
  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("grid", "resilient"),
                         [&](Bytes) { done = true; });
  cluster.run_for(seconds(10));
  EXPECT_TRUE(done);
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_GE(cluster.replicas[i]->regency(), 1u);
    EXPECT_EQ(cluster.apps[i]->applied(), 1u);
  }
}

TEST(Bft, SilentByzantineLeaderIsVotedOut) {
  Cluster cluster;
  cluster.replicas[0]->set_byzantine(ByzantineMode::kSilent);
  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("k", "v"), [&](Bytes) { done = true; });
  cluster.run_for(seconds(10));
  EXPECT_TRUE(done);
  EXPECT_GE(cluster.replicas[1]->regency(), 1u);
}

TEST(Bft, EquivocatingLeaderIsVotedOut) {
  Cluster cluster;
  cluster.replicas[0]->set_byzantine(ByzantineMode::kEquivocate);
  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("k", "v"), [&](Bytes) { done = true; });
  cluster.run_for(seconds(10));
  EXPECT_TRUE(done);
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_GE(cluster.replicas[i]->regency(), 1u);
  }
  // Safety: the correct replicas agree.
  Bytes reference = cluster.apps[1]->snapshot();
  EXPECT_EQ(cluster.apps[2]->snapshot(), reference);
  EXPECT_EQ(cluster.apps[3]->snapshot(), reference);
}

TEST(Bft, CorruptRepliesAreOutvoted) {
  Cluster cluster;
  cluster.replicas[2]->set_byzantine(ByzantineMode::kCorruptReplies);
  auto client = cluster.make_client(1);
  std::string old_value = "sentinel";
  bool done = false;
  client->invoke_ordered(KvApp::put("k", "v"), [&](Bytes reply) {
    Reader r(reply);
    old_value = r.str();
    done = true;
  });
  cluster.run_for(seconds(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(old_value, "");  // the correct (voted) reply, not the corrupted one
}

TEST(Bft, CorruptVotesDoNotBlockQuorum) {
  Cluster cluster;
  cluster.replicas[3]->set_byzantine(ByzantineMode::kCorruptVotes);
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(5));
  EXPECT_EQ(completed, 10);
}

TEST(Bft, RecoveredReplicaCatchesUpViaStateTransfer) {
  Cluster cluster;
  cluster.replicas[3]->crash();
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 30; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(5));
  ASSERT_EQ(completed, 30);

  cluster.replicas[3]->recover();
  cluster.run_for(seconds(5));
  EXPECT_GE(cluster.replicas[3]->stats().state_transfers, 1u);
  EXPECT_EQ(cluster.replicas[3]->last_decided(),
            cluster.replicas[0]->last_decided());
  EXPECT_TRUE(cluster.apps_converged());

  // And the recovered replica participates in new decisions.
  bool done = false;
  client->invoke_ordered(KvApp::put("post", "recovery"),
                         [&](Bytes) { done = true; });
  cluster.run_for(seconds(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.apps[3]->data().at("post"), "recovery");
}

TEST(Bft, ForgedClientRequestsAreRejected) {
  Cluster cluster;
  // Craft a request with a broken authenticator and send it directly.
  ClientRequest req;
  req.client = ClientId{1};
  req.sequence = RequestId{1};
  req.payload = KvApp::put("evil", "1");
  req.auth.assign(4, crypto::Digest{});  // all-zero MACs

  Envelope env;
  env.type = MsgType::kClientRequest;
  env.sender = "client/1";
  env.body = req.encode();
  // Even with a valid envelope MAC, the per-replica authenticator fails.
  env.mac = cluster.keys.mac(
      "client/1", "replica/0",
      envelope_mac_material(env.type, env.sender, "replica/0", /*epoch=*/0,
                            env.body));
  cluster.net.send("client/1", "replica/0", env.encode());

  cluster.run_for(seconds(2));
  EXPECT_EQ(cluster.apps[0]->applied(), 0u);
  EXPECT_GE(cluster.replicas[0]->stats().auth_failures, 1u);
}

TEST(Bft, CheckpointDigestsMatchAcrossReplicas) {
  ReplicaOptions options;
  options.checkpoint_interval = 4;
  options.max_batch = 1;  // force many instances
  Cluster cluster(1, options);
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(10));
  ASSERT_EQ(completed, 12);
  ASSERT_TRUE(cluster.replicas[0]->last_checkpoint_digest().has_value());
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.replicas[i]->last_checkpoint_digest(),
              cluster.replicas[0]->last_checkpoint_digest());
  }
}

/// Passes everything through to another transport and keeps a ledger of
/// the timers scheduled through it, so a test can count those still due.
class TimerLedger final : public net::Transport {
 public:
  explicit TimerLedger(net::Transport& inner) : inner_(inner) {}

  void attach(const std::string& name, Handler handler) override {
    inner_.attach(name, std::move(handler));
  }
  void detach(const std::string& name) override { inner_.detach(name); }
  bool attached(const std::string& name) const override {
    return inner_.attached(name);
  }
  void send(const std::string& from, const std::string& to,
            Bytes payload) override {
    inner_.send(from, to, std::move(payload));
  }
  SimTime now() const override { return inner_.now(); }

  net::Timer schedule(SimTime delay, std::function<void()> action) override {
    auto entry = std::make_shared<Entry>();
    entry->delay = delay;
    entry->timer = inner_.schedule(
        delay, [entry, action = std::move(action)] {
          entry->fired = true;
          action();
        });
    entries_.push_back(entry);
    return net::Timer(entry);
  }

  /// Timers scheduled `delay` ahead that have neither fired nor been
  /// cancelled.
  std::size_t due(SimTime delay) const {
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(), [delay](const auto& e) {
          return e->delay == delay && !e->fired && !e->cancelled;
        }));
  }

 private:
  struct Entry final : net::Timer::Impl {
    net::Timer timer;
    SimTime delay = 0;
    bool fired = false;
    bool cancelled = false;
    void cancel() override {
      cancelled = true;
      timer.cancel();
    }
    bool active() const override { return timer.active(); }
  };

  net::Transport& inner_;
  std::vector<std::shared_ptr<Entry>> entries_;
};

TEST(Bft, AnExecutedRequestLeavesNoTimerOfItsOwn) {
  // Followers arm a forward timer (request_timeout / 2) and a suspect timer
  // (request_timeout) per pending request; executing it must cancel both.
  // The only other timer a replica may hold then is its one stall check,
  // which also runs for request_timeout.
  const ReplicaOptions options;
  sim::EventLoop loop;
  sim::Network net(loop, micros(50), 0);
  crypto::Keychain keys{"bft-test"};
  const GroupConfig group = GroupConfig::for_f(1);
  std::vector<std::unique_ptr<TimerLedger>> ledgers;
  std::vector<std::unique_ptr<KvApp>> apps;
  std::vector<std::unique_ptr<Replica>> replicas;
  for (ReplicaId id : group.replica_ids()) {
    ledgers.push_back(std::make_unique<TimerLedger>(net));
    apps.push_back(std::make_unique<KvApp>());
    replicas.push_back(std::make_unique<Replica>(
        *ledgers.back(), group, id, keys, *apps.back(), *apps.back(),
        options));
  }
  ClientProxy client(net, group, ClientId{1}, keys, ClientOptions{});
  bool done = false;
  client.invoke_ordered(KvApp::put("grid", "stable"),
                        [&](Bytes) { done = true; });
  // Well inside request_timeout / 2 (200 ms): nothing a request arms has
  // fired by itself yet.
  loop.run_until(millis(50));
  ASSERT_TRUE(done);
  for (std::uint32_t i = 0; i < group.n; ++i) {
    EXPECT_EQ(apps[i]->applied(), 1u);
    EXPECT_EQ(ledgers[i]->due(options.request_timeout / 2), 0u) << i;
    EXPECT_LE(ledgers[i]->due(options.request_timeout), 1u) << i;
  }
}

class BftFSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BftFSweep, ToleratesFCrashes) {
  std::uint32_t f = GetParam();
  Cluster cluster(f);
  // Crash f followers (the worst allowed crash pattern for throughput).
  for (std::uint32_t i = 0; i < f; ++i) {
    cluster.replicas[cluster.group.n - 1 - i]->crash();
  }
  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(10));
  EXPECT_EQ(completed, 10);
  EXPECT_TRUE(cluster.apps_converged());
}

INSTANTIATE_TEST_SUITE_P(FSweep, BftFSweep, ::testing::Values(1u, 2u, 3u));

// ---------------------------------------------------------------------------
// Dedup table

/// The table as it was kept before it became a DedupTable: a std::set per
/// client, trimmed from the lowest number after every insert.
struct ModelDedup {
  std::map<std::uint32_t, std::set<std::uint64_t>> clients;

  void insert(std::uint32_t client, std::uint64_t seq) {
    auto& seqs = clients[client];
    seqs.insert(seq);
    while (seqs.size() > DedupTable::kWindow) seqs.erase(seqs.begin());
  }
  bool contains(std::uint32_t client, std::uint64_t seq) const {
    auto it = clients.find(client);
    return it != clients.end() && it->second.count(seq) > 0;
  }
  Bytes encode() const {
    Writer w;
    w.varint(clients.size());
    for (const auto& [client, seqs] : clients) {
      w.varint(client);
      w.varint(seqs.size());
      for (std::uint64_t s : seqs) w.varint(s);
    }
    return std::move(w).take();
  }
};

Bytes encode_table(const DedupTable& table) {
  Writer w;
  table.encode(w);
  return std::move(w).take();
}

void expect_same_answers(const DedupTable& table, const ModelDedup& model,
                         std::mt19937_64& rng) {
  for (std::uint32_t client = 0; client <= 4; ++client) {  // 0 never inserts
    for (int probe = 0; probe < 64; ++probe) {
      const std::uint64_t seq = rng() % 13000;
      ASSERT_EQ(table.contains(ClientId{client}, RequestId{seq}),
                model.contains(client, seq))
          << "client " << client << " seq " << seq;
    }
  }
  ASSERT_EQ(encode_table(table), model.encode());
}

TEST(DedupTableModel, AnswersAndEncodesAsTheSetDid) {
  DedupTable table;
  ModelDedup model;
  std::mt19937_64 rng(5);
  auto insert = [&](std::uint32_t client, std::uint64_t seq) {
    table.insert(ClientId{client}, RequestId{seq});
    model.insert(client, seq);
  };

  // Client 1 in order, well past the window.
  for (std::uint64_t s = 1; s <= 10000; ++s) {
    insert(1, s);
    if (s % 1000 == 0) expect_same_answers(table, model, rng);
  }
  // Client 2 shuffled, with every number twice.
  std::vector<std::uint64_t> shuffled;
  for (std::uint64_t s = 1; s <= 6000; ++s) {
    shuffled.push_back(s);
    shuffled.push_back(s);
  }
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    insert(2, shuffled[i]);
    if (i % 1500 == 0) expect_same_answers(table, model, rng);
  }
  // Client 3: in order, then stale, duplicated and gap-filling numbers.
  for (std::uint64_t s = 2; s <= 9000; s += 2) insert(3, s);
  for (std::uint64_t s : {1ull, 2ull, 100ull, 4000ull, 8999ull, 9000ull,
                          8001ull, 12000ull, 11999ull, 5ull}) {
    insert(3, s);
    expect_same_answers(table, model, rng);
  }
  // Client 4: a handful, never near the window.
  for (std::uint64_t s : {7ull, 3ull, 7ull, 12ull}) insert(4, s);
  expect_same_answers(table, model, rng);

  table.clear();
  model.clients.clear();
  expect_same_answers(table, model, rng);
}

TEST(DedupTableModel, DecodeSortsAndMergesLikeTheSet) {
  // An unsorted list with repeats, a client listed twice, a client with no
  // numbers, and one over the window: decoded as std::set inserts did.
  Writer w;
  w.varint(5);
  w.varint(9);
  w.varint(5);
  for (std::uint64_t s : {30ull, 10ull, 20ull, 10ull, 30ull}) w.varint(s);
  w.varint(2);
  w.varint(0);
  w.varint(9);
  w.varint(2);
  w.varint(15);
  w.varint(10);
  w.varint(7);
  w.varint(DedupTable::kWindow + 3);
  for (std::uint64_t s = DedupTable::kWindow + 3; s >= 1; --s) w.varint(s);
  w.varint(1);
  w.varint(1);
  w.varint(42);
  const Bytes input = w.bytes();

  ModelDedup model;
  {
    Reader r(input);
    std::uint64_t nclients = r.varint();
    for (std::uint64_t i = 0; i < nclients; ++i) {
      auto client = static_cast<std::uint32_t>(r.varint());
      std::uint64_t nseqs = r.varint();
      auto& seqs = model.clients[client];
      for (std::uint64_t j = 0; j < nseqs; ++j) seqs.insert(r.varint());
    }
  }
  Reader r(input);
  DedupTable table = DedupTable::decode(r);
  EXPECT_TRUE(r.done());
  std::mt19937_64 rng(9);
  expect_same_answers(table, model, rng);

  // The window is enforced on the next insert, duplicate or not.
  table.insert(ClientId{7}, RequestId{5});
  model.insert(7, 5);
  expect_same_answers(table, model, rng);
  EXPECT_EQ(model.clients[7].size(), DedupTable::kWindow);

  Bytes truncated(input.begin(), input.end() - 1);
  Reader tr(truncated);
  EXPECT_THROW(DedupTable::decode(tr), DecodeError);
}

TEST(DedupTableFootprint, OneClientWindowIsFlat) {
  SS_REQUIRE_HEAP_USAGE();
  const std::size_t before = test::heap_in_use();
  {
    DedupTable table;
    for (std::uint64_t s = 1; s <= 2 * DedupTable::kWindow; ++s) {
      table.insert(ClientId{1}, RequestId{s});
    }
    const std::size_t used = test::heap_in_use() - before;
    EXPECT_LE(used, 48u * 1024) << used << " bytes";
  }
}

}  // namespace
}  // namespace ss::bft
