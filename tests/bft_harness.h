// Shared test harness for the BFT library tests: a replicated key-value
// application and a simulated cluster fixture.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bft/client.h"
#include "bft/replica.h"
#include "common/config.h"
#include "crypto/keychain.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace ss::bft::testing {

/// A small replicated key-value service used as the test application.
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

  /// snapshot()'s bytes with every value viewed where it lies, as a large
  /// application's state would be.
  Pieces state_pieces() const override {
    Pieces out;
    out.writer().varint(applied_);
    out.writer().varint(data_.size());
    for (const auto& [key, value] : data_) {
      out.writer().str(key);
      out.writer().varint(value.size());
      out.view(ByteView(reinterpret_cast<const std::uint8_t*>(value.data()),
                        value.size()));
    }
    return out;
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

/// A replica group on a simulated network: n = 3f+1 under PBFT (the
/// default), n = 2f+1 under MinBFT.
struct Cluster {
  sim::EventLoop loop;
  sim::Network net;
  crypto::Keychain keys{"bft-test"};
  GroupConfig group;
  std::vector<std::unique_ptr<KvApp>> apps;
  std::vector<std::unique_ptr<Replica>> replicas;

  explicit Cluster(std::uint32_t f = 1, ReplicaOptions options = {},
                   std::uint64_t fault_seed = 0xFA111,
                   Protocol protocol = Protocol::kPbft)
      : net(loop, micros(50), 0, fault_seed),
        group(GroupConfig::for_protocol(protocol, f)) {
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

}  // namespace ss::bft::testing
