// The Adapter: glue between the BFT replica and the deterministic SCADA
// Master (paper §IV-A/IV-C).
//
// Responsibilities, exactly as the paper assigns them:
//  * single entry point — the adapter is the replica's Executable, so every
//    SCADA message reaches the Master one at a time, in decided order;
//  * deterministic timestamps & ordering info — each incoming message is
//    stamped with (consensus id, batch order, batch timestamp) before the
//    Master sees it, and every message/event the Master produces carries
//    that context (ContextInfo), so HMI-side voters can match asynchronous
//    replica messages;
//  * demultiplexing — decided messages are routed to the DA or AE
//    subsystem, and Master output is routed to the right proxy client;
//  * the logical-timeout protocol — a WriteValue forwarded to the Frontend
//    arms a timer; expired timers are voted among adapters, and a majority
//    injects a synthetic (ordered) WriteResult so the Master never blocks
//    forever on a dropped reply.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "bft/client.h"
#include "bft/executable.h"
#include "bft/replica.h"
#include "core/requests.h"
#include "obs/metrics.h"
#include "scada/master.h"
#include "sim/cost_model.h"
#include "net/transport.h"

namespace ss::core {

struct AdapterOptions {
  SimTime write_timeout = millis(800);  ///< logical timeout (paper §IV-D)
  sim::CostModel costs = sim::CostModel::zero();
  /// Parallel execution support — the paper's §VII-b future-work direction
  /// (CBASE/Eve/Alchieri et al.): with k > 1, SCADA processing of decided
  /// operations is charged to one of k conflict-partitioned executor lanes
  /// (selected by item id), instead of serializing on the replica's single
  /// thread. Operations on the same item still execute in order; the
  /// *protocol* (agreement, MACs) stays on the replica thread. 1 = the
  /// paper's single-threaded prototype.
  std::uint32_t executor_lanes = 1;
};

struct AdapterStats {
  std::uint64_t scada_requests = 0;
  std::uint64_t timeouts_armed = 0;
  std::uint64_t timeouts_cancelled = 0;
  std::uint64_t timeout_votes_sent = 0;
  std::uint64_t timeout_votes_received = 0;
  std::uint64_t timeout_injections = 0;
  std::uint64_t unknown_sources = 0;
};

std::string adapter_principal(ReplicaId id);

class Adapter final : public bft::Executable, public bft::Recoverable {
 public:
  Adapter(net::Transport& net, GroupConfig group, ReplicaId id,
          const crypto::Keychain& keys, scada::ScadaMaster& master,
          AdapterOptions options = {});
  ~Adapter() override;

  Adapter(const Adapter&) = delete;
  Adapter& operator=(const Adapter&) = delete;

  /// Late wiring (replica and adapter reference each other).
  void attach_replica(bft::Replica* replica) { replica_ = replica; }
  /// Registers a proxy client: Master output for `source` goes to `client`.
  void register_client(const std::string& source, ClientId client);
  /// The adapter's own BFT client, used to order synthetic WriteResults.
  void attach_timeout_client(bft::ClientProxy* client) {
    timeout_client_ = client;
  }

  // --- bft::Executable ------------------------------------------------------
  Bytes execute_ordered(const bft::ExecuteContext& ctx,
                        ByteView request) override;
  Bytes execute_unordered(ClientId client, ByteView request) override;

  // --- bft::Recoverable -----------------------------------------------------
  Bytes snapshot() const override { return master_.snapshot(); }
  Pieces state_pieces() const override { return master_.state_pieces(); }
  void restore(ByteView data) override;
  crypto::Digest state_digest() const override {
    return master_.state_digest();
  }

  const AdapterStats& stats() const { return stats_; }
  const std::string& endpoint() const { return endpoint_; }

 private:
  void route_to_client(const std::string& source,
                       const scada::ScadaMessage& msg);
  void arm_write_timeout(OpId op);
  void cancel_write_timeout(OpId op);
  void on_write_timeout(OpId op);
  void on_adapter_message(net::Message msg);
  void record_vote(const TimeoutVote& vote);
  void broadcast_vote(OpId op);
  SimTime master_cost(const scada::MasterCounters& before,
                      const scada::ScadaMessage& msg) const;
  using Emission = std::pair<std::string, scada::ScadaMessage>;
  void flush_emissions(std::vector<Emission> emissions);
  void charge_execution(const scada::ScadaMessage& msg, SimTime cost);

  net::Transport& net_;
  GroupConfig group_;
  ReplicaId id_;
  std::string endpoint_;
  const crypto::Keychain& keys_;
  scada::ScadaMaster& master_;
  AdapterOptions opt_;

  bft::Replica* replica_ = nullptr;
  bft::ClientProxy* timeout_client_ = nullptr;
  std::map<std::string, ClientId> clients_;       // source name -> proxy client
  std::map<std::uint64_t, std::string> sources_;  // client id -> source name

  /// Conflict-partitioned executor lanes (empty when executor_lanes <= 1).
  std::vector<std::unique_ptr<net::Lanes>> executor_;
  /// Master output buffered during the current execute_ordered call.
  std::vector<Emission> emissions_;

  std::map<std::uint64_t, net::Timer> write_timers_;  // by op id
  std::map<std::uint64_t, std::set<std::uint32_t>> timeout_votes_;
  std::set<std::uint64_t> injected_;  // ops we already ordered a timeout for

  AdapterStats stats_;
  obs::SourceHandle obs_source_;
};

}  // namespace ss::core
