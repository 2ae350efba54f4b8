// The SMaRt-SCADA deployment (paper Figure 5): one Frontend + ProxyFrontend,
// one HMI + ProxyHMI, and n ProxyMasters (3f+1 under PBFT, 2f+1 under
// MinBFT — set GroupConfig::protocol via ReplicatedOptions::group), each
// bundling a BFT replica, an Adapter, and a deterministic single-threaded
// SCADA Master.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/assembly.h"
#include "crypto/keychain.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/env.h"
#include "storage/replica_storage.h"

namespace ss::core {

struct ReplicatedOptions {
  GroupConfig group = GroupConfig::for_f(1);
  sim::CostModel costs = sim::CostModel::paper_testbed();
  SimTime write_timeout = millis(800);      ///< logical timeout
  SimTime request_timeout = millis(400);    ///< replica leader-suspect timer
  SimTime client_reply_timeout = millis(300);
  std::uint32_t max_batch = 64;
  std::uint64_t checkpoint_interval = 128;
  std::uint64_t fault_seed = 0xFA111;
  /// Event-storage retention per Master (0 = unlimited); benches bound it.
  std::size_t storage_retention = 0;
  /// Parallel-execution lanes per Adapter (paper §VII-b future work);
  /// 1 = the paper's single-threaded prototype. See AdapterOptions.
  std::uint32_t executor_lanes = 1;
  /// Gives every replica a durable store (in-memory Env with real crash
  /// semantics): decided batches are write-ahead logged and checkpoints hit
  /// "disk", enabling kill_replica_process / restart_replica_process.
  bool durable = false;
  /// How long replicas keep accepting a peer's previous session-key epoch
  /// after it reincarnates (bft::ReplicaOptions::epoch_handover_window).
  SimTime epoch_handover_window = seconds(2);
  /// Backpressure cap on the frontend proxy's in-flight ordered requests
  /// (0 = unlimited): excess field updates are shed at the edge instead of
  /// amplifying an overload into the agreement group. HMI operator writes
  /// ride their own proxy and are never shed.
  std::uint32_t frontend_max_inflight = 0;
};

class ReplicatedDeployment {
 public:
  explicit ReplicatedDeployment(ReplicatedOptions options = {});
  ~ReplicatedDeployment();

  /// Registers one data point on the Frontend and every Master replica.
  ItemId add_point(const std::string& name, scada::Variant initial = {});

  /// Applies a configuration function to every Master replica — handler
  /// chains must be configured identically on all of them.
  void configure_masters(
      const std::function<void(scada::ScadaMaster&)>& configure);

  /// Subscribes the HMI; call once after configuration.
  void start();

  std::uint32_t n() const { return opt_.group.n; }
  const GroupConfig& group() const { return opt_.group; }

  sim::EventLoop& loop() { return loop_; }
  sim::Network& net() { return net_; }
  scada::Hmi& hmi() { return hmi_side_->hmi; }
  scada::Frontend& frontend() { return frontend_side_->frontend; }
  scada::ScadaMaster& master(std::uint32_t i) { return stacks_.at(i)->master; }
  bft::Replica& replica(std::uint32_t i) { return stacks_.at(i)->replica; }
  Adapter& adapter(std::uint32_t i) { return stacks_.at(i)->adapter; }
  ComponentProxy& proxy_hmi() { return *hmi_side_->proxy; }
  ComponentProxy& proxy_frontend() { return *frontend_side_->proxy; }
  const crypto::Keychain& keys() const { return keys_; }

  /// Fault injection helpers.
  void crash_replica(std::uint32_t i) { replica(i).crash(); }
  void recover_replica(std::uint32_t i) { replica(i).recover(); }
  void set_byzantine(std::uint32_t i, bft::ByzantineMode mode) {
    replica(i).set_byzantine(mode);
  }

  // Gray-failure injection (chaos hooks): replica i stays correct but slow.
  /// Extra virtual CPU per inbound message on replica i (0 clears).
  void set_processing_delay(std::uint32_t i, SimTime delay) {
    replica(i).set_processing_delay(delay);
  }
  /// Local-timer skew multiplier on replica i (1.0 clears).
  void set_timer_skew(std::uint32_t i, double factor) {
    replica(i).set_timer_skew(factor);
  }
  /// Every fsync in replica i's state dir charges this much extra virtual
  /// CPU to the replica — a degraded disk (0 clears). Durable mode only;
  /// otherwise a no-op (nothing ever syncs).
  void set_fsync_stall(std::uint32_t i, SimTime stall);

  /// `kill -9` of a replica "process" (durable mode only): unsynced bytes
  /// vanish from its state dir and the replica goes silent until
  /// restart_replica_process. Without `durable`, degrades to crash_replica.
  void kill_replica_process(std::uint32_t i);
  /// Restarts a killed replica the way a supervisor would restart the real
  /// process: volatile state is lost, durable state is recovered from the
  /// state dir, and the gap is filled by state transfer from the peers.
  void restart_replica_process(std::uint32_t i);
  bool replica_killed(std::uint32_t i) const { return killed_.at(i); }
  bool durable() const { return opt_.durable; }

  storage::MemEnv& storage_env() { return storage_env_; }
  storage::ReplicaStorage* replica_storage(std::uint32_t i) {
    return opt_.durable ? replica_storage_.at(i).get() : nullptr;
  }

  /// Voter/adapter stat exposure for invariant checkers and benches.
  const PushVoterStats& hmi_voter_stats() const {
    return hmi_side_->proxy->voter_stats();
  }
  const PushVoterStats& frontend_voter_stats() const {
    return frontend_side_->proxy->voter_stats();
  }
  const AdapterStats& adapter_stats(std::uint32_t i) const {
    return stacks_.at(i)->adapter.stats();
  }
  const bft::ReplicaStats& replica_stats(std::uint32_t i) const {
    return stacks_.at(i)->replica.stats();
  }

  /// True when all non-crashed masters report the same state digest.
  bool masters_converged() const;

  void run_until(SimTime deadline) { loop_.run_until(deadline); }
  void settle() { loop_.run(); }

 private:
  ReplicatedOptions opt_;
  sim::EventLoop loop_;
  sim::Network net_;
  crypto::Keychain keys_;

  // Durable mode: one simulated "disk" shared by the deployment, one state
  // dir per replica, and the genesis image reboot() restores before
  // layering recovered state on top (captured in start(), pre-traffic).
  // Declared before the stacks, whose replicas use them.
  storage::MemEnv storage_env_;
  std::vector<std::unique_ptr<storage::ReplicaStorage>> replica_storage_;
  std::vector<Bytes> genesis_images_;
  std::vector<bool> killed_;
  /// Per-replica fsync-stall injection (index = replica). Lazily sized on
  /// first use; drives the MemEnv sync observer.
  std::vector<SimTime> fsync_stalls_;

  std::vector<std::unique_ptr<ProxyMaster>> stacks_;
  std::unique_ptr<HmiSide> hmi_side_;
  std::unique_ptr<FrontendSide> frontend_side_;
};

}  // namespace ss::core
