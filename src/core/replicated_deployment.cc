#include "core/replicated_deployment.h"

#include <stdexcept>

#include "core/plant.h"
#include "obs/trace.h"

namespace ss::core {

ReplicatedDeployment::ReplicatedDeployment(ReplicatedOptions options)
    : opt_(options),
      net_(loop_, opt_.costs.hop_latency, opt_.costs.ns_per_byte,
           opt_.fault_seed),
      keys_(plant::kGroupSecret) {
  const std::uint32_t n = opt_.group.n;

  // Trace spans recorded by components without a transport reference (HMI,
  // Frontend, voter) stamp virtual time through the process-wide tracer.
  obs::Tracer::instance().set_clock([this] { return loop_.now(); });

  AdapterOptions adapter_options;
  adapter_options.write_timeout = opt_.write_timeout;
  adapter_options.costs = opt_.costs;
  adapter_options.executor_lanes = opt_.executor_lanes;

  bft::ReplicaOptions replica_options;
  replica_options.request_timeout = opt_.request_timeout;
  replica_options.max_batch = opt_.max_batch;
  replica_options.checkpoint_interval = opt_.checkpoint_interval;
  replica_options.per_message_cost =
      opt_.costs.bft_crypto_per_msg + opt_.costs.serialize_per_msg;
  replica_options.per_decision_cost = opt_.costs.bft_consensus_overhead;
  replica_options.lanes = opt_.costs.replicated_master_lanes;
  replica_options.epoch_handover_window = opt_.epoch_handover_window;

  scada::MasterOptions master_options;
  master_options.storage_retention = opt_.storage_retention;

  bft::ClientOptions client_options;
  client_options.reply_timeout = opt_.client_reply_timeout;

  killed_.assign(n, false);
  stacks_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    bft::ReplicaOptions options_i = replica_options;
    if (opt_.durable) {
      // In at construction: the MinBFT engine reads its USIG counter lease
      // before the first message arrives.
      replica_storage_.push_back(std::make_unique<storage::ReplicaStorage>(
          storage_env_, "replica-" + std::to_string(i),
          "storage/replica-" + std::to_string(i)));
      options_i.storage = replica_storage_.back().get();
    }
    stacks_.push_back(std::make_unique<ProxyMaster>(
        net_, opt_.group, ReplicaId{i}, keys_, master_options,
        adapter_options, options_i, client_options));
  }

  // The real HMI and Frontend behind their proxies.
  ProxyOptions proxy_options;
  proxy_options.per_message_cost =
      opt_.costs.serialize_per_msg + opt_.costs.voter_process;
  proxy_options.lanes = opt_.costs.proxy_lanes;
  proxy_options.client = client_options;
  NodeOptions node_options;
  node_options.per_message_cost = opt_.costs.serialize_per_msg;
  node_options.lanes = opt_.costs.hmi_lanes;
  hmi_side_ = std::make_unique<HmiSide>(net_, keys_, opt_.group,
                                        proxy_options, node_options);
  proxy_options.client.max_inflight = opt_.frontend_max_inflight;
  node_options.lanes = opt_.costs.frontend_lanes;
  frontend_side_ = std::make_unique<FrontendSide>(net_, keys_, opt_.group,
                                                  proxy_options, node_options);
}

ReplicatedDeployment::~ReplicatedDeployment() {
  obs::Tracer::instance().set_clock(nullptr);
}

ItemId ReplicatedDeployment::add_point(const std::string& name,
                                       scada::Variant initial) {
  ItemId frontend_id = frontend().add_item(name, std::move(initial));
  for (auto& stack : stacks_) {
    ItemId master_id = stack->master.add_item(name);
    if (master_id != frontend_id) {
      throw std::logic_error("item id mismatch between frontend and master");
    }
  }
  return frontend_id;
}

void ReplicatedDeployment::configure_masters(
    const std::function<void(scada::ScadaMaster&)>& configure) {
  for (auto& stack : stacks_) configure(stack->master);
}

void ReplicatedDeployment::start() {
  if (opt_.durable && genesis_images_.empty()) {
    // What a freshly exec'd replica process would reconstruct from its
    // static configuration, before any decision executed — captured now
    // (points added, no traffic yet) so reboot() can reset the shared app
    // objects to it.
    genesis_images_.reserve(stacks_.size());
    for (auto& stack : stacks_) {
      genesis_images_.push_back(stack->replica.full_snapshot());
    }
  }
  hmi().subscribe_all();
  // Let the subscriptions order and execute before traffic starts.
  loop_.run_until(loop_.now() + millis(50));
}

void ReplicatedDeployment::set_fsync_stall(std::uint32_t i, SimTime stall) {
  if (fsync_stalls_.empty()) {
    fsync_stalls_.assign(opt_.group.n, 0);
    storage_env_.set_sync_observer([this](const std::string& path) {
      // "replica-<i>/..." — charge the stall to the replica whose state dir
      // just synced, as if its fsync had blocked the process that long.
      for (std::uint32_t r = 0; r < fsync_stalls_.size(); ++r) {
        if (fsync_stalls_[r] <= 0) continue;
        std::string prefix = "replica-" + std::to_string(r) + "/";
        if (path.compare(0, prefix.size(), prefix) == 0) {
          replica(r).charge(fsync_stalls_[r]);
          return;
        }
      }
    });
  }
  fsync_stalls_.at(i) = stall > 0 ? stall : 0;
}

void ReplicatedDeployment::kill_replica_process(std::uint32_t i) {
  if (!opt_.durable) {
    crash_replica(i);
    return;
  }
  killed_.at(i) = true;
  // kill -9 semantics: appended-but-unsynced bytes never reach the disk.
  // Scoped to this replica's state dir — other replicas' processes are
  // still alive, so their unsynced bytes must survive. (The WAL syncs every
  // record before the decision takes effect, so in practice this only drops
  // bytes a torn-write test planted deliberately.)
  storage_env_.drop_unsynced("replica-" + std::to_string(i) + "/");
  replica(i).crash();
}

void ReplicatedDeployment::restart_replica_process(std::uint32_t i) {
  if (!opt_.durable || !killed_.at(i)) return;
  killed_.at(i) = false;
  replica(i).reboot(genesis_images_.empty() ? ByteView{}
                                            : ByteView(genesis_images_.at(i)));
}

bool ReplicatedDeployment::masters_converged() const {
  const crypto::Digest* reference = nullptr;
  crypto::Digest first;
  for (std::uint32_t i = 0; i < opt_.group.n; ++i) {
    if (stacks_[i]->replica.crashed()) continue;
    crypto::Digest digest = stacks_[i]->master.state_digest();
    if (reference == nullptr) {
      first = digest;
      reference = &first;
    } else if (digest != *reference) {
      return false;
    }
  }
  return true;
}

}  // namespace ss::core
