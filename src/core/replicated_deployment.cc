#include "core/replicated_deployment.h"

#include <stdexcept>

#include "obs/trace.h"

namespace ss::core {

ReplicatedDeployment::ReplicatedDeployment(ReplicatedOptions options)
    : opt_(options),
      net_(loop_, opt_.costs.hop_latency, opt_.costs.ns_per_byte,
           opt_.fault_seed),
      keys_("smart-scada-secret"),
      frontend_(scada::FrontendOptions{.instance_id = 1}),
      hmi_(scada::HmiOptions{.instance_id = 2,
                             .subscriber_name = kHmiEndpoint}) {
  const std::uint32_t n = opt_.group.n;

  // Trace spans recorded by components without a transport reference (HMI,
  // Frontend, voter) stamp virtual time through the process-wide tracer.
  obs::Tracer::instance().set_clock([this] { return loop_.now(); });

  // ProxyMasters: deterministic Master + Adapter + replica + timeout client.
  masters_.reserve(n);
  adapters_.reserve(n);
  replicas_.reserve(n);
  adapter_clients_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    scada::MasterOptions master_options;
    master_options.deterministic = true;  // challenge (b)/(c): no local clock
    master_options.storage_retention = opt_.storage_retention;
    masters_.push_back(
        std::make_unique<scada::ScadaMaster>(std::move(master_options)));

    AdapterOptions adapter_options;
    adapter_options.write_timeout = opt_.write_timeout;
    adapter_options.costs = opt_.costs;
    adapter_options.executor_lanes = opt_.executor_lanes;
    adapters_.push_back(std::make_unique<Adapter>(
        net_, opt_.group, ReplicaId{i}, keys_, *masters_.back(),
        adapter_options));
    adapters_.back()->register_client(kHmiEndpoint,
                                      ClientId{kProxyHmiClient});
    adapters_.back()->register_client(kFrontendEndpoint,
                                      ClientId{kProxyFrontendClient});
  }

  bft::ReplicaOptions replica_options;
  replica_options.request_timeout = opt_.request_timeout;
  replica_options.max_batch = opt_.max_batch;
  replica_options.checkpoint_interval = opt_.checkpoint_interval;
  replica_options.per_message_cost =
      opt_.costs.bft_crypto_per_msg + opt_.costs.serialize_per_msg;
  replica_options.per_decision_cost = opt_.costs.bft_consensus_overhead;
  replica_options.lanes = opt_.costs.replicated_master_lanes;
  replica_options.epoch_handover_window = opt_.epoch_handover_window;

  killed_.assign(n, false);
  for (std::uint32_t i = 0; i < n; ++i) {
    bft::ReplicaOptions options_i = replica_options;
    if (opt_.durable) {
      replica_storage_.push_back(std::make_unique<storage::ReplicaStorage>(
          storage_env_, "replica-" + std::to_string(i),
          "storage/replica-" + std::to_string(i)));
      // Storage goes in at construction (not via the deprecated set_storage
      // shim): the replica's engine may need durable state — the MinBFT
      // USIG counter lease — before the first message arrives.
      options_i.storage = replica_storage_.back().get();
    }
    replicas_.push_back(std::make_unique<bft::Replica>(
        net_, opt_.group, ReplicaId{i}, keys_, *adapters_[i], *adapters_[i],
        options_i));
    adapters_[i]->attach_replica(replicas_.back().get());

    bft::ClientOptions timeout_client_options;
    timeout_client_options.reply_timeout = opt_.client_reply_timeout;
    adapter_clients_.push_back(std::make_unique<bft::ClientProxy>(
        net_, opt_.group, ClientId{kAdapterClientBase + i}, keys_,
        timeout_client_options));
    // Timeout injections reach the masters tagged with a neutral source:
    // no adapter client is registered as a named source on purpose.
    adapters_[i]->attach_timeout_client(adapter_clients_.back().get());
  }

  // Proxies.
  ProxyOptions hmi_proxy_options;
  hmi_proxy_options.endpoint = kProxyHmiEndpoint;
  hmi_proxy_options.component_endpoint = kHmiEndpoint;
  hmi_proxy_options.per_message_cost =
      opt_.costs.serialize_per_msg + opt_.costs.voter_process;
  hmi_proxy_options.lanes = opt_.costs.proxy_lanes;
  hmi_proxy_options.client.reply_timeout = opt_.client_reply_timeout;
  proxy_hmi_ = std::make_unique<ComponentProxy>(
      net_, opt_.group, ClientId{kProxyHmiClient}, keys_, hmi_proxy_options);

  ProxyOptions frontend_proxy_options;
  frontend_proxy_options.endpoint = kProxyFrontendEndpoint;
  frontend_proxy_options.component_endpoint = kFrontendEndpoint;
  frontend_proxy_options.per_message_cost =
      opt_.costs.serialize_per_msg + opt_.costs.voter_process;
  frontend_proxy_options.lanes = opt_.costs.proxy_lanes;
  frontend_proxy_options.client.reply_timeout = opt_.client_reply_timeout;
  frontend_proxy_options.client.max_inflight = opt_.frontend_max_inflight;
  proxy_frontend_ = std::make_unique<ComponentProxy>(
      net_, opt_.group, ClientId{kProxyFrontendClient}, keys_,
      frontend_proxy_options);

  // The real HMI and Frontend, pointed at their proxies.
  frontend_node_ = std::make_unique<FrontendNode>(
      net_, keys_, frontend_,
      NodeOptions{.endpoint = kFrontendEndpoint,
                  .peer = kProxyFrontendEndpoint,
                  .per_message_cost = opt_.costs.serialize_per_msg,
                  .lanes = opt_.costs.frontend_lanes});
  hmi_node_ = std::make_unique<HmiNode>(
      net_, keys_, hmi_,
      NodeOptions{.endpoint = kHmiEndpoint,
                  .peer = kProxyHmiEndpoint,
                  .per_message_cost = opt_.costs.serialize_per_msg,
                  .lanes = opt_.costs.hmi_lanes});
}

ReplicatedDeployment::~ReplicatedDeployment() {
  obs::Tracer::instance().set_clock(nullptr);
}

ItemId ReplicatedDeployment::add_point(const std::string& name,
                                       scada::Variant initial) {
  ItemId frontend_id = frontend_.add_item(name, std::move(initial));
  for (auto& master : masters_) {
    ItemId master_id = master->add_item(name);
    if (master_id != frontend_id) {
      throw std::logic_error("item id mismatch between frontend and master");
    }
  }
  return frontend_id;
}

void ReplicatedDeployment::configure_masters(
    const std::function<void(scada::ScadaMaster&)>& configure) {
  for (auto& master : masters_) configure(*master);
}

void ReplicatedDeployment::start() {
  if (opt_.durable && genesis_images_.empty()) {
    // What a freshly exec'd replica process would reconstruct from its
    // static configuration, before any decision executed — captured now
    // (points added, no traffic yet) so reboot() can reset the shared app
    // objects to it.
    genesis_images_.reserve(replicas_.size());
    for (auto& replica : replicas_) {
      genesis_images_.push_back(replica->full_snapshot());
    }
  }
  hmi_.subscribe_all();
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
          replicas_.at(r)->charge(fsync_stalls_[r]);
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
  replicas_.at(i)->crash();
}

void ReplicatedDeployment::restart_replica_process(std::uint32_t i) {
  if (!opt_.durable || !killed_.at(i)) return;
  killed_.at(i) = false;
  replicas_.at(i)->reboot(genesis_images_.empty() ? ByteView{}
                                                  : ByteView(genesis_images_.at(i)));
}

bool ReplicatedDeployment::masters_converged() const {
  const crypto::Digest* reference = nullptr;
  crypto::Digest first;
  for (std::uint32_t i = 0; i < opt_.group.n; ++i) {
    if (replicas_[i]->crashed()) continue;
    crypto::Digest digest = masters_[i]->state_digest();
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
