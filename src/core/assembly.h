// The parts a deployment of the paper's system (Figure 5) is built from, on
// any net::Transport: one ProxyMaster per replica, the HMI side and the
// Frontend side. The simulator's deployments, every `deploy` role and the
// socket bench harness build from these (DESIGN.md §4.4).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/adapter.h"
#include "core/nodes.h"
#include "core/proxies.h"

namespace ss::core {

/// Well-known client ids.
inline constexpr std::uint32_t kProxyHmiClient = 1;
inline constexpr std::uint32_t kProxyFrontendClient = 2;
inline constexpr std::uint32_t kAdapterClientBase = 100;

/// The SCADA Master in deterministic mode (challenges (b)/(c): no local
/// clock), the Adapter that runs decided requests on it with both proxies
/// registered as its clients, the BFT replica (durable when
/// `replica_options.storage` is set) and the Adapter's client for
/// logical-timeout injections, built in that order.
struct ProxyMaster {
  ProxyMaster(net::Transport& net, GroupConfig group, ReplicaId id,
              const crypto::Keychain& keys, scada::MasterOptions master_options,
              AdapterOptions adapter_options,
              bft::ReplicaOptions replica_options,
              bft::ClientOptions timeout_client_options = {});

  scada::ScadaMaster master;
  Adapter adapter;
  bft::Replica replica;
  bft::ClientProxy timeout_client;
};

/// The HMI behind its node. With a `group`, the node's only peer is the
/// side's ProxyHMI, a client of that group; without one (the baseline) it
/// is the Master. The side sets the canonical endpoints and client id; the
/// options bring costs and timeouts.
struct HmiSide {
  HmiSide(net::Transport& net, const crypto::Keychain& keys,
          std::optional<GroupConfig> group, ProxyOptions proxy_options = {},
          NodeOptions node_options = {});

  scada::Hmi hmi;
  std::unique_ptr<ComponentProxy> proxy;  ///< null in the baseline
  HmiNode node;
};

/// The Frontend behind its node, with its ProxyFrontend as above.
struct FrontendSide {
  FrontendSide(net::Transport& net, const crypto::Keychain& keys,
               std::optional<GroupConfig> group,
               ProxyOptions proxy_options = {}, NodeOptions node_options = {});

  scada::Frontend frontend;
  std::unique_ptr<ComponentProxy> proxy;  ///< null in the baseline
  FrontendNode node;
};

}  // namespace ss::core
