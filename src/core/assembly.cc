#include "core/assembly.h"

#include <utility>

namespace ss::core {

namespace {

scada::MasterOptions deterministic(scada::MasterOptions options) {
  options.deterministic = true;
  return options;
}

/// A side's proxy at its canonical endpoint; none without a group.
std::unique_ptr<ComponentProxy> make_proxy(
    net::Transport& net, const crypto::Keychain& keys,
    const std::optional<GroupConfig>& group, std::uint32_t client,
    const char* endpoint, const char* component, ProxyOptions options) {
  if (!group) return nullptr;
  options.endpoint = endpoint;
  options.component_endpoint = component;
  return std::make_unique<ComponentProxy>(net, *group, ClientId{client}, keys,
                                          std::move(options));
}

/// A side's node at `endpoint`, peered with its proxy (or the Master).
NodeOptions node_at(NodeOptions options, const char* endpoint,
                    const ComponentProxy* proxy) {
  options.endpoint = endpoint;
  options.peer = proxy != nullptr ? proxy->endpoint() : kMasterEndpoint;
  return options;
}

}  // namespace

ProxyMaster::ProxyMaster(net::Transport& net, GroupConfig group, ReplicaId id,
                         const crypto::Keychain& keys,
                         scada::MasterOptions master_options,
                         AdapterOptions adapter_options,
                         bft::ReplicaOptions replica_options,
                         bft::ClientOptions timeout_client_options)
    : master(deterministic(std::move(master_options))),
      adapter(net, group, id, keys, master, std::move(adapter_options)),
      replica(net, group, id, keys, adapter, adapter, replica_options),
      timeout_client(net, group, ClientId{kAdapterClientBase + id.value}, keys,
                     timeout_client_options) {
  adapter.register_client(kHmiEndpoint, ClientId{kProxyHmiClient});
  adapter.register_client(kFrontendEndpoint, ClientId{kProxyFrontendClient});
  adapter.attach_replica(&replica);
  // Timeout injections reach the masters tagged with a neutral source:
  // no adapter client is registered as a named source on purpose.
  adapter.attach_timeout_client(&timeout_client);
}

HmiSide::HmiSide(net::Transport& net, const crypto::Keychain& keys,
                 std::optional<GroupConfig> group, ProxyOptions proxy_options,
                 NodeOptions node_options)
    : proxy(make_proxy(net, keys, group, kProxyHmiClient, kProxyHmiEndpoint,
                       kHmiEndpoint, std::move(proxy_options))),
      node(net, keys, hmi,
           node_at(std::move(node_options), kHmiEndpoint, proxy.get())) {}

FrontendSide::FrontendSide(net::Transport& net, const crypto::Keychain& keys,
                           std::optional<GroupConfig> group,
                           ProxyOptions proxy_options, NodeOptions node_options)
    : proxy(make_proxy(net, keys, group, kProxyFrontendClient,
                       kProxyFrontendEndpoint, kFrontendEndpoint,
                       std::move(proxy_options))),
      node(net, keys, frontend,
           node_at(std::move(node_options), kFrontendEndpoint, proxy.get())) {
}

}  // namespace ss::core
