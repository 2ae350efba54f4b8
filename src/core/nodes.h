// Network shims: put a transport-agnostic SCADA component behind a network
// endpoint speaking authenticated SCADA frames, with a CPU service-time
// model (net::Lanes) in front of its message handler.
//
// The same Hmi/Frontend cores run in both deployments; only the peer
// differs (the Master directly in the baseline, the respective proxy in
// SMaRt-SCADA) — which is the paper's point that HMI and Frontends "are not
// aware of the replication library in between" (§IV-C).
#pragma once

#include <string>

#include "core/scada_link.h"
#include "scada/frontend.h"
#include "scada/hmi.h"
#include "scada/master.h"
#include "sim/cost_model.h"
#include "net/lanes.h"

namespace ss::core {

struct NodeOptions {
  std::string endpoint;
  std::string peer;  ///< only frames from this sender are accepted
  SimTime per_message_cost = 0;
  std::uint32_t lanes = 1;
};

/// An HMI or a Frontend behind an endpoint: its Master-bound messages leave
/// as authenticated frames to `peer`, and frames from `peer` reach its
/// handler through the service lanes.
template <class Component>
class ComponentNode {
 public:
  ComponentNode(net::Transport& net, const crypto::Keychain& keys,
                Component& component, NodeOptions options);
  ~ComponentNode();

  ComponentNode(const ComponentNode&) = delete;
  ComponentNode& operator=(const ComponentNode&) = delete;

 private:
  net::Transport& net_;
  const crypto::Keychain& keys_;
  Component& component_;
  NodeOptions opt_;
  net::Lanes lanes_;
};

using HmiNode = ComponentNode<scada::Hmi>;
using FrontendNode = ComponentNode<scada::Frontend>;

/// The baseline (non-replicated) SCADA Master behind an endpoint: multiple
/// entry points, multi-lane CPU, local clock — stock NeoSCADA.
class MasterNode {
 public:
  MasterNode(net::Transport& net, const crypto::Keychain& keys,
             scada::ScadaMaster& master, const sim::CostModel& costs,
             std::string endpoint, std::uint32_t lanes);
  ~MasterNode();

  MasterNode(const MasterNode&) = delete;
  MasterNode& operator=(const MasterNode&) = delete;

 private:
  void on_message(net::Message msg);

  net::Transport& net_;
  const crypto::Keychain& keys_;
  scada::ScadaMaster& master_;
  sim::CostModel costs_;
  std::string endpoint_;
  net::Lanes lanes_;
};

}  // namespace ss::core
