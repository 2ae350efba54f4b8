#include "core/nodes.h"

namespace ss::core {

template <class Component>
ComponentNode<Component>::ComponentNode(net::Transport& net,
                                        const crypto::Keychain& keys,
                                        Component& component,
                                        NodeOptions options)
    : net_(net),
      keys_(keys),
      component_(component),
      opt_(std::move(options)),
      lanes_(net, opt_.lanes) {
  component_.set_master_sink([this](const scada::ScadaMessage& msg) {
    send_scada(net_, keys_, opt_.endpoint, opt_.peer, msg);
  });
  net_.attach(opt_.endpoint, [this](net::Message m) {
    std::string sender;
    auto decoded = receive_scada(keys_, opt_.endpoint, m, &sender);
    if (!decoded.has_value() || sender != opt_.peer) return;
    lanes_.submit(opt_.per_message_cost, [this, msg = std::move(*decoded)] {
      component_.handle(msg);
    });
  });
}

template <class Component>
ComponentNode<Component>::~ComponentNode() {
  net_.detach(opt_.endpoint);
}

template class ComponentNode<scada::Hmi>;
template class ComponentNode<scada::Frontend>;

MasterNode::MasterNode(net::Transport& net, const crypto::Keychain& keys,
                       scada::ScadaMaster& master, const sim::CostModel& costs,
                       std::string endpoint, std::uint32_t lanes)
    : net_(net),
      keys_(keys),
      master_(master),
      costs_(costs),
      endpoint_(std::move(endpoint)),
      lanes_(net, lanes) {
  master_.set_da_sink(
      [this](const std::string& subscriber, const scada::ScadaMessage& msg) {
        send_scada(net_, keys_, endpoint_, subscriber, msg);
      });
  master_.set_ae_sink(
      [this](const std::string& subscriber, const scada::ScadaMessage& msg) {
        send_scada(net_, keys_, endpoint_, subscriber, msg);
      });
  master_.set_frontend_sink(
      [this](const std::string& frontend, const scada::ScadaMessage& msg) {
        send_scada(net_, keys_, endpoint_, frontend, msg);
      });
  net_.attach(endpoint_,
              [this](net::Message m) { on_message(std::move(m)); });
}

MasterNode::~MasterNode() { net_.detach(endpoint_); }

void MasterNode::on_message(net::Message msg) {
  std::string sender;
  auto decoded = receive_scada(keys_, endpoint_, msg, &sender);
  if (!decoded.has_value()) return;

  // Pre-charge the bulk processing cost; the event/fan-out dependent share
  // is charged after handling, once we know how much work the message
  // actually caused.
  SimTime cost = costs_.serialize_per_msg + costs_.da_process;
  if (kind_of(*decoded) == scada::ScadaMsgKind::kWriteValue) {
    cost += costs_.write_block_check;
  }
  if (kind_of(*decoded) == scada::ScadaMsgKind::kItemUpdate) {
    cost += costs_.handler_process;
  }

  lanes_.submit(cost, [this, source = std::move(sender),
                       scada_msg = std::move(*decoded)] {
    scada::MasterCounters before = master_.counters();
    master_.handle(scada_msg, context_of(scada_msg), source);
    const scada::MasterCounters& after = master_.counters();
    SimTime extra = 0;
    std::uint64_t events = after.events_created - before.events_created;
    extra += static_cast<SimTime>(events) *
             (costs_.ae_event_create + costs_.storage_append);
    std::uint64_t fanout =
        (after.updates_forwarded - before.updates_forwarded) +
        (after.events_forwarded - before.events_forwarded);
    extra += static_cast<SimTime>(fanout) * costs_.serialize_per_msg;
    if (extra > 0) lanes_.submit(extra, [] {});
  });
}

}  // namespace ss::core
