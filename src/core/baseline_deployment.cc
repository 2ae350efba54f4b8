#include "core/baseline_deployment.h"

#include <stdexcept>

#include "obs/trace.h"

namespace ss::core {

namespace {

scada::MasterOptions baseline_master_options(sim::EventLoop& loop,
                                             SimTime skew,
                                             std::size_t retention) {
  scada::MasterOptions options;
  options.deterministic = false;
  options.clock = [&loop, skew] { return loop.now() + skew; };
  options.storage_retention = retention;
  return options;
}

NodeOptions node_options(const sim::CostModel& costs, std::uint32_t lanes) {
  NodeOptions options;
  options.per_message_cost = costs.serialize_per_msg;
  options.lanes = lanes;
  return options;
}

}  // namespace

BaselineDeployment::BaselineDeployment(BaselineOptions options)
    : opt_(options),
      net_(loop_, opt_.costs.hop_latency, opt_.costs.ns_per_byte,
           opt_.fault_seed),
      keys_("baseline-secret"),
      master_(baseline_master_options(loop_, opt_.master_clock_skew,
                                      opt_.storage_retention)),
      master_node_(net_, keys_, master_, opt_.costs, kMasterEndpoint,
                   opt_.costs.baseline_master_lanes),
      // No group: both nodes talk straight to the Master.
      frontend_side_(net_, keys_, std::nullopt, {},
                     node_options(opt_.costs, opt_.costs.frontend_lanes)),
      hmi_side_(net_, keys_, std::nullopt, {},
                node_options(opt_.costs, opt_.costs.hmi_lanes)) {
  obs::Tracer::instance().set_clock([this] { return loop_.now(); });
}

BaselineDeployment::~BaselineDeployment() {
  obs::Tracer::instance().set_clock(nullptr);
}

ItemId BaselineDeployment::add_point(const std::string& name,
                                     scada::Variant initial) {
  ItemId frontend_id = frontend().add_item(name, std::move(initial));
  ItemId master_id = master_.add_item(name);
  if (frontend_id != master_id) {
    throw std::logic_error("item id mismatch between frontend and master");
  }
  return master_id;
}

void BaselineDeployment::start() {
  hmi().subscribe_all();
  loop_.run_until(loop_.now() + opt_.costs.hop_latency * 4 + millis(1));
}

}  // namespace ss::core
