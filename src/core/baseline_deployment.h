// The baseline deployment: stock (non-replicated) NeoSCADA-style system —
// Frontend, one SCADA Master, HMI, each on its own simulated machine
// (paper §V: "we deployed the NeoSCADA in three machines").
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/assembly.h"
#include "crypto/keychain.h"
#include "scada/master.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace ss::core {

struct BaselineOptions {
  sim::CostModel costs = sim::CostModel::paper_testbed();
  /// Skew added to the Master's local clock — used by tests to demonstrate
  /// the non-deterministic-timestamp challenge (c).
  SimTime master_clock_skew = 0;
  std::uint64_t fault_seed = 0xFA111;
  /// Event-storage retention (0 = unlimited); benches bound it.
  std::size_t storage_retention = 0;
};

class BaselineDeployment {
 public:
  explicit BaselineDeployment(BaselineOptions options = {});
  ~BaselineDeployment();

  /// Registers one data point in the Frontend and the Master (same id).
  ItemId add_point(const std::string& name, scada::Variant initial = {});

  /// Subscribes the HMI to everything; call once after configuration.
  void start();

  sim::EventLoop& loop() { return loop_; }
  sim::Network& net() { return net_; }
  scada::ScadaMaster& master() { return master_; }
  scada::Frontend& frontend() { return frontend_side_.frontend; }
  scada::Hmi& hmi() { return hmi_side_.hmi; }
  const crypto::Keychain& keys() const { return keys_; }

  /// Runs the simulation until `deadline` (virtual time).
  void run_until(SimTime deadline) { loop_.run_until(deadline); }
  /// Runs until the event queue drains.
  void settle() { loop_.run(); }

 private:
  BaselineOptions opt_;
  sim::EventLoop loop_;
  sim::Network net_;
  crypto::Keychain keys_;
  scada::ScadaMaster master_;
  MasterNode master_node_;
  FrontendSide frontend_side_;
  HmiSide hmi_side_;
};

}  // namespace ss::core
