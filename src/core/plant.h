// The plant every socket deployment runs: one reactor whose temperature and
// setpoint sit on one Modbus RTU, the group's shared secret, and the port
// table that names every process. `deploy`'s roles and the socket bench
// harness register it from here, so their item ids (dense in registration
// order) agree system-wide.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/resolver.h"
#include "rtu/driver.h"
#include "rtu/rtu.h"
#include "scada/frontend.h"
#include "scada/master.h"

namespace ss::core::plant {

inline constexpr ItemId kTemperature{1};
inline constexpr ItemId kSetpoint{2};
inline constexpr const char* kTemperatureName = "plant/reactor/temperature";
inline constexpr const char* kSetpointName = "plant/reactor/setpoint";
inline constexpr const char* kRtuEndpoint = "rtu/0";
inline constexpr const char* kGroupSecret = "smart-scada-secret";

/// Registers both points on a Master; with `alarm_threshold`, a Monitor
/// raises an alarm for every temperature above it.
void add_points(scada::ScadaMaster& master,
                std::optional<double> alarm_threshold = {});
/// Registers both points on the Frontend; the setpoint starts at 20.
void add_points(scada::Frontend& frontend);

/// The RTU's registers: a constant 95.5 temperature and the setpoint.
void add_registers(rtu::Rtu& rtu);
/// Binds the Frontend's field driver to those registers.
void bind_registers(rtu::RtuDriver& driver);

/// Every endpoint name of a deployment of n replicas, on consecutive ports
/// of `host` from `base`: three per replica, then eight for the components,
/// their proxies and the RTU. Throws std::runtime_error past port 65535.
net::Resolver port_table(std::uint32_t n, const std::string& host,
                         std::uint16_t base);

}  // namespace ss::core::plant
