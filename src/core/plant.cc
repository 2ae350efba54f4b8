#include "core/plant.h"

#include <memory>
#include <stdexcept>

#include "core/assembly.h"
#include "rtu/sensors.h"

namespace ss::core::plant {

namespace {

constexpr std::uint16_t kTemperatureReg = 5;
constexpr std::uint16_t kSetpointReg = 7;
constexpr rtu::RegisterScaling kScaling{0.1, 0.0};
constexpr double kSetpointInitial = 20.0;

}  // namespace

void add_points(scada::ScadaMaster& master,
                std::optional<double> alarm_threshold) {
  const ItemId temperature = master.add_item(kTemperatureName);
  master.add_item(kSetpointName);
  if (alarm_threshold) {
    master.handlers(temperature)
        .emplace<scada::MonitorHandler>(
            scada::MonitorHandler::Condition::kAbove, *alarm_threshold);
  }
}

void add_points(scada::Frontend& frontend) {
  frontend.add_item(kTemperatureName);
  frontend.add_item(kSetpointName, scada::Variant{kSetpointInitial});
}

void add_registers(rtu::Rtu& rtu) {
  rtu.add_sensor(kTemperatureReg, std::make_unique<rtu::ConstantSignal>(95.5),
                 kScaling);
  rtu.add_actuator(kSetpointReg, kScaling.to_raw(kSetpointInitial));
}

void bind_registers(rtu::RtuDriver& driver) {
  driver.bind_sensor(kRtuEndpoint, kTemperatureReg, kScaling, kTemperature);
  driver.bind_actuator(kRtuEndpoint, kSetpointReg, kScaling, kSetpoint);
}

net::Resolver port_table(std::uint32_t n, const std::string& host,
                         std::uint16_t base) {
  if (base + 3 * n + 8 > 65536) {
    throw std::runtime_error("base port " + std::to_string(base) +
                             " leaves no room for " + std::to_string(n) +
                             " replicas");
  }
  net::Resolver r;
  std::uint16_t port = base;
  auto add = [&](std::string name) {
    r.add(std::move(name), net::SocketAddress{host, port++});
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    add(crypto::replica_principal(ReplicaId{i}));
    add(adapter_principal(ReplicaId{i}));
    add(crypto::client_principal(ClientId{kAdapterClientBase + i}));
  }
  for (const char* name : {kHmiEndpoint, kFrontendEndpoint, kProxyHmiEndpoint,
                           kProxyFrontendEndpoint}) {
    add(name);
  }
  add(rtu::DriverOptions{}.endpoint);  // the Frontend's field driver
  add(kRtuEndpoint);
  add(crypto::client_principal(ClientId{kProxyHmiClient}));
  add(crypto::client_principal(ClientId{kProxyFrontendClient}));
  return r;
}

}  // namespace ss::core::plant
