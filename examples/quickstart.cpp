// Quickstart: bring up a Byzantine fault-tolerant SCADA system in ~60 lines.
//
// Builds the full SMaRt-SCADA stack — one HMI + ProxyHMI, one Frontend +
// ProxyFrontend, and n = 3f+1 = 4 replicated SCADA Masters — on the
// deterministic simulator, then pushes one sensor update through Byzantine
// agreement to the HMI and performs one synchronous operator write.
#include <cstdio>

#include "core/plant.h"
#include "core/replicated_deployment.h"

using namespace ss;

int main() {
  // 1. A replicated deployment tolerating f = 1 Byzantine SCADA Master.
  core::ReplicatedOptions options;           // defaults: n = 4, f = 1
  core::ReplicatedDeployment scada(options);

  // 2. Register data points (they exist on the Frontend and every Master).
  ItemId temperature = scada.add_point(core::plant::kTemperatureName);
  ItemId setpoint = scada.add_point(core::plant::kSetpointName,
                                    scada::Variant{20.0});

  // 3. Alarm when the temperature exceeds 90 degrees. Handler chains are
  //    replicated state: configure every Master identically.
  scada.configure_masters([&](scada::ScadaMaster& master) {
    master.handlers(temperature)
        .emplace<scada::MonitorHandler>(
            scada::MonitorHandler::Condition::kAbove, 90.0);
  });

  // 4. Subscribe the HMI to everything and let the subscriptions order.
  scada.start();

  // 5. A field update: Frontend -> ProxyFrontend -> Byzantine agreement ->
  //    4 deterministic Masters -> f+1-voted push -> HMI.
  scada.frontend().field_update(temperature, scada::Variant{95.5});
  scada.run_until(scada.loop().now() + seconds(1));

  const scada::Item* mirror = scada.hmi().item(temperature);
  std::printf("HMI sees temperature = %s (quality %s)\n",
              mirror->value.debug_string().c_str(),
              scada::quality_name(mirror->quality));
  for (const scada::Event& event : scada.hmi().event_log()) {
    std::printf("HMI alarm: [%s] %s value=%s\n", event.code.c_str(),
                event.message.c_str(), event.value.debug_string().c_str());
  }

  // 6. A synchronous operator write, through the same agreement pipeline.
  bool done = false;
  scada.hmi().write(setpoint, scada::Variant{42.0},
                    [&](const scada::WriteResult& result) {
                      std::printf("write completed: %s\n",
                                  scada::write_status_name(result.status));
                      done = true;
                    });
  scada.run_until(scada.loop().now() + seconds(1));

  std::printf("frontend setpoint is now %s\n",
              scada.frontend().item(setpoint)->value.debug_string().c_str());
  std::printf("all 4 masters converged: %s\n",
              scada.masters_converged() ? "yes" : "no");
  return done && scada.masters_converged() ? 0 : 1;
}
