#include "hydraulics/pump.h"

#include "numerics/contracts.h"

namespace brightsi::hydraulics {

double pumping_power_w(double delta_p_pa, double volumetric_flow_m3_per_s,
                       double pump_efficiency) {
  ensure_non_negative(delta_p_pa, "pressure drop");
  ensure_non_negative(volumetric_flow_m3_per_s, "volumetric flow");
  ensure(pump_efficiency > 0.0 && pump_efficiency <= 1.0,
         "pump efficiency must be in (0, 1]");
  return delta_p_pa * volumetric_flow_m3_per_s / pump_efficiency;
}

}  // namespace brightsi::hydraulics
