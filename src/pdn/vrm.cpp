#include "pdn/vrm.h"

#include "numerics/contracts.h"

namespace brightsi::pdn {

void VrmSpec::validate() const {
  ensure(efficiency > 0.0 && efficiency <= 1.0, "VRM efficiency must be in (0, 1]");
  ensure_positive(set_point_v, "VRM set-point");
  ensure_positive(output_resistance_ohm, "VRM output resistance");
  ensure(count_x > 0 && count_y > 0, "VRM tap counts must be positive");
  ensure_positive(min_input_voltage_v, "VRM minimum input voltage");
  ensure(max_input_voltage_v > min_input_voltage_v,
         "VRM input window must be non-empty");
}

}  // namespace brightsi::pdn
