// Electrically-parallel microchannel flow-cell array (paper Section III:
// 88 channels on the POWER7+ die, Fig. 7).
//
// All channels share the cell voltage (parallel electrical connection) and
// the manifold splits the total electrolyte flow between them. Channels may
// run under different axial temperature profiles (they sit above different
// parts of the floorplan), in which case each group is solved separately
// and the currents summed.
#ifndef BRIGHTSI_FLOWCELL_CELL_ARRAY_H
#define BRIGHTSI_FLOWCELL_CELL_ARRAY_H

#include <memory>
#include <vector>

#include "flowcell/channel_model.h"

namespace brightsi::flowcell {

/// Static description of the array.
struct ArraySpec {
  int channel_count = 88;                  ///< Table II
  CellGeometry geometry;                   ///< per channel
  double total_flow_m3_per_s = 0.0;        ///< across all channels
  double inlet_temperature_k = 300.0;      ///< Table II: 300 K
  double parasitic_current_density_a_per_m2 = 0.0;

  void validate() const;
  /// Flow through one channel (uniform manifold split).
  [[nodiscard]] double per_channel_flow() const {
    return total_flow_m3_per_s / channel_count;
  }

  friend bool operator==(const ArraySpec&, const ArraySpec&) = default;
};

/// Table II array: 88 channels of power7_channel_geometry() fed with
/// 676 ml/min total at 300 K.
[[nodiscard]] ArraySpec power7_array_spec();

class FlowCellArray {
 public:
  FlowCellArray(ArraySpec spec, electrochem::FlowCellChemistry chemistry,
                FvmSettings settings = {});

  /// Uniform conditions: every channel is isothermal at the spec inlet
  /// temperature (or follows `temperature_profile` when given, shared by
  /// all channels). Returns the array current at `cell_voltage_v`.
  [[nodiscard]] double current_at_voltage(
      double cell_voltage_v,
      const std::vector<double>& shared_temperature_profile = {}) const;

  [[nodiscard]] double open_circuit_voltage() const;
  [[nodiscard]] const ArraySpec& spec() const { return spec_; }
  [[nodiscard]] const ChannelModel& channel_model() const { return *channel_model_; }

  /// Hydraulics of the array at the spec flow: per-channel pressure drop
  /// (Pa) and mean velocity (m/s).
  struct Hydraulics {
    double mean_velocity_m_per_s = 0.0;
    double pressure_drop_pa = 0.0;
    double pressure_gradient_pa_per_m = 0.0;
    double reynolds = 0.0;
  };
  [[nodiscard]] Hydraulics hydraulics_at_spec_flow() const;

 private:
  ArraySpec spec_;
  std::unique_ptr<ChannelModel> channel_model_;

  [[nodiscard]] ChannelOperatingConditions make_conditions(
      const std::vector<double>& temperature_profile) const;
};

}  // namespace brightsi::flowcell

#endif  // BRIGHTSI_FLOWCELL_CELL_ARRAY_H
