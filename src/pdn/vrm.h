// In-package voltage regulator modules (paper Section III-A, Fig. 5/6).
//
// The flow-cell bus voltage follows the electrochemical operating point
// (~1.0-1.6 V depending on load), so regulators translate it to the rail
// set-point. The paper cites on-chip switched-capacitor converters at 86 %
// efficiency [22]; we model the conversion as an efficiency plus a bounded
// input-voltage window, with the regulation itself represented by the
// Thevenin taps of the PowerGrid.
#ifndef BRIGHTSI_PDN_VRM_H
#define BRIGHTSI_PDN_VRM_H

namespace brightsi::pdn {

/// Electrical model of the VRM population feeding one rail.
struct VrmSpec {
  double efficiency = 0.86;            ///< [22]: 4.6 W/mm2 switched-cap, 86 %
  double set_point_v = 1.0;            ///< rail set-point
  double output_resistance_ohm = 25e-3;///< per tap (Fig. 8 calibration)
  int count_x = 4;                    ///< tap columns over the die
  int count_y = 4;                    ///< tap rows
  /// Input window: conversion works while the bus stays inside
  /// [min, max]; outside, the supply is considered failed for this rail.
  double min_input_voltage_v = 0.7;
  double max_input_voltage_v = 2.0;

  void validate() const;

  friend bool operator==(const VrmSpec&, const VrmSpec&) = default;
};

}  // namespace brightsi::pdn

#endif  // BRIGHTSI_PDN_VRM_H
