// Reference polarization data for the Fig. 3 validation.
//
// PROVENANCE. The paper validates its COMSOL model against experimental
// polarization measurements of Kjeang et al. 2007 (planar graphite-rod
// co-laminar cell) at four flow rates. We do not have the original
// measurement files; the points below were digitized approximately from
// Fig. 3 of the DATE-14 paper (axis range 0-50 mA/cm^2, 0.1-1.3 V), with
// the curve shapes constrained by the cell physics the paper documents
// (Table I parameters). Digitization precision is limited; the validation
// bench therefore reports per-point model-vs-reference errors exactly like
// the paper's "within 10 %" claim rather than asserting point equality.
#ifndef BRIGHTSI_FLOWCELL_REFERENCE_DATA_H
#define BRIGHTSI_FLOWCELL_REFERENCE_DATA_H

#include <span>
#include <vector>

namespace brightsi::flowcell {

/// One digitized reference sample.
struct ReferencePoint {
  double current_density_ma_per_cm2 = 0.0;
  double cell_voltage_v = 0.0;
};

/// One experimental polarization curve at a fixed flow rate.
struct ReferenceCurve {
  double flow_rate_ul_per_min = 0.0;
  std::vector<ReferencePoint> points;  ///< ascending current density
};

/// The four Fig. 3 curves: 2.5, 10, 60 and 300 uL/min.
[[nodiscard]] const std::vector<ReferenceCurve>& fig3_reference_curves();

}  // namespace brightsi::flowcell

#endif  // BRIGHTSI_FLOWCELL_REFERENCE_DATA_H
