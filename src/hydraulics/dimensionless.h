// Dimensionless groups used across the transport models.
#ifndef BRIGHTSI_HYDRAULICS_DIMENSIONLESS_H
#define BRIGHTSI_HYDRAULICS_DIMENSIONLESS_H

#include "numerics/contracts.h"

namespace brightsi::hydraulics {

/// Mass-transfer Peclet number Pe = v L / D.
[[nodiscard]] inline double peclet_mass(double velocity, double characteristic_length,
                                        double diffusivity) {
  ensure_positive(diffusivity, "diffusivity");
  return velocity * characteristic_length / diffusivity;
}

/// Concentration boundary-layer thickness of the Leveque/plug film model at
/// axial position x: delta = sqrt(pi D x / v). Used by the analytic film
/// model and as a sanity scale in tests.
[[nodiscard]] double film_boundary_layer_thickness(double diffusivity, double axial_position,
                                                   double mean_velocity);

}  // namespace brightsi::hydraulics

#endif  // BRIGHTSI_HYDRAULICS_DIMENSIONLESS_H
