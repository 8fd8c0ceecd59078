// Compact finite-volume thermal model of the die + microchannel package
// (3D-ICE-style), generalized to N-layer 3D
// stacks: any number of heat-source (die) layers, each with its own power
// map, and any number of microchannel layers (interlayer cooling).
//
// The stack is discretized into a 3-D grid: x columns follow the shared
// channel/wall pattern of the microchannel layers exactly (validate()
// guarantees all channel layers align; columns are uniform for solid
// stacks), y runs along the flow direction, z through the layer stack.
// Solid cells exchange heat by conduction (harmonic-mean conductances);
// coolant cells exchange with their four walls through a per-layer
// Nusselt-correlation film coefficient and advect enthalpy downstream with
// first-order upwinding; each channel layer's inlet enters at the common
// inlet temperature and its outlet is free. The pump's total flow splits
// across parallel channel layers at equal pressure drop
// (hydraulics::split_equal_pressure); a single channel layer receives the
// total exactly, so the one-die model reproduces the pre-3D results
// bit-for-bit. Steady solves use ILU(0)-preconditioned BiCGSTAB;
// transients use backward Euler on the same operator.
//
// The sparsity pattern of the assembled operator depends only on the grid,
// never on the operating point, so it is built once at construction
// (`operator_pattern`) and per-solve work reduces to an in-place coefficient
// fill. `solve_steady` remains the simple one-shot entry point; repeated
// solves and transient steps go through a ThermalSolveContext
// (thermal/solve_context.h), which reuses the matrix, the ILU(0)
// factorization, the Krylov workspace and the previous temperature field
// across calls.
#ifndef BRIGHTSI_THERMAL_MODEL_H
#define BRIGHTSI_THERMAL_MODEL_H

#include <span>
#include <string>
#include <vector>

#include "chip/floorplan.h"
#include "numerics/grid.h"
#include "numerics/linear_solvers.h"
#include "thermal/stack.h"

namespace brightsi::thermal {

/// Coolant flow and inlet state for one solve.
struct OperatingPoint {
  double total_flow_m3_per_s = 0.0;   ///< pump total, across all channel layers;
                                      ///< ignored for solid stacks
  double inlet_temperature_k = 300.0; ///< Table II: 300 K (27 C)
  CoolantProperties coolant;

  void validate(bool has_channels) const;

  friend bool operator==(const OperatingPoint&, const OperatingPoint&) = default;
};

/// Per-block temperature summary. Blocks of dies above the bottom one are
/// reported with a "die<k>:" name prefix.
struct BlockTemperature {
  std::string name;
  double mean_k = 0.0;
  double max_k = 0.0;
};

/// Fluid-side outputs of one microchannel layer.
struct ChannelLayerSolution {
  /// Axial coolant temperature per channel (inlet->outlet), averaged over
  /// the channel's z-cells.
  std::vector<std::vector<double>> fluid_axial_k;
  std::vector<double> outlet_k;
  double flow_m3_per_s = 0.0;    ///< this layer's share of the pump total
  double flow_fraction = 1.0;    ///< flow_m3_per_s / pump total
  double heat_absorbed_w = 0.0;  ///< advected out minus advected in

  [[nodiscard]] double mean_outlet_k(double fallback_k) const {
    if (outlet_k.empty()) {
      return fallback_k;
    }
    double sum = 0.0;
    for (const double outlet : outlet_k) {
      sum += outlet;
    }
    return sum / static_cast<double>(outlet_k.size());
  }
};

/// Result of a steady (or one transient step) thermal solve.
struct ThermalSolution {
  numerics::Grid3<double> temperature_k;       ///< full field
  /// Active-layer temperature map of every die, bottom to top.
  std::vector<numerics::Grid2<double>> die_maps_k;
  double peak_temperature_k = 0.0;
  int peak_ix = 0, peak_iy = 0, peak_iz = 0;
  std::vector<BlockTemperature> block_temperatures;

  /// Per-channel-layer fluid outputs, bottom to top (empty for solid stacks).
  std::vector<ChannelLayerSolution> channel_layers;

  /// Bottom die active-layer map — the legacy single-die view of
  /// die_maps_k (a reference, not a copy; solid fallback for a
  /// default-constructed solution).
  [[nodiscard]] const numerics::Grid2<double>& source_layer_map_k() const {
    static const numerics::Grid2<double> empty;
    return die_maps_k.empty() ? empty : die_maps_k.front();
  }

  /// Bottom channel layer's axial coolant profiles (inlet->outlet) — the
  /// layer that feeds the flow-cell electrochemistry; empty for solid
  /// stacks. Layer-resolved profiles live in `channel_layers`.
  [[nodiscard]] const std::vector<std::vector<double>>& channel_fluid_axial_k() const {
    static const std::vector<std::vector<double>> empty;
    return channel_layers.empty() ? empty : channel_layers.front().fluid_axial_k;
  }
  [[nodiscard]] const std::vector<double>& channel_outlet_k() const {
    static const std::vector<double> empty;
    return channel_layers.empty() ? empty : channel_layers.front().outlet_k;
  }

  double total_power_w = 0.0;
  double fluid_heat_absorbed_w = 0.0;  ///< advected out minus in, all layers
  double top_heat_rejected_w = 0.0;    ///< through the optional top film
  /// |power - absorbed - rejected| / power; rounding-level when converged.
  double energy_balance_error = 0.0;

  numerics::SolverReport solver_report;

  /// Mean of channel_outlet_k() (bottom channel layer), or `fallback_k`
  /// (typically the inlet temperature) on a channel-less stack — the
  /// uniform fallback every outlet consumer must apply, so 0 K outlets
  /// cannot reappear.
  [[nodiscard]] double mean_outlet_k(double fallback_k) const {
    return channel_layers.empty() ? fallback_k
                                  : channel_layers.front().mean_outlet_k(fallback_k);
  }
};

/// Discretization and solver controls of a ThermalModel.
struct ThermalGridSettings {
  int axial_cells = 32;          ///< y-cells along the flow direction
  int solid_stack_x_cells = 64;  ///< x-columns when the stack has no channels
  numerics::SolverOptions solver;

  friend bool operator==(const ThermalGridSettings&, const ThermalGridSettings&) = default;
};

class ThermalSolveContext;

class ThermalModel {
 public:
  using GridSettings = ThermalGridSettings;

  /// Builds the static grid for `stack` over a die of the given outline,
  /// including the operator sparsity pattern (assemble-once).
  ThermalModel(StackSpec stack, double die_width_m, double die_height_m,
               GridSettings settings = GridSettings());

  /// Steady solve under the floorplan's current power densities. One-shot
  /// convenience wrapper over a fresh ThermalSolveContext (cold start).
  /// Requires a single-die stack; multi-die stacks use the span overload.
  [[nodiscard]] ThermalSolution solve_steady(const chip::Floorplan& floorplan,
                                             const OperatingPoint& operating_point) const;

  /// Steady solve of a multi-die stack: one floorplan per heat-source
  /// layer, bottom to top (all sharing the model's die outline).
  [[nodiscard]] ThermalSolution solve_steady(
      std::span<const chip::Floorplan* const> floorplans,
      const OperatingPoint& operating_point) const;

  /// Uniform-temperature initial state.
  [[nodiscard]] numerics::Grid3<double> uniform_state(double temperature_k) const;

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  /// Channels per channel layer (all layers share the pattern); 0 for a
  /// solid stack.
  [[nodiscard]] int channel_count() const;
  [[nodiscard]] int channel_layer_count() const {
    return static_cast<int>(channel_specs_.size());
  }
  /// Heat-source layers (dies) in the stack.
  [[nodiscard]] int die_count() const { return source_count_; }
  [[nodiscard]] const StackSpec& stack() const { return stack_; }
  [[nodiscard]] const GridSettings& settings() const { return settings_; }
  [[nodiscard]] double die_width_m() const { return die_width_m_; }
  [[nodiscard]] double die_height_m() const { return die_height_m_; }
  [[nodiscard]] const std::vector<double>& x_edges() const { return x_edges_; }

  /// Per-channel-layer share of the pump's total flow, bottom to top:
  /// equal-pressure-drop split over the layers' laminar conductances. A
  /// single channel layer receives op.total_flow_m3_per_s exactly (no
  /// round trip through the root finder), which keeps single-die solves
  /// bit-identical to the pre-3D model. Empty for solid stacks.
  [[nodiscard]] std::vector<double> layer_flow_split(const OperatingPoint& op) const;

  /// The structural sparsity pattern of the assembled operator (values are
  /// meaningless). Identical for every operating point, steady or
  /// transient; solve contexts copy it once and refill coefficients in
  /// place per solve.
  [[nodiscard]] const numerics::CsrMatrix& operator_pattern() const { return pattern_; }

 private:
  friend class ThermalSolveContext;
  // The reduced-order backend (thermal/rom.h) assembles the same operator
  // through fill_operator and mirrors package_solution with cached block
  // weights, so it shares the private grid internals.
  friend class ReducedThermalModel;

  struct ZSlice {
    double dz = 0.0;
    Material material;        // solid material (walls for channel layers)
    int channel_layer = -1;   // channel-layer index, or -1 for solid slices
    int die = -1;             // heat-source (die) index, or -1
  };

  StackSpec stack_;
  double die_width_m_;
  double die_height_m_;
  GridSettings settings_;

  int nx_ = 0, ny_ = 0, nz_ = 0;
  int source_count_ = 0;
  numerics::CsrMatrix pattern_;        // structural operator pattern
  std::vector<double> x_edges_;        // nx+1
  std::vector<double> dx_;             // per column
  double dy_ = 0.0;
  std::vector<ZSlice> z_slices_;       // nz entries
  std::vector<int> column_channel_;    // per column: channel index or -1 (wall)
  std::vector<MicrochannelLayerSpec> channel_specs_;  // bottom to top

  void build_grid();
  [[nodiscard]] std::size_t index(int ix, int iy, int iz) const {
    return (static_cast<std::size_t>(iz) * static_cast<std::size_t>(ny_) +
            static_cast<std::size_t>(iy)) *
               static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(ix);
  }
  [[nodiscard]] bool is_fluid(int ix, int iz) const {
    return z_slices_[static_cast<std::size_t>(iz)].channel_layer >= 0 &&
           column_channel_[static_cast<std::size_t>(ix)] >= 0;
  }

  /// Stamps the operator coefficients and RHS for one solve into reusable
  /// buffers (`triplets` is cleared first); `capacity_over_dt` adds the
  /// backward-Euler mass term when positive (with `previous` as the old
  /// state). `floorplans` holds one power map per heat-source layer,
  /// bottom to top; `layer_flows` is layer_flow_split(op), computed once
  /// per solve by the caller and shared with package_solution. The
  /// (row, col) stamp sequence is deterministic and identical for every
  /// operating point at a fixed mode (steady vs transient), which is what
  /// makes the solve contexts' scatter-plan caching valid. The stamped
  /// matrix values depend only on `op` and `capacity_over_dt`
  /// (`layer_flows` is a function of `op`); floorplans and `previous`
  /// enter the RHS alone, which is what lets a solve context keep its
  /// factorization while that pair repeats.
  void fill_operator(std::span<const chip::Floorplan* const> floorplans,
                     const OperatingPoint& op, const std::vector<double>& layer_flows,
                     double capacity_over_dt, const numerics::Grid3<double>* previous,
                     numerics::TripletList* triplets, std::vector<double>* rhs) const;

  void build_operator_pattern();

  [[nodiscard]] ThermalSolution package_solution(
      std::vector<double> temperatures, std::span<const chip::Floorplan* const> floorplans,
      const OperatingPoint& op, const std::vector<double>& layer_flows,
      numerics::SolverReport report) const;

  /// Film coefficient of one channel layer at the operating point.
  [[nodiscard]] double film_coefficient(const OperatingPoint& op, int channel_layer) const;
};

}  // namespace brightsi::thermal

#endif  // BRIGHTSI_THERMAL_MODEL_H
