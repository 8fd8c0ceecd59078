#include "thermal/model.h"

#include <algorithm>
#include <cmath>

#include "chip/power_map.h"
#include "hydraulics/duct.h"
#include "hydraulics/manifold.h"
#include "numerics/contracts.h"
#include "thermal/solve_context.h"

namespace brightsi::thermal {

void OperatingPoint::validate(bool has_channels) const {
  if (has_channels) {
    ensure_positive(total_flow_m3_per_s, "coolant flow");
    ensure_positive(inlet_temperature_k, "inlet temperature");
    ensure_positive(coolant.thermal_conductivity_w_per_m_k, "coolant conductivity");
    ensure_positive(coolant.volumetric_heat_capacity_j_per_m3_k, "coolant heat capacity");
    ensure_positive(coolant.density_kg_per_m3, "coolant density");
    ensure_positive(coolant.dynamic_viscosity_pa_s, "coolant viscosity");
  }
}

ThermalModel::ThermalModel(StackSpec stack, double die_width_m, double die_height_m,
                           GridSettings settings)
    : stack_(std::move(stack)), die_width_m_(die_width_m), die_height_m_(die_height_m),
      settings_(settings) {
  ensure_positive(die_width_m, "die width");
  ensure_positive(die_height_m, "die height");
  ensure(settings_.axial_cells >= 2, "need at least 2 axial cells");
  ensure(settings_.solid_stack_x_cells >= 2, "need at least 2 x cells");
  stack_.validate();
  build_grid();
  build_operator_pattern();
}

void ThermalModel::build_operator_pattern() {
  // Any valid operating point stamps the same (row, col) positions — only
  // the coefficient values differ — so a synthetic operating point and
  // empty floorplans suffice. capacity_over_dt = 1 includes the
  // backward-Euler mass diagonal, making the pattern shared between steady
  // and transient solves.
  OperatingPoint op;
  op.total_flow_m3_per_s = 1e-6;
  const chip::Floorplan empty(die_width_m_, die_height_m_);
  std::vector<const chip::Floorplan*> floorplans(static_cast<std::size_t>(source_count_),
                                                 &empty);
  const numerics::Grid3<double> previous(nx_, ny_, nz_, 0.0);
  numerics::TripletList triplets;
  std::vector<double> rhs;
  fill_operator(floorplans, op, layer_flow_split(op), 1.0, &previous, &triplets, &rhs);
  const auto n = static_cast<int>(rhs.size());
  pattern_ = numerics::CsrMatrix::from_triplets(n, n, triplets);
}

void ThermalModel::build_grid() {
  channel_specs_.clear();
  for (const MicrochannelLayerSpec* channel : stack_.channel_layers()) {
    channel_specs_.push_back(*channel);
  }
  source_count_ = stack_.source_layer_count();

  // --- x discretization ---
  // validate() guarantees every channel layer shares one x-pattern, so the
  // bottom layer defines the columns for the whole stack.
  x_edges_.clear();
  column_channel_.clear();
  if (stack_.has_channels()) {
    const MicrochannelLayerSpec& ch = channel_specs_.front();
    const int n = ch.channel_count;
    const double pattern_width = n * ch.channel_width_m + (n - 1) * ch.interior_wall_width_m;
    const double edge_wall = (die_width_m_ - pattern_width) / 2.0;
    ensure(edge_wall > 0.0,
           "channel pattern wider than the die: " + std::to_string(pattern_width));
    x_edges_.push_back(0.0);
    // edge wall | (channel | wall)*(n-1) | channel | edge wall
    auto push_column = [&](double width, int channel_index) {
      x_edges_.push_back(x_edges_.back() + width);
      column_channel_.push_back(channel_index);
    };
    push_column(edge_wall, -1);
    for (int c = 0; c < n; ++c) {
      push_column(ch.channel_width_m, c);
      if (c + 1 < n) {
        push_column(ch.interior_wall_width_m, -1);
      }
    }
    push_column(edge_wall, -1);
  } else {
    const int n = settings_.solid_stack_x_cells;
    for (int i = 0; i <= n; ++i) {
      x_edges_.push_back(die_width_m_ * i / n);
    }
    column_channel_.assign(static_cast<std::size_t>(n), -1);
  }
  nx_ = static_cast<int>(column_channel_.size());
  dx_.resize(static_cast<std::size_t>(nx_));
  for (int i = 0; i < nx_; ++i) {
    dx_[static_cast<std::size_t>(i)] =
        x_edges_[static_cast<std::size_t>(i) + 1] - x_edges_[static_cast<std::size_t>(i)];
  }

  // --- y discretization ---
  ny_ = settings_.axial_cells;
  dy_ = die_height_m_ / ny_;

  // --- z discretization ---
  z_slices_.clear();
  int die_index = 0;
  int channel_index = 0;
  for (const StackLayer& layer : stack_.layers) {
    if (const auto* solid = std::get_if<SolidLayerSpec>(&layer)) {
      for (int k = 0; k < solid->z_cells; ++k) {
        ZSlice slice;
        slice.dz = solid->thickness_m / solid->z_cells;
        slice.material = solid->material;
        slice.channel_layer = -1;
        // Power enters the bottom cell of a heat-source layer.
        slice.die = (solid->has_heat_source && k == 0) ? die_index : -1;
        z_slices_.push_back(slice);
      }
      die_index += std::get<SolidLayerSpec>(layer).has_heat_source ? 1 : 0;
      continue;
    }
    const auto& ch = std::get<MicrochannelLayerSpec>(layer);
    for (int k = 0; k < ch.z_cells; ++k) {
      ZSlice slice;
      slice.dz = ch.layer_height_m / ch.z_cells;
      slice.material = ch.wall_material;
      slice.channel_layer = channel_index;
      slice.die = -1;
      z_slices_.push_back(slice);
    }
    ++channel_index;
  }
  nz_ = static_cast<int>(z_slices_.size());
}

int ThermalModel::channel_count() const {
  return channel_specs_.empty() ? 0 : channel_specs_.front().channel_count;
}

double ThermalModel::film_coefficient(const OperatingPoint& op, int channel_layer) const {
  const MicrochannelLayerSpec& ch = channel_specs_[static_cast<std::size_t>(channel_layer)];
  const hydraulics::RectangularDuct duct(ch.channel_width_m, ch.layer_height_m, die_height_m_);
  const double nusselt =
      (ch.nusselt_override > 0.0) ? ch.nusselt_override : duct.nusselt_h1();
  return nusselt * op.coolant.thermal_conductivity_w_per_m_k / duct.hydraulic_diameter();
}

std::vector<double> ThermalModel::layer_flow_split(const OperatingPoint& op) const {
  const std::size_t layers = channel_specs_.size();
  if (layers == 0) {
    return {};
  }
  if (layers == 1) {
    // Exact single-layer path: hands the pump total through untouched, so
    // one-die solves are bit-identical to the pre-3D model.
    return {op.total_flow_m3_per_s};
  }
  std::vector<hydraulics::ParallelChannelGroup> groups;
  groups.reserve(layers);
  for (const MicrochannelLayerSpec& ch : channel_specs_) {
    groups.push_back({hydraulics::RectangularDuct(ch.channel_width_m, ch.layer_height_m,
                                                  die_height_m_),
                      ch.channel_count, ch.name});
  }
  return hydraulics::split_equal_pressure(op.total_flow_m3_per_s, groups,
                                          op.coolant.dynamic_viscosity_pa_s)
      .per_group_flow_m3_per_s;
}

void ThermalModel::fill_operator(std::span<const chip::Floorplan* const> floorplans,
                                 const OperatingPoint& op,
                                 const std::vector<double>& layer_flows,
                                 double capacity_over_dt,
                                 const numerics::Grid3<double>* previous,
                                 numerics::TripletList* triplets,
                                 std::vector<double>* rhs) const {
  const auto cell_count =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_);
  rhs->assign(cell_count, 0.0);
  triplets->clear();

  // Per-channel-layer film coefficients and per-channel flows.
  std::vector<double> h_film(channel_specs_.size(), 0.0);
  std::vector<double> per_channel_flow(channel_specs_.size(), 0.0);
  for (std::size_t layer = 0; layer < channel_specs_.size(); ++layer) {
    h_film[layer] = film_coefficient(op, static_cast<int>(layer));
    per_channel_flow[layer] = layer_flows[layer] / channel_count();
  }

  // Heat sources on the (non-uniform) column grid, one map per die.
  std::vector<double> y_edges(static_cast<std::size_t>(ny_) + 1);
  for (int i = 0; i <= ny_; ++i) {
    y_edges[static_cast<std::size_t>(i)] = die_height_m_ * i / ny_;
  }
  std::vector<numerics::Grid2<double>> power;
  power.reserve(floorplans.size());
  for (const chip::Floorplan* floorplan : floorplans) {
    power.push_back(chip::rasterize_power_w_on_edges(*floorplan, x_edges_, y_edges));
  }

  auto stamp_pair = [&](std::size_t a, std::size_t b, double conductance) {
    triplets->add(static_cast<int>(a), static_cast<int>(a), conductance);
    triplets->add(static_cast<int>(b), static_cast<int>(b), conductance);
    triplets->add(static_cast<int>(a), static_cast<int>(b), -conductance);
    triplets->add(static_cast<int>(b), static_cast<int>(a), -conductance);
  };

  // Face conductance between neighboring cells. A solid-solid face uses
  // harmonic half-cell resistances; a fluid-solid face uses the solid
  // half-cell plus the film resistance 1/h of the fluid cell's layer.
  auto face_conductance = [&](int ixa, int iza, int ixb, int izb, double area, double half_a,
                              double half_b) {
    const bool fa = is_fluid(ixa, iza);
    const bool fb = is_fluid(ixb, izb);
    double resistance = 0.0;
    if (!fa) {
      resistance += half_a / z_slices_[static_cast<std::size_t>(iza)]
                                 .material.thermal_conductivity_w_per_m_k;
    }
    if (!fb) {
      resistance += half_b / z_slices_[static_cast<std::size_t>(izb)]
                                 .material.thermal_conductivity_w_per_m_k;
    }
    if (fa != fb) {
      const int layer = fa ? z_slices_[static_cast<std::size_t>(iza)].channel_layer
                           : z_slices_[static_cast<std::size_t>(izb)].channel_layer;
      resistance += 1.0 / h_film[static_cast<std::size_t>(layer)];
    }
    if (fa && fb) {
      // Fluid-fluid contact (stacked z-cells of one channel): molecular
      // conduction through the coolant. validate() forbids adjacent
      // channel layers, so both cells belong to the same layer.
      resistance = (half_a + half_b) / op.coolant.thermal_conductivity_w_per_m_k;
    }
    return area / resistance;
  };

  // Every geometric coefficient is invariant along y, so each z-slice's
  // conductances are computed once into flat batch arrays (simple
  // vectorizable loops over x) and the ny-fold inner loop reduces to pure
  // triplet scatter. The stamp sequence is identical to stamping per cell
  // — same expressions, same order — so results (and the scatter-plan
  // caching contract) are bit-for-bit unchanged.
  std::vector<double> g_x(static_cast<std::size_t>(nx_), 0.0);    // +x face per column
  std::vector<double> g_y(static_cast<std::size_t>(nx_), 0.0);    // +y face (solid only)
  std::vector<double> g_z(static_cast<std::size_t>(nx_), 0.0);    // +z face per column
  std::vector<double> g_top(static_cast<std::size_t>(nx_), 0.0);  // top film per column
  std::vector<double> c_dt(static_cast<std::size_t>(nx_), 0.0);   // mass term per column

  for (int iz = 0; iz < nz_; ++iz) {
    const ZSlice& slice = z_slices_[static_cast<std::size_t>(iz)];

    // --- batch coefficient fill for this slice ---
    for (int ix = 0; ix + 1 < nx_; ++ix) {
      g_x[static_cast<std::size_t>(ix)] =
          face_conductance(ix, iz, ix + 1, iz, dy_ * slice.dz,
                           dx_[static_cast<std::size_t>(ix)] / 2.0,
                           dx_[static_cast<std::size_t>(ix) + 1] / 2.0);
    }
    for (int ix = 0; ix < nx_; ++ix) {
      g_y[static_cast<std::size_t>(ix)] =
          is_fluid(ix, iz) ? 0.0
                           : face_conductance(ix, iz, ix, iz,
                                              dx_[static_cast<std::size_t>(ix)] * slice.dz,
                                              dy_ / 2.0, dy_ / 2.0);
    }
    if (iz + 1 < nz_) {
      for (int ix = 0; ix < nx_; ++ix) {
        g_z[static_cast<std::size_t>(ix)] =
            face_conductance(ix, iz, ix, iz + 1, dx_[static_cast<std::size_t>(ix)] * dy_,
                             slice.dz / 2.0,
                             z_slices_[static_cast<std::size_t>(iz) + 1].dz / 2.0);
      }
    }
    // Advection coefficient: upwind from -y, with this layer's share of the
    // pump flow; constant across the slice's fluid cells.
    double c_adv = 0.0;
    if (slice.channel_layer >= 0) {
      const auto layer = static_cast<std::size_t>(slice.channel_layer);
      const double flow_fraction = slice.dz / channel_specs_[layer].layer_height_m;
      c_adv = op.coolant.volumetric_heat_capacity_j_per_m3_k * per_channel_flow[layer] *
              flow_fraction;
    }
    const bool top_boundary = iz == nz_ - 1 && stack_.top_heat_transfer_w_per_m2_k > 0.0;
    if (top_boundary) {
      const double resistance =
          slice.dz / 2.0 / slice.material.thermal_conductivity_w_per_m_k +
          1.0 / stack_.top_heat_transfer_w_per_m2_k;
      for (int ix = 0; ix < nx_; ++ix) {
        g_top[static_cast<std::size_t>(ix)] =
            is_fluid(ix, iz) ? 0.0 : dx_[static_cast<std::size_t>(ix)] * dy_ / resistance;
      }
    }
    if (capacity_over_dt > 0.0) {
      for (int ix = 0; ix < nx_; ++ix) {
        const double cap = is_fluid(ix, iz)
                               ? op.coolant.volumetric_heat_capacity_j_per_m3_k
                               : slice.material.volumetric_heat_capacity_j_per_m3_k;
        c_dt[static_cast<std::size_t>(ix)] =
            cap * dx_[static_cast<std::size_t>(ix)] * dy_ * slice.dz * capacity_over_dt;
      }
    }

    // --- scatter the batches, cell by cell in the original stamp order ---
    for (int iy = 0; iy < ny_; ++iy) {
      for (int ix = 0; ix < nx_; ++ix) {
        const std::size_t me = index(ix, iy, iz);
        const bool fluid = is_fluid(ix, iz);

        // +x neighbor.
        if (ix + 1 < nx_) {
          stamp_pair(me, index(ix + 1, iy, iz), g_x[static_cast<std::size_t>(ix)]);
        }
        // +y neighbor: conduction for solids; fluid handles y by advection.
        if (iy + 1 < ny_ && !fluid) {
          stamp_pair(me, index(ix, iy + 1, iz), g_y[static_cast<std::size_t>(ix)]);
        }
        // +z neighbor.
        if (iz + 1 < nz_) {
          stamp_pair(me, index(ix, iy, iz + 1), g_z[static_cast<std::size_t>(ix)]);
        }

        // Advection for fluid cells.
        if (fluid) {
          triplets->add(static_cast<int>(me), static_cast<int>(me), c_adv);
          if (iy == 0) {
            (*rhs)[me] += c_adv * op.inlet_temperature_k;
          } else {
            triplets->add(static_cast<int>(me), static_cast<int>(index(ix, iy - 1, iz)), -c_adv);
          }
        }

        // Top convective boundary.
        if (top_boundary && !fluid) {
          const double g = g_top[static_cast<std::size_t>(ix)];
          triplets->add(static_cast<int>(me), static_cast<int>(me), g);
          (*rhs)[me] += g * stack_.ambient_temperature_k;
        }

        // Heat sources: this slice's die injects its own power map.
        if (slice.die >= 0) {
          (*rhs)[me] += power[static_cast<std::size_t>(slice.die)](ix, iy);
        }

        // Backward-Euler mass term.
        if (capacity_over_dt > 0.0) {
          const double c = c_dt[static_cast<std::size_t>(ix)];
          triplets->add(static_cast<int>(me), static_cast<int>(me), c);
          (*rhs)[me] += c * (*previous)(ix, iy, iz);
        }
      }
    }
  }

}

ThermalSolution ThermalModel::solve_steady(const chip::Floorplan& floorplan,
                                           const OperatingPoint& op) const {
  ThermalSolveContext context(*this);
  return context.solve_steady(floorplan, op);
}

ThermalSolution ThermalModel::solve_steady(std::span<const chip::Floorplan* const> floorplans,
                                           const OperatingPoint& op) const {
  ThermalSolveContext context(*this);
  return context.solve_steady(floorplans, op);
}

numerics::Grid3<double> ThermalModel::uniform_state(double temperature_k) const {
  return numerics::Grid3<double>(nx_, ny_, nz_, temperature_k);
}

ThermalSolution ThermalModel::package_solution(
    std::vector<double> temperatures, std::span<const chip::Floorplan* const> floorplans,
    const OperatingPoint& op, const std::vector<double>& layer_flows,
    numerics::SolverReport report) const {
  ThermalSolution out;
  out.solver_report = report;
  out.temperature_k = numerics::Grid3<double>(nx_, ny_, nz_, 0.0);
  out.temperature_k.data() = std::move(temperatures);

  // Peak.
  out.peak_temperature_k = -1.0;
  for (int iz = 0; iz < nz_; ++iz) {
    for (int iy = 0; iy < ny_; ++iy) {
      for (int ix = 0; ix < nx_; ++ix) {
        const double t = out.temperature_k(ix, iy, iz);
        if (t > out.peak_temperature_k) {
          out.peak_temperature_k = t;
          out.peak_ix = ix;
          out.peak_iy = iy;
          out.peak_iz = iz;
        }
      }
    }
  }

  // Per-die source-layer maps and block summaries. Dies above the bottom
  // one report blocks under a "die<k>:" prefix so rows stay unambiguous.
  std::vector<int> source_iz(static_cast<std::size_t>(source_count_), 0);
  for (int iz = 0; iz < nz_; ++iz) {
    const int die = z_slices_[static_cast<std::size_t>(iz)].die;
    if (die >= 0) {
      source_iz[static_cast<std::size_t>(die)] = iz;
    }
  }
  out.die_maps_k.reserve(static_cast<std::size_t>(source_count_));
  out.total_power_w = 0.0;
  for (int die = 0; die < source_count_; ++die) {
    const int iz = source_iz[static_cast<std::size_t>(die)];
    numerics::Grid2<double> map(nx_, ny_, 0.0);
    for (int iy = 0; iy < ny_; ++iy) {
      for (int ix = 0; ix < nx_; ++ix) {
        map(ix, iy) = out.temperature_k(ix, iy, iz);
      }
    }
    const chip::Floorplan& floorplan = *floorplans[static_cast<std::size_t>(die)];
    out.total_power_w += floorplan.total_power();
    const std::string prefix = die == 0 ? "" : "die" + std::to_string(die) + ":";
    for (const chip::Block& block : floorplan.blocks()) {
      BlockTemperature bt;
      bt.name = prefix + block.name;
      double weighted = 0.0;
      double area = 0.0;
      bt.max_k = 0.0;
      for (int iy = 0; iy < ny_; ++iy) {
        for (int ix = 0; ix < nx_; ++ix) {
          const chip::Rect cell{x_edges_[static_cast<std::size_t>(ix)], dy_ * iy,
                                dx_[static_cast<std::size_t>(ix)], dy_};
          const double overlap = cell.intersection_area(block.footprint);
          if (overlap > 0.0) {
            weighted += map(ix, iy) * overlap;
            area += overlap;
            bt.max_k = std::max(bt.max_k, map(ix, iy));
          }
        }
      }
      bt.mean_k = (area > 0.0) ? weighted / area : 0.0;
      out.block_temperatures.push_back(bt);
    }
    out.die_maps_k.push_back(std::move(map));
  }

  // Channel fluid profiles + energy bookkeeping, one block per layer.
  if (stack_.has_channels()) {
    const int n_channels = channel_count();
    out.channel_layers.resize(channel_specs_.size());
    for (std::size_t layer = 0; layer < channel_specs_.size(); ++layer) {
      ChannelLayerSolution& layer_out = out.channel_layers[layer];
      layer_out.flow_m3_per_s = layer_flows[layer];
      layer_out.flow_fraction =
          op.total_flow_m3_per_s > 0.0 ? layer_flows[layer] / op.total_flow_m3_per_s : 0.0;
      layer_out.fluid_axial_k.assign(static_cast<std::size_t>(n_channels),
                                     std::vector<double>(static_cast<std::size_t>(ny_), 0.0));
      layer_out.outlet_k.assign(static_cast<std::size_t>(n_channels), 0.0);
      const double per_channel_flow = layer_flows[layer] / n_channels;

      std::vector<int> fluid_z;
      for (int iz = 0; iz < nz_; ++iz) {
        if (z_slices_[static_cast<std::size_t>(iz)].channel_layer ==
            static_cast<int>(layer)) {
          fluid_z.push_back(iz);
        }
      }
      for (int ix = 0; ix < nx_; ++ix) {
        const int c = column_channel_[static_cast<std::size_t>(ix)];
        if (c < 0) {
          continue;
        }
        for (int iy = 0; iy < ny_; ++iy) {
          double sum = 0.0;
          for (const int iz : fluid_z) {
            sum += out.temperature_k(ix, iy, iz);
          }
          layer_out.fluid_axial_k[static_cast<std::size_t>(c)][static_cast<std::size_t>(iy)] =
              sum / static_cast<double>(fluid_z.size());
        }
        layer_out.outlet_k[static_cast<std::size_t>(c)] =
            layer_out.fluid_axial_k[static_cast<std::size_t>(c)].back();

        // Advected heat: per z-cell flow share times the outlet/inlet delta.
        for (const int iz : fluid_z) {
          const double flow_fraction = z_slices_[static_cast<std::size_t>(iz)].dz /
                                       channel_specs_[layer].layer_height_m;
          const double c_adv = op.coolant.volumetric_heat_capacity_j_per_m3_k *
                               per_channel_flow * flow_fraction;
          layer_out.heat_absorbed_w +=
              c_adv * (out.temperature_k(ix, ny_ - 1, iz) - op.inlet_temperature_k);
        }
      }
      out.fluid_heat_absorbed_w += layer_out.heat_absorbed_w;
    }
  }
  if (stack_.top_heat_transfer_w_per_m2_k > 0.0) {
    const int iz = nz_ - 1;
    const ZSlice& slice = z_slices_[static_cast<std::size_t>(iz)];
    for (int iy = 0; iy < ny_; ++iy) {
      for (int ix = 0; ix < nx_; ++ix) {
        if (is_fluid(ix, iz)) {
          continue;
        }
        const double area = dx_[static_cast<std::size_t>(ix)] * dy_;
        const double resistance =
            slice.dz / 2.0 / slice.material.thermal_conductivity_w_per_m_k +
            1.0 / stack_.top_heat_transfer_w_per_m2_k;
        out.top_heat_rejected_w += area / resistance *
                                   (out.temperature_k(ix, iy, iz) - stack_.ambient_temperature_k);
      }
    }
  }
  if (out.total_power_w > 0.0) {
    out.energy_balance_error =
        std::abs(out.total_power_w - out.fluid_heat_absorbed_w - out.top_heat_rejected_w) /
        out.total_power_w;
  }
  return out;
}

}  // namespace brightsi::thermal
