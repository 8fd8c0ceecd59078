#include "hydraulics/manifold.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "numerics/contracts.h"
#include "numerics/root_finding.h"

namespace brightsi::hydraulics {

namespace {

/// The equal-dp solve shared by the group and branch overloads: given the
/// per-entry laminar conductances, finds the common plenum-to-plenum dp
/// whose summed flows reproduce the total. Zero-conductance entries
/// contribute nothing to the bracket or the surplus sum, so a blocked
/// entry can never poison the root finder; an all-blocked set throws
/// `what` + the names of the blocked entries instead of dividing by zero.
GroupSplit solve_equal_pressure(double total_flow_m3_per_s,
                                const std::vector<double>& conductances,
                                const std::vector<std::string>& names, const char* what) {
  double total_conductance = 0.0;
  for (const double g : conductances) {
    if (!(std::isfinite(g) && g >= 0.0)) {
      throw std::invalid_argument(std::string(what) +
                                  ": conductance must be finite and non-negative");
    }
    total_conductance += g;
  }
  if (total_conductance <= 0.0) {
    std::string blocked;
    for (std::size_t i = 0; i < names.size(); ++i) {
      blocked += (i == 0 ? "" : ", ");
      blocked += names[i].empty() ? "group" + std::to_string(i) : names[i];
    }
    throw std::invalid_argument(std::string(what) +
                                ": zero total conductance (all blocked): " + blocked);
  }

  GroupSplit split;
  if (total_flow_m3_per_s == 0.0) {
    split.per_group_flow_m3_per_s.assign(conductances.size(), 0.0);
    split.fraction.assign(conductances.size(), 0.0);
    return split;
  }

  // Every live entry sees the plenum-to-plenum dp; find the dp whose
  // summed flows reproduce the pump total. For the laminar conductance law
  // this is linear in dp, but the bracketing root solve keeps the split
  // correct for any monotone per-entry flow law swapped in later.
  auto flow_surplus = [&](double dp) {
    double flow = 0.0;
    for (const double g : conductances) {
      flow += g * dp;
    }
    return flow - total_flow_m3_per_s;
  };
  const double dp_linear = total_flow_m3_per_s / total_conductance;
  const auto root = numerics::find_root_brent(flow_surplus, 0.0, 2.0 * dp_linear,
                                              1e-12 * dp_linear,
                                              1e-12 * total_flow_m3_per_s, 64);
  split.common_pressure_drop_pa = root.root;
  split.per_group_flow_m3_per_s.reserve(conductances.size());
  split.fraction.reserve(conductances.size());
  for (const double g : conductances) {
    split.per_group_flow_m3_per_s.push_back(g * split.common_pressure_drop_pa);
    split.fraction.push_back(g / total_conductance);
  }
  return split;
}

}  // namespace

double ParallelBranch::conductance(double dynamic_viscosity_pa_s) const {
  double total = 0.0;
  for (const ParallelChannelGroup& group : groups) {
    ensure(group.channel_count >= 0, "branch channel count must be non-negative");
    total += group.channel_count * group.duct.hydraulic_conductance(dynamic_viscosity_pa_s);
  }
  return total;
}

GroupSplit split_equal_pressure(double total_flow_m3_per_s,
                                std::span<const ParallelChannelGroup> groups,
                                double dynamic_viscosity_pa_s) {
  ensure(!groups.empty(), "split_equal_pressure: no channel groups");
  ensure_non_negative(total_flow_m3_per_s, "total flow");
  ensure_positive(dynamic_viscosity_pa_s, "dynamic viscosity");

  std::vector<double> conductances;
  std::vector<std::string> names;
  conductances.reserve(groups.size());
  names.reserve(groups.size());
  for (const ParallelChannelGroup& group : groups) {
    ensure(group.channel_count >= 0,
           "split_equal_pressure: channel count must be non-negative");
    conductances.push_back(group.channel_count *
                           group.duct.hydraulic_conductance(dynamic_viscosity_pa_s));
    names.push_back(group.name);
  }
  return solve_equal_pressure(total_flow_m3_per_s, conductances, names,
                              "split_equal_pressure");
}

GroupSplit split_equal_pressure(double total_flow_m3_per_s,
                                std::span<const ParallelBranch> branches,
                                double dynamic_viscosity_pa_s) {
  ensure(!branches.empty(), "split_equal_pressure: no branches");
  ensure_non_negative(total_flow_m3_per_s, "total flow");
  ensure_positive(dynamic_viscosity_pa_s, "dynamic viscosity");

  std::vector<double> conductances;
  std::vector<std::string> names;
  conductances.reserve(branches.size());
  names.reserve(branches.size());
  for (const ParallelBranch& branch : branches) {
    conductances.push_back(branch.conductance(dynamic_viscosity_pa_s));
    names.push_back(branch.name);
  }
  return solve_equal_pressure(total_flow_m3_per_s, conductances, names,
                              "split_equal_pressure");
}

}  // namespace brightsi::hydraulics
