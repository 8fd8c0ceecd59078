// Flow distribution across parallel microchannel groups fed from common
// inlet/outlet plena. The split follows the laminar hydraulic conductances
// (identical groups split uniformly; blocked or resized ones in
// failure-injection studies shift flow to the rest), since all groups see
// the same plenum-to-plenum pressure difference.
#ifndef BRIGHTSI_HYDRAULICS_MANIFOLD_H
#define BRIGHTSI_HYDRAULICS_MANIFOLD_H

#include <span>
#include <string>
#include <vector>

#include "hydraulics/duct.h"

namespace brightsi::hydraulics {

/// A group of `channel_count` identical parallel ducts — one microchannel
/// layer of a 3D stack, fed from the same inlet/outlet plena as every
/// other layer. `channel_count == 0` marks a blocked group (valve closed /
/// channels clogged in failure-injection studies): it takes exactly zero
/// flow. `name` feeds the all-blocked diagnostic; empty names fall back to
/// positional "group<i>" labels.
struct ParallelChannelGroup {
  RectangularDuct duct;
  int channel_count = 1;
  std::string name;
};

/// Result of distributing a pump's total flow over parallel groups.
struct GroupSplit {
  std::vector<double> per_group_flow_m3_per_s;  ///< one entry per group
  std::vector<double> fraction;                 ///< per-group share of the total
  double common_pressure_drop_pa = 0.0;
};

/// Splits `total_flow` across parallel channel groups so every group sees
/// the same plenum-to-plenum pressure drop: solves sum_i Q_i(dp) = Q_total
/// for dp with the project root finder, where Q_i(dp) follows each group's
/// laminar conductance. Blocked (zero-conductance) groups receive exactly
/// zero flow and never enter the root-finder bracket. Deterministic;
/// throws on an empty group list, a negative channel count, a negative
/// flow, or an all-blocked set (the error names the blocked groups).
[[nodiscard]] GroupSplit split_equal_pressure(double total_flow_m3_per_s,
                                              std::span<const ParallelChannelGroup> groups,
                                              double dynamic_viscosity_pa_s);

/// A named parallel branch off a rack's common supply/return plena: one
/// chip's cooling layers, seen from the rack manifold as a single
/// conductance (the layers share the chip's plenum pair, so they are in
/// parallel). An empty group list — or one whose groups are all blocked —
/// is a blocked branch: it takes exactly zero flow.
struct ParallelBranch {
  std::string name;
  std::vector<ParallelChannelGroup> groups;

  /// Sum of the groups' laminar conductances (m^3/s per Pa); 0 = blocked.
  [[nodiscard]] double conductance(double dynamic_viscosity_pa_s) const;
};

/// split_equal_pressure generalized from layers-within-a-stack to
/// chips-within-a-rack: distributes one loop's flow across the chips'
/// branches at a common plenum-to-plenum pressure drop. Same contract as
/// the group overload; the all-blocked error names the branches.
[[nodiscard]] GroupSplit split_equal_pressure(double total_flow_m3_per_s,
                                              std::span<const ParallelBranch> branches,
                                              double dynamic_viscosity_pa_s);

}  // namespace brightsi::hydraulics

#endif  // BRIGHTSI_HYDRAULICS_MANIFOLD_H
