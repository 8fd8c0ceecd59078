#include "thermal/stack.h"

#include <stdexcept>
#include <string>

#include "numerics/contracts.h"

namespace brightsi::thermal {

namespace {

void check_solid_layer(const SolidLayerSpec& layer) {
  ensure(!layer.name.empty(), "stack layer must be named");
  ensure_positive(layer.thickness_m, "layer thickness (" + layer.name + ")");
  ensure(layer.z_cells >= 1, "layer z_cells (" + layer.name + ") must be >= 1");
  ensure_positive(layer.material.thermal_conductivity_w_per_m_k,
                  "layer conductivity (" + layer.name + ")");
  ensure_positive(layer.material.volumetric_heat_capacity_j_per_m3_k,
                  "layer heat capacity (" + layer.name + ")");
}

void check_channel_layer(const MicrochannelLayerSpec& layer) {
  ensure(!layer.name.empty(), "channel layer must be named");
  ensure(layer.channel_count > 0, "channel count (" + layer.name + ") must be positive");
  ensure_positive(layer.channel_width_m, "channel width (" + layer.name + ")");
  ensure(layer.interior_wall_width_m > 0.0 &&
             layer.channel_width_m < layer.pitch_m(),
         "channel wider than pitch (" + layer.name +
             "): interior wall width must be positive");
  ensure_positive(layer.layer_height_m, "channel layer height (" + layer.name + ")");
  ensure(layer.z_cells >= 1, "channel layer z_cells (" + layer.name + ") must be >= 1");
  ensure_positive(layer.wall_material.thermal_conductivity_w_per_m_k,
                  "channel wall conductivity (" + layer.name + ")");
  ensure_positive(layer.wall_material.volumetric_heat_capacity_j_per_m3_k,
                  "channel wall heat capacity (" + layer.name + ")");
  ensure_non_negative(layer.nusselt_override, "nusselt override (" + layer.name + ")");
}

}  // namespace

void StackSpec::validate() const {
  ensure(!layers.empty(), "stack needs at least one layer");
  bool any_source = false;
  const MicrochannelLayerSpec* previous_channel = nullptr;  // immediately-previous layer
  const MicrochannelLayerSpec* reference_channel = nullptr;  // bottom channel layer
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (const auto* solid = std::get_if<SolidLayerSpec>(&layers[i])) {
      check_solid_layer(*solid);
      any_source = any_source || solid->has_heat_source;
      previous_channel = nullptr;
      continue;
    }
    const auto& channel = std::get<MicrochannelLayerSpec>(layers[i]);
    check_channel_layer(channel);
    ensure(i > 0, "channel layer '" + channel.name +
                      "' cannot be the bottom layer (a solid die must sit below it)");
    if (previous_channel != nullptr) {
      throw std::invalid_argument("adjacent channel layers '" + previous_channel->name +
                                  "' and '" + channel.name +
                                  "' need a solid layer between them");
    }
    if (reference_channel != nullptr &&
        (channel.channel_count != reference_channel->channel_count ||
         channel.channel_width_m != reference_channel->channel_width_m ||
         channel.interior_wall_width_m != reference_channel->interior_wall_width_m)) {
      throw std::invalid_argument(
          "channel layer '" + channel.name + "' does not match the channel pattern of '" +
          reference_channel->name + "' (channel columns must align across layers)");
    }
    if (reference_channel == nullptr) {
      reference_channel = &channel;
    }
    previous_channel = &channel;
  }
  ensure(any_source, "no layer carries the heat sources");
  ensure_non_negative(top_heat_transfer_w_per_m2_k, "top heat transfer coefficient");
  ensure_positive(ambient_temperature_k, "ambient temperature");
}

int StackSpec::channel_layer_count() const {
  int count = 0;
  for (const StackLayer& layer : layers) {
    count += std::holds_alternative<MicrochannelLayerSpec>(layer) ? 1 : 0;
  }
  return count;
}

int StackSpec::source_layer_count() const {
  int count = 0;
  for (const StackLayer& layer : layers) {
    if (const auto* solid = std::get_if<SolidLayerSpec>(&layer)) {
      count += solid->has_heat_source ? 1 : 0;
    }
  }
  return count;
}

std::vector<const MicrochannelLayerSpec*> StackSpec::channel_layers() const {
  std::vector<const MicrochannelLayerSpec*> channels;
  for (const StackLayer& layer : layers) {
    if (const auto* channel = std::get_if<MicrochannelLayerSpec>(&layer)) {
      channels.push_back(channel);
    }
  }
  return channels;
}

const MicrochannelLayerSpec* StackSpec::bottom_channel_layer() const {
  for (const StackLayer& layer : layers) {
    if (const auto* channel = std::get_if<MicrochannelLayerSpec>(&layer)) {
      return channel;
    }
  }
  return nullptr;
}

MicrochannelLayerSpec* StackSpec::bottom_channel_layer() {
  for (StackLayer& layer : layers) {
    if (auto* channel = std::get_if<MicrochannelLayerSpec>(&layer)) {
      return channel;
    }
  }
  return nullptr;
}

StackSpec power7_microchannel_stack() {
  StackSpec stack;
  stack.add(SolidLayerSpec{"active", 10e-6, 1, silicon(), /*has_heat_source=*/true});
  stack.add(SolidLayerSpec{"bulk_si", 650e-6, 3, silicon(), false});
  MicrochannelLayerSpec channel;
  channel.nusselt_override = 3.54;  // three heated walls, H1
  stack.add(channel);
  stack.add(SolidLayerSpec{"cap_si", 100e-6, 1, silicon(), false});
  stack.validate();
  return stack;
}

StackSpec power7_conventional_stack(double effective_sink_h_w_per_m2_k, double ambient_k) {
  StackSpec stack;
  stack.add(SolidLayerSpec{"active", 10e-6, 1, silicon(), /*has_heat_source=*/true});
  stack.add(SolidLayerSpec{"bulk_si", 750e-6, 3, silicon(), false});
  stack.add(SolidLayerSpec{"tim", 50e-6, 1, thermal_interface(), false});
  stack.add(SolidLayerSpec{"spreader", 2e-3, 2, copper(), false});
  stack.top_heat_transfer_w_per_m2_k = effective_sink_h_w_per_m2_k;
  stack.ambient_temperature_k = ambient_k;
  stack.validate();
  return stack;
}

StackSpec multi_die_stack(int die_count, bool interlayer_cooling, int bulk_z_cells) {
  ensure(die_count >= 1, "multi_die_stack: die count must be >= 1");
  ensure(bulk_z_cells >= 1, "multi_die_stack: bulk z_cells must be >= 1");
  StackSpec stack;
  for (int die = 0; die < die_count; ++die) {
    const std::string prefix = "die" + std::to_string(die);
    stack.add(SolidLayerSpec{prefix + "_active", 10e-6, 1, silicon(),
                             /*has_heat_source=*/true});
    stack.add(SolidLayerSpec{prefix + "_bulk", 650e-6, bulk_z_cells, silicon(), false});
    if (interlayer_cooling || die + 1 == die_count) {
      MicrochannelLayerSpec channel;
      channel.name = "cool" + std::to_string(die);
      channel.nusselt_override = 3.54;  // back-side-etched, cap side adiabatic
      stack.add(channel);
    }
  }
  stack.add(SolidLayerSpec{"cap_si", 100e-6, 1, silicon(), false});
  stack.validate();
  return stack;
}

StackSpec two_die_stack() { return multi_die_stack(2); }

}  // namespace brightsi::thermal
