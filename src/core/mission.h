// Mission simulation: the integrated system run through time.
//
// Couples every piece of the library: a WorkloadTrace drives the transient
// thermal model; the coolant outlet temperature feeds the electrochemistry;
// the cache rail draws its phase-dependent power from the flow-cell array
// through the VRMs; and the electrolyte reservoir integrates the drawn
// charge, so the state of charge (and with it the available OCV and
// current) evolves over the mission. This answers the system-level
// question behind the paper's flow-battery framing: for how long, and
// under what workloads, can the electrolyte loop actually carry the rail?
//
// Stepping goes through the shared TransientEngine (thermal/transient.h):
// phase-boundary-aligned steps that always cover the full trace duration,
// one solve context across the mission, and a final_state/final_soc
// checkpoint that seeds a resumed follow-up mission.
#ifndef BRIGHTSI_CORE_MISSION_H
#define BRIGHTSI_CORE_MISSION_H

#include <memory>
#include <string>
#include <vector>

#include "chip/workload.h"
#include "core/system_config.h"
#include "electrochem/reservoir.h"
#include "thermal/transient.h"

namespace brightsi::core {

/// Mission setup.
struct MissionConfig {
  SystemConfig system;                   ///< the integrated platform
  chip::WorkloadTrace workload;          ///< phases to run through
  electrochem::ReservoirSpec reservoir;  ///< tank sizing (chemistry ignored;
                                         ///< the system chemistry is used)
  double initial_soc = 0.95;
  double dt_s = 0.1;                     ///< nominal transient step
  /// Record every Nth step (the final step is always recorded); reservoir
  /// and energy integration always run every step.
  int sample_stride = 1;
  /// Snap steps to workload phase edges (thermal/transient.h). Disabling
  /// runs plain dt_s steps through phase boundaries; the trace end is
  /// still covered exactly either way.
  bool align_phase_boundaries = true;
  /// Thermal stepping backend: the full-grid solve (default, bit-stable)
  /// or the certified reduced-order model (thermal/rom.h).
  thermal::TransientBackend transient_backend = thermal::TransientBackend::kFull;

  void validate() const;
};

/// One recorded step.
struct MissionSample {
  double time_s = 0.0;
  double dt_s = 0.0;  ///< this step's actual length (residual steps are shorter)
  std::string phase;
  double peak_temperature_c = 0.0;
  double mean_outlet_c = 0.0;
  double state_of_charge = 0.0;
  double bus_voltage_v = 0.0;
  double bus_current_a = 0.0;
  bool supply_ok = false;  ///< rail demand met within the VRM window
};

/// Work counters for perf reporting (perfbench's mission_store workload).
struct MissionWork {
  long long steps = 0;
  long long thermal_iterations = 0;      ///< BiCGSTAB iterations, summed
  double thermal_assembly_time_s = 0.0;  ///< coefficient fill + CSR refill
  double thermal_setup_time_s = 0.0;     ///< ILU(0) factorization
  double thermal_solve_time_s = 0.0;     ///< time iterating inside the Krylov solver

  // Reduced-order backend counters (all zero on the full backend) — the
  // certificate trail of the mission.
  long long rom_steps = 0;            ///< steps served by the reduced solve
  long long rom_fallbacks = 0;        ///< full-solve fallbacks (basis enrichments)
  int rom_basis_size = 0;             ///< largest basis across step lengths
  double rom_build_time_s = 0.0;      ///< operator assembly + basis enrichment
  double rom_max_bound_k = 0.0;       ///< worst accepted certified error bound
  double rom_cumulative_bound_k = 0.0;  ///< trajectory-accumulated bound
};

/// Whole-mission outcome, with its work counters.
struct MissionResult : MissionWork {
  std::vector<MissionSample> samples;
  double final_soc = 0.0;
  double max_peak_temperature_c = 0.0;  ///< over every step, sampled or not
  bool supply_always_ok = true;
  double energy_delivered_j = 0.0;  ///< bus-side integral of V*I dt

  /// Checkpoint: the final thermal field. With final_soc, seeds a resumed
  /// mission (pass as initial_thermal_state, set initial_soc = final_soc).
  numerics::Grid3<double> final_state;
};

/// One step of a recorded mission thermal trajectory: everything the
/// electrochemical side of the mission loop consumes from the thermal side.
struct MissionThermalStep {
  double t_end_s = 0.0;
  double dt_s = 0.0;
  std::string phase;
  double rail_power_w = 0.0;        ///< cache-rail demand of this step's phase
  double peak_temperature_k = 0.0;
  double mean_outlet_k = 0.0;
  bool sampled = false;             ///< this step produced a MissionSample
};

/// A mission's full thermal trajectory. The thermal side of run_mission is
/// a pure function of the workload and the thermal/power configuration —
/// it never reads the reservoir or the array — so a recorded trajectory
/// replays bit-identically for any electrochemical variation (tank size,
/// initial SOC) of the same mission. The sweep's per-worker trajectory
/// cache (sweep/system_cache.h) exploits exactly this.
struct MissionThermalTrajectory {
  std::vector<MissionThermalStep> steps;
  numerics::Grid3<double> final_state;  ///< thermal field after the last step
  /// Bottom channel layer's flow share for the electrochemistry when
  /// interlayer cooling splits the pump total; 0 = use the configured spec.
  double electro_flow_m3_per_s = 0.0;
  /// Work counters of the recorded run, reported by every replay so perf
  /// reports stay meaningful (timings are the recording run's).
  MissionWork work;
};

/// Runs the mission. Throws only on configuration errors; supply
/// infeasibility is reported per sample, not thrown.
[[nodiscard]] MissionResult run_mission(const MissionConfig& config);

/// As above, with an externally assembled thermal model (per-worker sweep
/// caches share one across scenarios; it must match config.system, see
/// thermal_model_matches) and an optional thermal-field checkpoint to resume
/// from. Either argument may be null/absent.
///
/// `record`, when non-null, captures the thermal trajectory of this run.
/// `replay`, when non-null, skips the thermal solve entirely — no thermal
/// model is built — and drives the electrochemical loop from the recorded
/// steps instead; the caller must guarantee the trajectory was recorded
/// under an identical workload and thermal/power configuration (only
/// electrochemical knobs may differ). Results are bit-identical to a full
/// run. `record` and `replay` are mutually exclusive.
[[nodiscard]] MissionResult run_mission(
    const MissionConfig& config, std::shared_ptr<const thermal::ThermalModel> thermal_model,
    const numerics::Grid3<double>* initial_thermal_state = nullptr,
    MissionThermalTrajectory* record = nullptr,
    const MissionThermalTrajectory* replay = nullptr);

/// A saved mission ending: the thermal-field checkpoint plus the final
/// state of charge — everything a follow-up mission needs to resume
/// (initial_thermal_state + initial_soc).
struct MissionCheckpoint {
  numerics::Grid3<double> state;
  double soc = 0.0;
};

/// Writes the checkpoint in the shared versioned binary framing
/// (core/binfile.h, magic "BSICKPT1"): header, then one CRC-framed record
/// of dimensions, SOC and the raw field. Throws on I/O failure.
void save_mission_checkpoint(const std::string& path, const numerics::Grid3<double>& state,
                             double soc);

/// Reads a checkpoint back. Throws on a missing/truncated/corrupt file or
/// a format-version mismatch — never returns garbage.
[[nodiscard]] MissionCheckpoint load_mission_checkpoint(const std::string& path);

}  // namespace brightsi::core

#endif  // BRIGHTSI_CORE_MISSION_H
