// Parametric storm-surge solver over the coastal mesh. Stands in for the
// ADCIRC hydrodynamic run in the paper's pipeline: for each time step of a
// storm track it evaluates the Holland wind/pressure field at every wet
// mesh node and converts it to a water-surface elevation via the standard
// parametric decomposition
//
//   WSE = wind setup + inverse barometer + wave setup
//
// with wind setup ~ u_onshore * |u| / (g * depth)  (shallow-water stress
// balance) and inverse barometer ~ dp / (rho g). The maximum over time per
// node (the "maximum envelope of water", MEOW) is the solver's output,
// matching how inundation studies consume ADCIRC results.
#pragma once

#include "mesh/coastal_builder.h"
#include "storm/holland.h"
#include "storm/track.h"

namespace ct::surge {

/// Physical constants of the surge decomposition. In the header so the
/// precomputed hot path (surge/mesh_bindings.h) folds exactly the same
/// values the reference solver uses — a prerequisite for bit-identity.
inline constexpr double kGravity = 9.81;        // m/s^2
inline constexpr double kWaterDensity = 1025.0; // kg/m^3 (sea water)

/// Tunable physics constants. Defaults are calibrated (see
/// tests/surge/calibration_test.cpp) so that a direct CAT-2 landfall
/// produces 1.5-3 m of surge on the facing shore, consistent with Hawaii
/// planning guidance, and so the Oahu case study reproduces the paper's
/// ~9.5% Honolulu flood probability.
struct SurgeConfig {
  /// Simulation time step (s).
  double dt_s = 1800.0;
  /// Wind-setup scale (m):
  ///   eta_wind = scale * u_on * |u|^(exponent-1) / (g * depth).
  /// The default exponent of 3 reflects the growth of the air-sea drag
  /// coefficient with wind speed (stress ~ Cd(u) u^2 with Cd ~ u), which
  /// sharpens the distinction between a direct hit and a distant pass.
  double wind_setup_scale_m = 8.0e-4;
  double wind_setup_exponent = 3.0;
  /// Wave setup per m/s of onshore wind (m s/m).
  double wave_setup_per_ms = 0.006;
  /// Depth floor so the setup term stays finite at the shoreline (m).
  double min_depth_m = 2.0;
  /// Storm positions farther than this from the mesh are skipped (m).
  double max_considered_distance_m = 350000.0;
  /// Holland wind-field options (surface reduction, inflow, asymmetry).
  storm::HollandWindField::Options wind_options{};
};

/// Computes the maximum water-surface-elevation envelope (one value per
/// mesh node, meters above MSL) produced by `track` over the coastal mesh.
/// Land nodes receive the same formula evaluated with the floor depth; the
/// caller is expected to post-process with
/// mesh::shoreline_average_and_extend (as the paper did) before using
/// onshore values.
class SurgeSolver {
 public:
  explicit SurgeSolver(SurgeConfig config = {}) : config_(config) {}

  /// The reference envelope run_reference uses; fastpath_test compares
  /// MeshBindings::accumulate_envelope with it bit for bit.
  mesh::NodeField max_envelope(const mesh::CoastalMesh& cm,
                               const storm::StormTrack& track,
                               const geo::EnuProjection& proj) const;

  /// Instantaneous WSE field at one moment (used by tests and the DES
  /// replay example to inspect the time evolution).
  mesh::NodeField instantaneous(const mesh::CoastalMesh& cm,
                                const storm::StormState& state,
                                const geo::EnuProjection& proj) const;

  const SurgeConfig& config() const noexcept { return config_; }

 private:
  SurgeConfig config_;
};

}  // namespace ct::surge
