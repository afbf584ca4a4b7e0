// Holland (1980) parametric hurricane wind and pressure model, the standard
// analytic vortex used to drive surge models (ADCIRC itself is typically
// forced with exactly this family of wind fields).
#pragma once

#include <optional>

#include "geo/vec2.h"

namespace ct::storm {

/// Instantaneous storm parameters (one snapshot along a track).
struct VortexParams {
  double central_pressure_pa = 97000.0;  ///< Minimum sea-level pressure.
  double ambient_pressure_pa = 101000.0; ///< Environmental pressure.
  double rmax_m = 40000.0;               ///< Radius of maximum winds.
  double holland_b = 1.3;                ///< Holland shape parameter (1..2.5).
  double latitude_deg = 21.0;            ///< For the Coriolis parameter.
};

/// Wind sampled at a point: speed plus direction as a unit vector in the
/// local ENU frame (x east, y north).
struct WindSample {
  geo::Vec2 velocity_ms;  ///< 10-m wind vector.
  double speed_ms = 0.0;
  double pressure_pa = 0.0;  ///< Sea-level pressure at the point.
};

/// Coriolis parameter f = 2 Omega sin(lat), 1/s.
double coriolis_parameter(double latitude_deg) noexcept;

/// Holland gradient wind speed at distance r from the center (m/s).
/// V(r) = sqrt( (B dp / rho) (Rmax/r)^B exp(-(Rmax/r)^B) + (r f / 2)^2 )
///        - r f / 2
double holland_gradient_wind(const VortexParams& p, double r_m) noexcept;

/// Holland surface pressure profile at distance r (Pa):
/// p(r) = pc + dp * exp(-(Rmax/r)^B)
double holland_pressure(const VortexParams& p, double r_m) noexcept;

/// Options of the surface wind field model.
struct WindFieldOptions {
  double surface_wind_factor = 0.9;   ///< gradient -> 10m reduction
  double inflow_angle_deg = 20.0;     ///< cross-isobar inflow
  double translation_fraction = 0.5;  ///< asymmetry weight
};

/// Full surface wind field model: gradient wind rotated counter-clockwise
/// (northern hemisphere), reduced to 10-m level, turned inward by the
/// boundary-layer inflow angle, plus forward-motion asymmetry (a fraction
/// of the translation velocity added, strongest right of track).
class HollandWindField {
 public:
  using Options = WindFieldOptions;

  explicit HollandWindField(Options opts = {}) noexcept : opts_(opts) {}

  /// Wind and pressure at `point` for a storm centered at `center` moving
  /// with `translation_ms` (ENU meters; all three in the same frame).
  WindSample sample(const VortexParams& params, geo::Vec2 center,
                    geo::Vec2 translation_ms, geo::Vec2 point) const noexcept;

  const Options& options() const noexcept { return opts_; }

 private:
  Options opts_;
};

/// Mathematical bounds of one storm step's wind and pressure over a disk
/// that stays beyond the radius of maximum winds (see
/// StormStepKernel::bound_over_disk). Rounding is not covered: callers that
/// compare against sampled values add their own margin.
struct DiskBound {
  /// >= the surface vortex wind speed (gradient * surface factor).
  double vortex_ms = 0.0;
  /// The forward-motion asymmetry term at the disk's nearest distance.
  /// Anywhere in the disk that term is this vector times a factor in
  /// [0, 1].
  geo::Vec2 asymmetry_ms;
  /// <= the sea-level pressure (Pa).
  double pressure_pa = 0.0;
  /// Unit direction of the vortex wind at the disk center. Anywhere in the
  /// disk the vortex wind points within the half-angle of it.
  geo::Vec2 vortex_dir;
  /// Cosine and sine of the half-angle the disk subtends at the center.
  double cos_half = 1.0;
  double sin_half = 0.0;
};

/// Per-time-step evaluator: freezes one (params, center, translation)
/// snapshot and hoists everything constant across sample points out of the
/// per-node loop (pressure deficit, Coriolis magnitude, inflow-angle
/// sin/cos, the eyewall wind used for the asymmetry weight). Sampling is
/// arithmetically identical to HollandWindField::sample — the per-node
/// operation sequence on varying inputs is unchanged, so results are
/// bit-equal — but costs one pow/exp and no trig per node instead of
/// several of each.
class StormStepKernel {
 public:
  StormStepKernel(const WindFieldOptions& opts, const VortexParams& params,
                  geo::Vec2 center, geo::Vec2 translation_ms) noexcept;

  /// Wind and pressure at `point`; bit-equal to
  /// HollandWindField{opts}.sample(params, center, translation_ms, point).
  WindSample sample(geo::Vec2 point) const noexcept;

  /// Eyewall gradient wind V(Rmax) for this snapshot (m/s).
  double vmax_ms() const noexcept { return vmax_; }

  /// Bounds over every point of the disk (`disk_center`, `radius`), taken
  /// from the profile at the disk's nearest distance r_lo. Beyond Rmax the
  /// gradient wind, the pressure deficit and the asymmetry weight all fall
  /// monotonically with distance, so their values at r_lo bound every
  /// farther point. Empty when r_lo <= max(Rmax, 1 m) (the eyewall or the
  /// calm eye may lie inside), or when a negative surface or translation
  /// factor, or a non-positive Holland B or Rmax, breaks that monotonicity.
  std::optional<DiskBound> bound_over_disk(geo::Vec2 disk_center,
                                           double radius) const noexcept;

 private:
  /// The radial profile at distance r > 1 m.
  struct Profile {
    double pressure_pa = 0.0;
    double gradient = 0.0;  ///< gradient wind (m/s)
    double weight = 0.0;    ///< asymmetry weight clamp(gradient / vmax)
  };
  Profile profile_at(double r) const noexcept;

  geo::Vec2 center_;
  geo::Vec2 translation_ms_;
  double central_pressure_pa_;
  double rmax_m_;
  double holland_b_;
  double dp_;            // max(0, ambient - central)
  double bdp_;           // B * dp / rho_air
  double f_;             // |Coriolis parameter|
  double cos_a_, sin_a_; // inflow angle
  double vmax_;          // V(Rmax)
  double surface_factor_;
  double translation_fraction_;
};

}  // namespace ct::storm
