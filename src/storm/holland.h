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

/// Mathematical bounds of one storm step's wind and pressure over a region
/// around the storm: a disk (StormStepKernel::bound_over_disk) or every
/// point beyond a radius (StormStepKernel::bound_beyond). Rounding is not
/// covered: callers that compare against sampled values add their own
/// margin.
struct DiskBound {
  /// >= the surface vortex wind speed (gradient * surface factor).
  double vortex_ms = 0.0;
  /// Anywhere in the region the forward-motion asymmetry term is this
  /// vector times a factor in [0, 1].
  geo::Vec2 asymmetry_ms;
  /// <= the sea-level pressure (Pa).
  double pressure_pa = 0.0;
  /// Unit direction of the vortex wind at the disk center (any unit vector
  /// when the half-angle is pi). Anywhere in the region the vortex wind
  /// points within the half-angle of it.
  geo::Vec2 vortex_dir{1.0, 0.0};
  /// Cosine and sine of that half-angle: the angle a disk that excludes the
  /// storm center subtends at it, else pi (cos_half = -1, any direction).
  double cos_half = -1.0;
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

  /// Bounds over every point of the disk (`disk_center`, `radius`), whose
  /// distances from the center span [r_lo, r_hi] = d -/+ radius. Beyond
  /// max(Rmax, 1 m) the gradient wind, the pressure deficit and the
  /// asymmetry weight all fall with distance, so when r_lo lies there their
  /// values at r_lo bound the disk. When the disk reaches the eyewall or
  /// the calm eye, the cyclostrophic term C = B dp / rho x e^-x (x =
  /// (Rmax/r)^B) peaks at x = 1, so the gradient wind is <= sqrt(C) with C
  /// at clamp(Rmax, r_lo, r_hi); the deficit is <= its value at r_lo (the
  /// full central deficit once r_lo <= 1 m); the weight is <= that wind
  /// over Vmax. The direction cone holds while the disk excludes the
  /// center. Empty when an input is not finite, or when a negative surface
  /// or translation factor, or a non-positive Holland B or Rmax, breaks
  /// those arguments.
  std::optional<DiskBound> bound_over_disk(geo::Vec2 disk_center,
                                           double radius) const noexcept;

  /// Bounds over every point at distance >= `r` from the center, in any
  /// direction: the radial argument of bound_over_disk with r_hi infinite.
  /// Empty under the same conditions.
  std::optional<DiskBound> bound_beyond(double r) const noexcept;

 private:
  /// The radial profile at distance r > 1 m.
  struct Profile {
    double pressure_pa = 0.0;
    double gradient = 0.0;  ///< gradient wind (m/s)
    double weight = 0.0;    ///< asymmetry weight clamp(gradient / vmax)
  };
  Profile profile_at(double r) const noexcept;
  /// Asymmetry weight clamp(gradient / vmax, 0, 1).
  double weight_of(double gradient) const noexcept;
  /// Whether the bound arguments hold for this snapshot (false for NaN).
  bool boundable() const noexcept;
  /// Speed, asymmetry and pressure bounds over distances [r_lo, r_hi]; the
  /// direction fields keep their any-direction defaults.
  DiskBound radial_bound(double r_lo, double r_hi) const noexcept;

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
