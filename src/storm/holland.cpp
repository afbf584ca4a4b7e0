#include "storm/holland.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace ct::storm {

namespace {
constexpr double kAirDensity = 1.15;       // kg/m^3
constexpr double kEarthOmega = 7.2921e-5;  // rad/s
}  // namespace

double coriolis_parameter(double latitude_deg) noexcept {
  return 2.0 * kEarthOmega *
         std::sin(latitude_deg * std::numbers::pi / 180.0);
}

double holland_gradient_wind(const VortexParams& p, double r_m) noexcept {
  if (r_m <= 1.0) return 0.0;  // calm eye center
  const double dp = std::max(0.0, p.ambient_pressure_pa - p.central_pressure_pa);
  const double ratio = std::pow(p.rmax_m / r_m, p.holland_b);
  const double cyclostrophic =
      (p.holland_b * dp / kAirDensity) * ratio * std::exp(-ratio);
  const double f = std::abs(coriolis_parameter(p.latitude_deg));
  const double rf2 = r_m * f / 2.0;
  return std::sqrt(cyclostrophic + rf2 * rf2) - rf2;
}

double holland_pressure(const VortexParams& p, double r_m) noexcept {
  const double dp = std::max(0.0, p.ambient_pressure_pa - p.central_pressure_pa);
  if (r_m <= 1.0) return p.central_pressure_pa;
  const double ratio = std::pow(p.rmax_m / r_m, p.holland_b);
  return p.central_pressure_pa + dp * std::exp(-ratio);
}

WindSample HollandWindField::sample(const VortexParams& params,
                                    geo::Vec2 center, geo::Vec2 translation_ms,
                                    geo::Vec2 point) const noexcept {
  const geo::Vec2 radial = point - center;
  const double r = radial.norm();
  WindSample out;
  out.pressure_pa = holland_pressure(params, r);
  if (r <= 1.0) {
    out.velocity_ms = {};
    out.speed_ms = 0.0;
    return out;
  }

  const double gradient = holland_gradient_wind(params, r);
  const double surface = gradient * opts_.surface_wind_factor;

  // Tangential direction: counter-clockwise rotation (northern hemisphere)
  // is +90 degrees from the outward radial.
  const geo::Vec2 radial_hat = radial / r;
  const geo::Vec2 tangential_hat = radial_hat.perp();

  // Rotate the tangential wind inward (toward the center) by the inflow
  // angle: v = cos(a) * tangential - sin(a) * radial.
  const double a = opts_.inflow_angle_deg * std::numbers::pi / 180.0;
  geo::Vec2 v = tangential_hat * (surface * std::cos(a)) -
                radial_hat * (surface * std::sin(a));

  // Forward-motion asymmetry, scaled by the local relative intensity so the
  // correction vanishes far from the storm.
  const double vmax = holland_gradient_wind(params, params.rmax_m);
  const double weight = vmax > 0.0 ? std::clamp(gradient / vmax, 0.0, 1.0) : 0.0;
  v += translation_ms * (opts_.translation_fraction * weight);

  out.velocity_ms = v;
  out.speed_ms = v.norm();
  return out;
}

StormStepKernel::StormStepKernel(const WindFieldOptions& opts,
                                 const VortexParams& params, geo::Vec2 center,
                                 geo::Vec2 translation_ms) noexcept
    : center_(center),
      translation_ms_(translation_ms),
      central_pressure_pa_(params.central_pressure_pa),
      rmax_m_(params.rmax_m),
      holland_b_(params.holland_b),
      dp_(std::max(0.0, params.ambient_pressure_pa - params.central_pressure_pa)),
      bdp_(params.holland_b * dp_ / kAirDensity),
      f_(std::abs(coriolis_parameter(params.latitude_deg))),
      cos_a_(std::cos(opts.inflow_angle_deg * std::numbers::pi / 180.0)),
      sin_a_(std::sin(opts.inflow_angle_deg * std::numbers::pi / 180.0)),
      vmax_(holland_gradient_wind(params, params.rmax_m)),
      surface_factor_(opts.surface_wind_factor),
      translation_fraction_(opts.translation_fraction) {}

WindSample StormStepKernel::sample(geo::Vec2 point) const noexcept {
  const geo::Vec2 radial = point - center_;
  const double r = radial.norm();
  WindSample out;
  if (r <= 1.0) {
    // Calm eye: holland_pressure returns the central pressure and the
    // legacy sampler zeroes the wind.
    out.pressure_pa = central_pressure_pa_;
    out.velocity_ms = {};
    out.speed_ms = 0.0;
    return out;
  }

  const Profile profile = profile_at(r);
  out.pressure_pa = profile.pressure_pa;
  const double surface = profile.gradient * surface_factor_;

  const geo::Vec2 radial_hat = radial / r;
  const geo::Vec2 tangential_hat = radial_hat.perp();
  geo::Vec2 v = tangential_hat * (surface * cos_a_) -
                radial_hat * (surface * sin_a_);
  v += translation_ms_ * (translation_fraction_ * profile.weight);

  out.velocity_ms = v;
  out.speed_ms = v.norm();
  return out;
}

StormStepKernel::Profile StormStepKernel::profile_at(double r) const noexcept {
  // ratio and exp(-ratio) feed both the pressure profile and the gradient
  // wind; the legacy path evaluates them once per formula with identical
  // arguments, so sharing the results is bit-preserving.
  const double ratio = std::pow(rmax_m_ / r, holland_b_);
  const double decay = std::exp(-ratio);
  const double cyclostrophic = bdp_ * ratio * decay;
  const double rf2 = r * f_ / 2.0;
  Profile out;
  out.pressure_pa = central_pressure_pa_ + dp_ * decay;
  out.gradient = std::sqrt(cyclostrophic + rf2 * rf2) - rf2;
  out.weight = weight_of(out.gradient);
  return out;
}

double StormStepKernel::weight_of(double gradient) const noexcept {
  return vmax_ > 0.0 ? std::clamp(gradient / vmax_, 0.0, 1.0) : 0.0;
}

bool StormStepKernel::boundable() const noexcept {
  return surface_factor_ >= 0.0 && translation_fraction_ >= 0.0 &&
         holland_b_ > 0.0 && rmax_m_ > 0.0;
}

DiskBound StormStepKernel::radial_bound(double r_lo,
                                        double r_hi) const noexcept {
  double gradient = 0.0;
  double weight = 0.0;
  double pressure = central_pressure_pa_;
  if (r_lo > std::max(rmax_m_, 1.0)) {
    // For r > Rmax the ratio (Rmax/r)^B lies in (0, 1), where
    // ratio * exp(-ratio) rises with the ratio, so the cyclostrophic term
    // falls with distance; the Coriolis term rises, and sqrt(C + a^2) - a
    // falls as C falls or a rises. The pressure rises with exp(-ratio).
    const Profile profile = profile_at(r_lo);
    gradient = profile.gradient;
    weight = profile.weight;
    pressure = profile.pressure_pa;
  } else {
    // The eyewall or the calm eye may lie inside. ratio * exp(-ratio)
    // peaks at ratio = 1 (r = Rmax) and sqrt(C + a^2) - a <= sqrt(C), so
    // the wind is <= sqrt(C) at the distance nearest Rmax; points within
    // 1 m are calm. The pressure still rises with distance, and is the
    // central pressure within 1 m.
    const double r_peak =
        std::clamp(rmax_m_, std::max(r_lo, 1.0), std::max(r_hi, 1.0));
    const double ratio = std::pow(rmax_m_ / r_peak, holland_b_);
    gradient = std::sqrt(bdp_ * ratio * std::exp(-ratio));
    weight = weight_of(gradient);
    if (r_lo > 1.0) pressure = profile_at(r_lo).pressure_pa;
  }
  DiskBound out;
  out.vortex_ms = gradient * surface_factor_;
  out.asymmetry_ms = translation_ms_ * (translation_fraction_ * weight);
  out.pressure_pa = pressure;
  return out;
}

std::optional<DiskBound> StormStepKernel::bound_over_disk(
    geo::Vec2 disk_center, double radius) const noexcept {
  const geo::Vec2 offset = disk_center - center_;
  const double d = offset.norm();
  // Written so that NaN in any input fails the test and yields no bound.
  if (!(boundable() && radius >= 0.0 && std::isfinite(d))) return std::nullopt;
  DiskBound out = radial_bound(d - radius, d + radius);
  // A disk that holds the center keeps the any-direction cone. Otherwise
  // radius / d < 1, so cos_half is never NaN.
  if (radius < d) {
    // The vortex wind at bearing phi points along phi + 90 deg + inflow, so
    // its direction turns exactly as the bearing does across the disk.
    const geo::Vec2 radial_hat = offset / d;
    out.vortex_dir = radial_hat.perp() * cos_a_ - radial_hat * sin_a_;
    out.sin_half = radius / d;
    out.cos_half = std::sqrt(1.0 - out.sin_half * out.sin_half);
  }
  return out;
}

std::optional<DiskBound> StormStepKernel::bound_beyond(
    double r) const noexcept {
  if (!(boundable() && r >= 0.0)) return std::nullopt;
  return radial_bound(r, std::numeric_limits<double>::infinity());
}

}  // namespace ct::storm
