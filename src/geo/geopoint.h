// Geographic coordinates and the local planar projection used by the
// terrain/mesh/surge substrates. Oahu spans ~0.5 degrees, so an
// equirectangular East-North-Up projection about a reference point is
// accurate to well under 0.1% over the study area.
#pragma once

#include "geo/vec2.h"

namespace ct::geo {

/// Mean Earth radius (meters), IUGG value.
inline constexpr double kEarthRadiusM = 6371008.8;

/// WGS-style geographic point in decimal degrees.
/// Latitude positive north, longitude positive east (Oahu ~ -158).
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  constexpr bool operator==(const GeoPoint&) const noexcept = default;
};

double deg_to_rad(double deg) noexcept;
double rad_to_deg(double rad) noexcept;

/// Point reached from `start` travelling `distance_m` along `bearing_deg`
/// on a sphere.
GeoPoint destination(GeoPoint start, double bearing_deg,
                     double distance_m) noexcept;

/// Equirectangular ENU projection centered on a reference point.
/// x = east meters, y = north meters relative to the reference.
class EnuProjection {
 public:
  explicit EnuProjection(GeoPoint reference) noexcept;

  Vec2 to_enu(GeoPoint p) const noexcept;
  GeoPoint to_geo(Vec2 enu) const noexcept;
  GeoPoint reference() const noexcept { return ref_; }

 private:
  GeoPoint ref_;
  double cos_ref_lat_;
};

}  // namespace ct::geo
