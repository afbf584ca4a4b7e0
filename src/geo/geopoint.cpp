#include "geo/geopoint.h"

#include <cmath>
#include <numbers>

namespace ct::geo {

double deg_to_rad(double deg) noexcept {
  return deg * std::numbers::pi / 180.0;
}

double rad_to_deg(double rad) noexcept {
  return rad * 180.0 / std::numbers::pi;
}

GeoPoint destination(GeoPoint start, double bearing_deg,
                     double distance_m) noexcept {
  const double delta = distance_m / kEarthRadiusM;
  const double theta = deg_to_rad(bearing_deg);
  const double lat1 = deg_to_rad(start.lat_deg);
  const double lon1 = deg_to_rad(start.lon_deg);
  const double lat2 = std::asin(std::sin(lat1) * std::cos(delta) +
                                std::cos(lat1) * std::sin(delta) *
                                    std::cos(theta));
  const double lon2 =
      lon1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(lat1),
                        std::cos(delta) - std::sin(lat1) * std::sin(lat2));
  return {rad_to_deg(lat2), rad_to_deg(lon2)};
}

EnuProjection::EnuProjection(GeoPoint reference) noexcept
    : ref_(reference), cos_ref_lat_(std::cos(deg_to_rad(reference.lat_deg))) {}

Vec2 EnuProjection::to_enu(GeoPoint p) const noexcept {
  const double x =
      deg_to_rad(p.lon_deg - ref_.lon_deg) * cos_ref_lat_ * kEarthRadiusM;
  const double y = deg_to_rad(p.lat_deg - ref_.lat_deg) * kEarthRadiusM;
  return {x, y};
}

GeoPoint EnuProjection::to_geo(Vec2 enu) const noexcept {
  const double lat = ref_.lat_deg + rad_to_deg(enu.y / kEarthRadiusM);
  const double lon =
      ref_.lon_deg + rad_to_deg(enu.x / (kEarthRadiusM * cos_ref_lat_));
  return {lat, lon};
}

}  // namespace ct::geo
