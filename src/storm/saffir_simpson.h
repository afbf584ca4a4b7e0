// Saffir-Simpson hurricane wind scale, the bands synthetic storms are
// calibrated against.
#pragma once

namespace ct::storm {

/// Saffir-Simpson categories (kTropicalStorm below Cat 1 for completeness).
enum class Category {
  kTropicalStorm = 0,
  kCat1 = 1,
  kCat2 = 2,
  kCat3 = 3,
  kCat4 = 4,
  kCat5 = 5,
};

/// Lower bound of 1-minute sustained wind (m/s) for a category.
double category_min_wind_ms(Category c) noexcept;

/// Upper bound of 1-minute sustained wind (m/s); Cat 5 returns a large
/// sentinel (no upper bound).
double category_max_wind_ms(Category c) noexcept;

/// Category for a 1-minute sustained wind speed.
Category category_for_wind(double wind_ms) noexcept;

}  // namespace ct::storm
