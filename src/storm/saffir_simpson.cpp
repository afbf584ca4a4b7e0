#include "storm/saffir_simpson.h"

namespace ct::storm {

double category_min_wind_ms(Category c) noexcept {
  switch (c) {
    case Category::kTropicalStorm: return 18.0;
    case Category::kCat1: return 33.0;
    case Category::kCat2: return 43.0;
    case Category::kCat3: return 50.0;
    case Category::kCat4: return 58.0;
    case Category::kCat5: return 70.0;
  }
  return 0.0;
}

double category_max_wind_ms(Category c) noexcept {
  switch (c) {
    case Category::kTropicalStorm: return 33.0;
    case Category::kCat1: return 43.0;
    case Category::kCat2: return 50.0;
    case Category::kCat3: return 58.0;
    case Category::kCat4: return 70.0;
    case Category::kCat5: return 120.0;  // sentinel upper bound
  }
  return 0.0;
}

Category category_for_wind(double wind_ms) noexcept {
  if (wind_ms >= 70.0) return Category::kCat5;
  if (wind_ms >= 58.0) return Category::kCat4;
  if (wind_ms >= 50.0) return Category::kCat3;
  if (wind_ms >= 43.0) return Category::kCat2;
  if (wind_ms >= 33.0) return Category::kCat1;
  return Category::kTropicalStorm;
}

}  // namespace ct::storm
