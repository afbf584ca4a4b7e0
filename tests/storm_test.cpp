// Tests for the storm substrate: Saffir-Simpson scale, Holland vortex,
// tracks, and the CAT-2 ensemble generator.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storm/generator.h"
#include "storm/holland.h"
#include "storm/saffir_simpson.h"
#include "storm/track.h"
#include "util/rng.h"

namespace ct::storm {
namespace {

// ---------------------------------------------------------------- scale

TEST(SaffirSimpson, CategoryBoundaries) {
  EXPECT_EQ(category_for_wind(30.0), Category::kTropicalStorm);
  EXPECT_EQ(category_for_wind(33.0), Category::kCat1);
  EXPECT_EQ(category_for_wind(43.0), Category::kCat2);
  EXPECT_EQ(category_for_wind(49.9), Category::kCat2);
  EXPECT_EQ(category_for_wind(50.0), Category::kCat3);
  EXPECT_EQ(category_for_wind(58.0), Category::kCat4);
  EXPECT_EQ(category_for_wind(75.0), Category::kCat5);
}

TEST(SaffirSimpson, BandsAreContiguous) {
  for (const Category c : {Category::kTropicalStorm, Category::kCat1,
                           Category::kCat2, Category::kCat3, Category::kCat4}) {
    const Category next = static_cast<Category>(static_cast<int>(c) + 1);
    EXPECT_DOUBLE_EQ(category_max_wind_ms(c), category_min_wind_ms(next));
  }
}

// ---------------------------------------------------------------- holland

VortexParams cat2_vortex() {
  VortexParams v;
  v.central_pressure_pa = 96800.0;
  v.ambient_pressure_pa = 101000.0;
  v.rmax_m = 40000.0;
  v.holland_b = 1.35;
  v.latitude_deg = 21.0;
  return v;
}

TEST(Holland, CalmEyeAndPeakNearRmax) {
  const VortexParams v = cat2_vortex();
  EXPECT_DOUBLE_EQ(holland_gradient_wind(v, 0.5), 0.0);
  const double at_rmax = holland_gradient_wind(v, v.rmax_m);
  // The gradient-wind peak sits almost exactly at Rmax.
  EXPECT_GT(at_rmax, holland_gradient_wind(v, v.rmax_m / 3.0));
  EXPECT_GT(at_rmax, holland_gradient_wind(v, v.rmax_m * 3.0));
  // CAT-2-ish magnitude.
  EXPECT_GT(at_rmax, 40.0);
  EXPECT_LT(at_rmax, 60.0);
}

TEST(Holland, WindDecaysFarField) {
  const VortexParams v = cat2_vortex();
  double prev = holland_gradient_wind(v, 100000.0);
  for (double r = 150000.0; r <= 400000.0; r += 50000.0) {
    const double now = holland_gradient_wind(v, r);
    EXPECT_LT(now, prev);
    prev = now;
  }
}

TEST(Holland, PressureProfileMonotonic) {
  const VortexParams v = cat2_vortex();
  EXPECT_DOUBLE_EQ(holland_pressure(v, 0.5), v.central_pressure_pa);
  double prev = holland_pressure(v, 5000.0);
  for (double r = 20000.0; r <= 300000.0; r += 20000.0) {
    const double now = holland_pressure(v, r);
    EXPECT_GT(now, prev);
    prev = now;
  }
  EXPECT_NEAR(holland_pressure(v, 1e7), v.ambient_pressure_pa, 10.0);
}

TEST(Holland, CoriolisSignAndMagnitude) {
  EXPECT_GT(coriolis_parameter(21.0), 0.0);
  EXPECT_LT(coriolis_parameter(-21.0), 0.0);
  EXPECT_NEAR(coriolis_parameter(90.0), 1.4584e-4, 1e-7);
}

TEST(WindField, CounterClockwiseRotation) {
  const HollandWindField field({.inflow_angle_deg = 0.0,
                                .translation_fraction = 0.0});
  const VortexParams v = cat2_vortex();
  // Point due east of the center: CCW rotation means northward wind.
  const WindSample east =
      field.sample(v, {0, 0}, {0, 0}, {v.rmax_m, 0.0});
  EXPECT_GT(east.velocity_ms.y, 0.0);
  EXPECT_NEAR(east.velocity_ms.x, 0.0, 1e-9);
  // Point due north: westward wind.
  const WindSample north =
      field.sample(v, {0, 0}, {0, 0}, {0.0, v.rmax_m});
  EXPECT_LT(north.velocity_ms.x, 0.0);
}

TEST(WindField, InflowTurnsWindInward) {
  const HollandWindField field({.inflow_angle_deg = 20.0,
                                .translation_fraction = 0.0});
  const VortexParams v = cat2_vortex();
  const WindSample east = field.sample(v, {0, 0}, {0, 0}, {v.rmax_m, 0.0});
  // Radially inward at the east point = negative x.
  EXPECT_LT(east.velocity_ms.x, 0.0);
}

TEST(WindField, ForwardMotionAsymmetry) {
  const HollandWindField field;
  const VortexParams v = cat2_vortex();
  const geo::Vec2 northward_motion{0.0, 6.0};
  // Storm moving north: right of track (east) is stronger than left.
  const WindSample right =
      field.sample(v, {0, 0}, northward_motion, {v.rmax_m, 0.0});
  const WindSample left =
      field.sample(v, {0, 0}, northward_motion, {-v.rmax_m, 0.0});
  EXPECT_GT(right.speed_ms, left.speed_ms);
}

TEST(WindField, SampleReportsPressure) {
  const HollandWindField field;
  const VortexParams v = cat2_vortex();
  const WindSample s = field.sample(v, {0, 0}, {0, 0}, {v.rmax_m, 0.0});
  EXPECT_GT(s.pressure_pa, v.central_pressure_pa);
  EXPECT_LT(s.pressure_pa, v.ambient_pressure_pa);
  const WindSample center = field.sample(v, {0, 0}, {0, 0}, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(center.speed_ms, 0.0);
}

// ---------------------------------------------------------------- track

StormTrack simple_track() {
  TrackPoint a;
  a.time_s = 0.0;
  a.center = {20.0, -158.0};
  a.vortex = cat2_vortex();
  TrackPoint b = a;
  b.time_s = 36000.0;
  b.center = {21.0, -158.0};  // due north
  return StormTrack({a, b});
}

TEST(Track, InterpolationAndClamping) {
  const StormTrack track = simple_track();
  const geo::EnuProjection proj({20.5, -158.0});
  const StormState mid = track.state_at(18000.0, proj);
  EXPECT_NEAR(mid.center.lat_deg, 20.5, 1e-9);
  const StormState before = track.state_at(-100.0, proj);
  EXPECT_NEAR(before.center.lat_deg, 20.0, 1e-9);
  const StormState after = track.state_at(1e9, proj);
  EXPECT_NEAR(after.center.lat_deg, 21.0, 1e-9);
  EXPECT_DOUBLE_EQ(track.duration(), 36000.0);
}

TEST(Track, TranslationVelocity) {
  const StormTrack track = simple_track();
  const geo::EnuProjection proj({20.5, -158.0});
  const StormState mid = track.state_at(18000.0, proj);
  // 111.2 km of latitude in 10 h ~ 3.09 m/s northward.
  EXPECT_NEAR(mid.translation_ms.y, 3.09, 0.05);
  EXPECT_NEAR(mid.translation_ms.x, 0.0, 0.05);
}

TEST(Track, ClosestApproach) {
  const StormTrack track = simple_track();
  const geo::EnuProjection proj({20.5, -158.0});
  const double t = track.time_of_closest_approach({20.5, -157.9}, proj);
  EXPECT_NEAR(t, 18000.0, 1200.0);
}

TEST(Track, Validation) {
  EXPECT_THROW(StormTrack(std::vector<TrackPoint>{}), std::invalid_argument);
  TrackPoint only;
  EXPECT_THROW(StormTrack({only}), std::invalid_argument);
  TrackPoint a;
  a.time_s = 10.0;
  TrackPoint b;
  b.time_s = 10.0;  // not increasing
  EXPECT_THROW(StormTrack({a, b}), std::invalid_argument);
}

TEST(Track, PeakCategory) {
  const StormTrack track = simple_track();
  EXPECT_GE(static_cast<int>(track.peak_category()),
            static_cast<int>(Category::kCat1));
}

// ---------------------------------------------------------------- generator

TEST(Generator, Deterministic) {
  const TrackGenerator gen{TrackEnsembleConfig{}};
  const StormTrack a = gen.generate(123, 7);
  const StormTrack b = gen.generate(123, 7);
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].center.lat_deg, b.points()[i].center.lat_deg);
    EXPECT_DOUBLE_EQ(a.points()[i].vortex.rmax_m, b.points()[i].vortex.rmax_m);
  }
}

TEST(Generator, RealizationsDiffer) {
  const TrackGenerator gen{TrackEnsembleConfig{}};
  const StormTrack a = gen.generate(123, 0);
  const StormTrack b = gen.generate(123, 1);
  EXPECT_NE(a.points().front().center.lon_deg,
            b.points().front().center.lon_deg);
}

TEST(Generator, ParametersWithinTruncationBounds) {
  const TrackEnsembleConfig config;
  const TrackGenerator gen(config);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const StormTrack t = gen.generate(99, i);
    const VortexParams& v = t.points().front().vortex;
    EXPECT_GE(v.rmax_m, config.rmax_min_m);
    EXPECT_LE(v.rmax_m, config.rmax_max_m);
    EXPECT_GE(v.holland_b, 1.0);
    EXPECT_LE(v.holland_b, 2.2);
    const double dp = v.ambient_pressure_pa - v.central_pressure_pa;
    EXPECT_GT(dp, 1000.0);
    EXPECT_LT(dp, 7000.0);
  }
}

TEST(Generator, EnsembleIsMostlyCat2) {
  const TrackGenerator gen{TrackEnsembleConfig{}};
  int cat2ish = 0;
  const int n = 100;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Category c = gen.generate(7, i).peak_category();
    if (c == Category::kCat1 || c == Category::kCat2) ++cat2ish;
  }
  EXPECT_GE(cat2ish, 90);
}

TEST(Generator, BaseTrackPassesNearAimPoint) {
  const TrackEnsembleConfig config;
  const TrackGenerator gen(config);
  const StormTrack base = gen.base_track();
  const geo::EnuProjection proj(config.base_aim);
  const double t = base.time_of_closest_approach(config.base_aim, proj);
  const StormState s = base.state_at(t, proj);
  EXPECT_LT(geo::distance(proj.to_enu(s.center), proj.to_enu(config.base_aim)),
            10000.0);
}

TEST(Generator, TrackHeadsNorthwest) {
  const TrackGenerator gen{TrackEnsembleConfig{}};
  const StormTrack t = gen.generate(1, 0);
  const geo::GeoPoint start = t.points().front().center;
  const geo::GeoPoint end = t.points().back().center;
  EXPECT_GT(end.lat_deg, start.lat_deg);   // moving north
  EXPECT_LT(end.lon_deg, start.lon_deg);   // and west
}

TEST(Generator, FixSpacingMatchesConfig) {
  TrackEnsembleConfig config;
  config.fix_interval_s = 1800.0;
  const TrackGenerator gen(config);
  const StormTrack t = gen.generate(5, 3);
  ASSERT_GE(t.points().size(), 3u);
  EXPECT_NEAR(t.points()[1].time_s - t.points()[0].time_s, 1800.0, 1e-9);
}

TEST(StormStepKernel, BitEqualToHollandWindFieldSample) {
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };

  std::vector<VortexParams> params_set;
  params_set.push_back({});  // defaults
  params_set.push_back({95500.0, 101200.0, 28000.0, 1.9, 13.5});
  params_set.push_back({99900.0, 99800.0, 55000.0, 1.05, 35.0});  // dp < 0
  params_set.push_back({97000.0, 101000.0, 0.5, 1.3, 21.0});      // tiny rmax

  WindFieldOptions opts;
  opts.inflow_angle_deg = 23.0;
  opts.translation_fraction = 0.6;
  const HollandWindField field(opts);

  for (const VortexParams& params : params_set) {
    const geo::Vec2 center{12000.0, -34000.0};
    const geo::Vec2 translation{4.0, 6.5};
    const StormStepKernel kernel(opts, params, center, translation);
    EXPECT_EQ(bits(kernel.vmax_ms()),
              bits(holland_gradient_wind(params, params.rmax_m)));

    for (double dx = -150000.0; dx <= 150000.0; dx += 12500.0) {
      for (double dy = -120000.0; dy <= 120000.0; dy += 17500.0) {
        const geo::Vec2 point = center + geo::Vec2{dx, dy};
        const WindSample a = field.sample(params, center, translation, point);
        const WindSample b = kernel.sample(point);
        EXPECT_EQ(bits(a.velocity_ms.x), bits(b.velocity_ms.x))
            << dx << "," << dy;
        EXPECT_EQ(bits(a.velocity_ms.y), bits(b.velocity_ms.y))
            << dx << "," << dy;
        EXPECT_EQ(bits(a.speed_ms), bits(b.speed_ms)) << dx << "," << dy;
        EXPECT_EQ(bits(a.pressure_pa), bits(b.pressure_pa)) << dx << "," << dy;
      }
    }

    // Calm eye center (r <= 1 branch).
    const WindSample eye_legacy =
        field.sample(params, center, translation, center);
    const WindSample eye_kernel = kernel.sample(center);
    EXPECT_EQ(bits(eye_legacy.pressure_pa), bits(eye_kernel.pressure_pa));
    EXPECT_EQ(eye_kernel.speed_ms, 0.0);
    EXPECT_EQ(eye_kernel.velocity_ms, geo::Vec2{});
  }
}

TEST(StormStepKernel, DiskAndTailBoundsHoldInsideAndOutsideTheEyewall) {
  util::Rng rng(20221017, "storm-disk-bound");
  const double two_pi = 2.0 * 3.141592653589793;
  const auto unit = [&] {
    const double bearing = rng.uniform(0.0, two_pi);
    return geo::Vec2{std::cos(bearing), std::sin(bearing)};
  };
  // A sampled wind is the vortex wind plus translation * fraction * weight;
  // the bound must cover each part, and the pressure.
  const auto check = [&](const StormStepKernel& kernel,
                         const VortexParams& params,
                         const WindFieldOptions& opts, geo::Vec2 center,
                         geo::Vec2 translation, const DiskBound& bound,
                         geo::Vec2 point, const std::string& tag) {
    const WindSample w = kernel.sample(point);
    const double r = geo::distance(point, center);
    const double weight =
        r <= 1.0 || kernel.vmax_ms() <= 0.0
            ? 0.0
            : std::clamp(holland_gradient_wind(params, r) / kernel.vmax_ms(),
                         0.0, 1.0);
    const geo::Vec2 asymmetry =
        translation * (opts.translation_fraction * weight);
    const geo::Vec2 vortex = w.velocity_ms - asymmetry;
    // Relative margins, as the envelope uses: a point's coordinates round
    // by ~1e-11 m, which moves a tiny eyewall's profile by more than 1e-9.
    const double tol = 1e-9;
    ASSERT_GE(w.pressure_pa, bound.pressure_pa * (1.0 - tol)) << tag;
    ASSERT_LE(vortex.norm(), bound.vortex_ms * (1.0 + tol) + tol) << tag;
    ASSERT_LE(asymmetry.norm(), bound.asymmetry_ms.norm() * (1.0 + tol) + tol)
        << tag;
    if (vortex.norm() > tol) {
      // Within the cone: the angle to vortex_dir is at most the half-angle.
      ASSERT_GE(vortex.dot(bound.vortex_dir) / vortex.norm(),
                bound.cos_half - 1e-9)
          << tag;
    }
  };

  std::size_t holds_center = 0;
  std::size_t reaches_eyewall = 0;
  std::size_t beyond_eyewall = 0;
  for (int trial = 0; trial < 300; ++trial) {
    VortexParams params;
    params.ambient_pressure_pa = rng.uniform(100500.0, 102000.0);
    params.central_pressure_pa = rng.uniform(90000.0, 101500.0);  // dp < 0 too
    params.rmax_m = trial % 10 == 0 ? rng.uniform(0.2, 3.0)
                                    : rng.uniform(5000.0, 120000.0);
    params.holland_b = rng.uniform(0.8, 2.5);
    params.latitude_deg = rng.uniform(-35.0, 35.0);
    WindFieldOptions opts;
    opts.surface_wind_factor = rng.uniform(0.0, 1.2);
    opts.inflow_angle_deg = rng.uniform(-60.0, 60.0);
    opts.translation_fraction = rng.uniform(0.0, 1.5);
    const geo::Vec2 center{rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5)};
    const geo::Vec2 translation{rng.uniform(-15.0, 15.0),
                                rng.uniform(-15.0, 15.0)};
    const StormStepKernel kernel(opts, params, center, translation);

    // Disks from the storm center itself out to far beyond the eyewall.
    const double scale = std::max(params.rmax_m, 10.0);
    const double radius =
        trial % 7 == 0 ? 0.0 : scale * rng.uniform(0.01, 1.5);
    const double d = trial % 5 == 0 ? 0.0 : scale * rng.uniform(0.0, 4.0);
    const geo::Vec2 disk_center = center + unit() * d;
    const std::optional<DiskBound> bound =
        kernel.bound_over_disk(disk_center, radius);
    ASSERT_TRUE(bound) << "trial " << trial;
    ASSERT_FALSE(std::isnan(bound->cos_half)) << "trial " << trial;
    if (d <= radius) {
      ++holds_center;
      EXPECT_EQ(bound->cos_half, -1.0) << "trial " << trial;
    } else if (d - radius <= std::max(params.rmax_m, 1.0)) {
      ++reaches_eyewall;
    } else {
      ++beyond_eyewall;
    }
    std::vector<geo::Vec2> points = {disk_center};
    if (d > 0.0) {
      // The disk points nearest the center and at Rmax along the line.
      const geo::Vec2 toward = (center - disk_center) / d;
      points.push_back(disk_center + toward * std::min(radius, d));
      if (std::abs(d - params.rmax_m) <= radius) {
        points.push_back(center - toward * params.rmax_m);
      }
    }
    for (int p = 0; p < 64; ++p) {
      points.push_back(disk_center +
                       unit() * (radius * std::sqrt(rng.uniform(0.0, 1.0))));
    }
    for (const geo::Vec2 point : points) {
      check(kernel, params, opts, center, translation, *bound, point,
            "disk trial " + std::to_string(trial));
    }

    // Every point beyond a radius, in any direction.
    const double r_tail = scale * rng.uniform(0.0, 3.0);
    const std::optional<DiskBound> tail = kernel.bound_beyond(r_tail);
    ASSERT_TRUE(tail) << "trial " << trial;
    EXPECT_EQ(tail->cos_half, -1.0) << "trial " << trial;
    for (int p = 0; p < 64; ++p) {
      const double r = p == 0 ? r_tail : r_tail * rng.uniform(1.0, 4.0);
      check(kernel, params, opts, center, translation, *tail,
            center + unit() * r, "tail trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(holds_center, 0u);
  EXPECT_GT(reaches_eyewall, 0u);
  EXPECT_GT(beyond_eyewall, 0u);

  // Outside the arguments' preconditions, and for non-finite input, there
  // is no bound.
  const StormStepKernel kernel(WindFieldOptions{}, VortexParams{}, {0.0, 0.0},
                               {5.0, 0.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(kernel.bound_over_disk({nan, 0.0}, 100.0));
  EXPECT_FALSE(kernel.bound_over_disk({1e5, 0.0}, nan));
  EXPECT_FALSE(kernel.bound_over_disk({1e5, 0.0}, -1.0));
  EXPECT_FALSE(kernel.bound_beyond(nan));
  VortexParams flat;
  flat.holland_b = 0.0;
  EXPECT_FALSE(StormStepKernel(WindFieldOptions{}, flat, {0.0, 0.0}, {})
                   .bound_over_disk({1e5, 0.0}, 100.0));
}

}  // namespace
}  // namespace ct::storm
