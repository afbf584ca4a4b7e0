// Equivalence and invalidation tests for the realization hot path: the
// MeshBindings precompute (surge/mesh_bindings.h) plus RealizationEngine::
// run must be BIT-identical to run_reference (the original pipeline) for
// every consumed output, across configuration variants, thread counts, and
// the five paper SCADA architectures; and the engine-batch digest must
// change whenever the precompute's inputs change so disk caches can never
// serve stale realizations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/case_study.h"
#include "core/pipeline.h"
#include "geo/polygon.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "storm/generator.h"
#include "surge/realization.h"
#include "terrain/oahu.h"
#include "terrain/terrain.h"
#include "util/digest.h"
#include "util/rng.h"

namespace ct {
namespace {

using surge::HurricaneRealization;
using surge::RealizationConfig;
using surge::RealizationEngine;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

std::shared_ptr<const terrain::Terrain> oahu() {
  static const std::shared_ptr<const terrain::Terrain> t =
      terrain::make_oahu_terrain();
  return t;
}

std::vector<surge::ExposedAsset> oahu_assets() {
  return scada::oahu_topology().exposed_assets();
}

/// Bitwise comparison of every consumed field of two realizations.
void expect_bit_identical(const HurricaneRealization& a,
                          const HurricaneRealization& b,
                          const std::string& tag) {
  ASSERT_EQ(a.impacts.size(), b.impacts.size()) << tag;
  for (std::size_t i = 0; i < a.impacts.size(); ++i) {
    const surge::AssetImpact& x = a.impacts[i];
    const surge::AssetImpact& y = b.impacts[i];
    EXPECT_EQ(x.asset_id, y.asset_id) << tag << " impact " << i;
    EXPECT_EQ(x.shoreline_station, y.shoreline_station) << tag << " " << i;
    EXPECT_EQ(bits(x.shoreline_wse_m), bits(y.shoreline_wse_m))
        << tag << " " << x.asset_id;
    EXPECT_EQ(bits(x.water_level_m), bits(y.water_level_m))
        << tag << " " << x.asset_id;
    EXPECT_EQ(bits(x.inundation_depth_m), bits(y.inundation_depth_m))
        << tag << " " << x.asset_id;
    EXPECT_EQ(x.failed, y.failed) << tag << " " << x.asset_id;
    EXPECT_EQ(bits(x.peak_wind_ms), bits(y.peak_wind_ms))
        << tag << " " << x.asset_id;
    EXPECT_EQ(x.wind_failed, y.wind_failed) << tag << " " << x.asset_id;
  }
  EXPECT_EQ(bits(a.peak_wind_ms), bits(b.peak_wind_ms)) << tag;
  EXPECT_EQ(bits(a.max_shoreline_wse_m), bits(b.max_shoreline_wse_m)) << tag;
}

// ------------------------------------------------- run vs run_reference

TEST(Fastpath, RunMatchesReferenceBitExactAcrossConfigVariants) {
  struct Variant {
    const char* name;
    RealizationConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"default", {}});
  {
    RealizationConfig c;
    c.harbor.enabled = false;
    variants.push_back({"harbor-off", c});
  }
  {
    RealizationConfig c;
    c.fragility.enabled = true;
    variants.push_back({"fragility-on", c});
  }
  {
    RealizationConfig c;
    c.sea_level_offset_m = 0.5;
    variants.push_back({"sea-level-rise", c});
  }
  {
    RealizationConfig c;
    c.smoothing_passes = 0;
    variants.push_back({"passes-0", c});
  }
  {
    RealizationConfig c;
    c.smoothing_passes = 5;
    variants.push_back({"passes-5", c});
  }
  {
    RealizationConfig c;
    c.alongshore_window = 0;
    variants.push_back({"window-0", c});
  }
  {
    RealizationConfig c;
    c.smoothing_band_m = 0.0;
    variants.push_back({"band-0", c});
  }
  // The surge physics the envelope bound reads: exponents on both sides of
  // 1 (below 1 the bound is off), inflow and asymmetry extremes, depth and
  // time-step changes, a negative wind-setup scale, a wider far-skip radius
  // and a finer mesh.
  const auto add = [&](const char* name, auto edit) {
    RealizationConfig c;
    edit(c);
    variants.push_back({name, c});
  };
  using C = RealizationConfig&;
  add("exponent-1", [](C c) { c.surge.wind_setup_exponent = 1.0; });
  add("exponent-2", [](C c) { c.surge.wind_setup_exponent = 2.0; });
  add("exponent-4.5", [](C c) { c.surge.wind_setup_exponent = 4.5; });
  add("exponent-0.5", [](C c) { c.surge.wind_setup_exponent = 0.5; });
  add("inflow-0", [](C c) { c.surge.wind_options.inflow_angle_deg = 0.0; });
  add("inflow-45", [](C c) { c.surge.wind_options.inflow_angle_deg = 45.0; });
  add("inflow-minus-30",
      [](C c) { c.surge.wind_options.inflow_angle_deg = -30.0; });
  add("translation-0",
      [](C c) { c.surge.wind_options.translation_fraction = 0.0; });
  add("translation-1",
      [](C c) { c.surge.wind_options.translation_fraction = 1.0; });
  add("surface-factor-1",
      [](C c) { c.surge.wind_options.surface_wind_factor = 1.0; });
  add("min-depth-0.5", [](C c) { c.surge.min_depth_m = 0.5; });
  add("dt-600", [](C c) { c.surge.dt_s = 600.0; });
  add("dt-3600", [](C c) { c.surge.dt_s = 3600.0; });
  add("wave-setup-0", [](C c) { c.surge.wave_setup_per_ms = 0.0; });
  add("negative-wind-setup", [](C c) { c.surge.wind_setup_scale_m = -8.0e-4; });
  add("far-skip-600km",
      [](C c) { c.surge.max_considered_distance_m = 600000.0; });
  add("shore-spacing-1000", [](C c) { c.mesh.shore_spacing_m = 1000.0; });

  for (const Variant& v : variants) {
    const RealizationEngine engine(oahu(), oahu_assets(), v.config);
    for (const std::uint64_t index : {0ull, 3ull, 17ull}) {
      expect_bit_identical(
          engine.run(index), engine.run_reference(index),
          std::string(v.name) + "[" + std::to_string(index) + "]");
    }
  }
}

TEST(Fastpath, CallerOwnedScratchReuseIsBitStable) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  surge::RealizationScratch reused;
  for (const std::uint64_t index : {5ull, 0ull, 29ull, 5ull}) {
    surge::RealizationScratch fresh;
    expect_bit_identical(engine.run(index, reused),
                         engine.run(index, fresh),
                         "scratch[" + std::to_string(index) + "]");
  }
}

TEST(Fastpath, ParallelBatchBitIdenticalToReference) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  runtime::EnsembleOptions options;
  options.jobs = 8;
  options.cache = false;
  runtime::EnsembleRunner runner(options);
  std::vector<HurricaneRealization> parallel(12);
  runner.pool().parallel_for_each(parallel.size(), 1, [&](std::size_t i) {
    parallel[i] = engine.run(i);
  });
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    expect_bit_identical(parallel[i],
                         engine.run_reference(static_cast<std::uint64_t>(i)),
                         "parallel[" + std::to_string(i) + "]");
  }
}

// ------------------------------------------------ pruned envelope kernel

constexpr std::uint64_t kEnvelopeRealizations = 200;

/// Every active node of `engine`'s envelope of `track` bit-equal to
/// SurgeSolver::max_envelope.
void expect_envelope_matches_reference(const RealizationEngine& engine,
                                       const storm::StormTrack& track,
                                       const std::string& tag) {
  const geo::EnuProjection& proj = engine.terrain().projection();
  mesh::NodeField envelope;
  engine.bindings().accumulate_envelope(track, proj, envelope);
  const mesh::NodeField reference =
      surge::SurgeSolver(engine.config().surge)
          .max_envelope(engine.coastal_mesh(), track, proj);
  for (const mesh::NodeId node : engine.bindings().active_nodes()) {
    ASSERT_EQ(bits(envelope[node]), bits(reference[node]))
        << tag << " node " << node;
  }
}

TEST(Fastpath, EnvelopeKernelMatchesReferenceOnEveryActiveNode) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const storm::TrackGenerator generator(engine.config().ensemble);
  for (std::uint64_t i = 0; i < kEnvelopeRealizations; ++i) {
    ASSERT_NO_FATAL_FAILURE(expect_envelope_matches_reference(
        engine, generator.generate(engine.config().base_seed, i),
        "realization " + std::to_string(i)));
  }
}

TEST(Fastpath, EnvelopeKernelMatchesReferenceOnAdversarialTracks) {
  // Tracks whose strength jumps from fix to fix, from a weak storm close by
  // to a deep, wide one far out, so a run of far steps can still hold a
  // node's max: a far-tail cut must cover every remaining step of its run.
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const geo::EnuProjection& proj = engine.terrain().projection();
  geo::BBox box;
  for (const mesh::Node& node : engine.coastal_mesh().mesh.nodes()) {
    box.expand(node.position);
  }
  util::Rng rng(20221017, "adversarial-tracks");
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<storm::TrackPoint> fixes;
    for (int f = 0; f < 8; ++f) {
      const double bearing = rng.uniform(0.0, 2.0 * 3.141592653589793);
      const double range_m = rng.uniform(20000.0, 400000.0);
      storm::TrackPoint fix;
      fix.time_s = 10800.0 * f;
      fix.center = proj.to_geo(
          box.center() +
          geo::Vec2{std::cos(bearing), std::sin(bearing)} * range_m);
      const bool deep = rng.uniform(0.0, 1.0) < 0.5;
      fix.vortex.central_pressure_pa =
          fix.vortex.ambient_pressure_pa -
          (deep ? rng.uniform(6000.0, 12000.0) : rng.uniform(100.0, 1500.0));
      fix.vortex.rmax_m = deep ? rng.uniform(40000.0, 120000.0)
                               : rng.uniform(5000.0, 30000.0);
      fix.vortex.holland_b = rng.uniform(0.9, 2.4);
      fixes.push_back(fix);
    }
    ASSERT_NO_FATAL_FAILURE(expect_envelope_matches_reference(
        engine, storm::StormTrack(fixes),
        "random track " + std::to_string(trial)));
  }

  // A cut must also hold for every node of its tile, up to R closer to the
  // run than the tile's center. With pressure-only physics the WSE is the
  // deficit alone, which the direction-free tail bound meets exactly. A
  // wide storm on a tile lifts the whole tile to the deficit a deep storm
  // has at D - R/2; that storm then parks D away, toward the tile's rim
  // node, with D swept in steps of R/4. Only the rim half of the tile can
  // still rise, and a bound read at a radius above D - R would miss it.
  RealizationConfig config;
  config.surge.wind_setup_scale_m = 0.0;
  config.surge.wave_setup_per_ms = 0.0;
  const RealizationEngine pressure_only(oahu(), oahu_assets(), config);
  const surge::MeshBindings& bindings = pressure_only.bindings();
  const surge::EnvelopeTile& tile = bindings.tiles().front();
  geo::Vec2 rim = tile.center;
  for (std::uint32_t k = tile.begin; k < tile.end; ++k) {
    const geo::Vec2 p = pressure_only.coastal_mesh()
                            .mesh.node(bindings.active_nodes()[k])
                            .position;
    if (geo::distance(p, tile.center) > geo::distance(rim, tile.center)) {
      rim = p;
    }
  }
  const geo::Vec2 toward =
      (rim - tile.center) / geo::distance(rim, tile.center);
  storm::VortexParams deep;
  deep.central_pressure_pa = deep.ambient_pressure_pa - 8000.0;
  deep.rmax_m = 50000.0;
  for (double d = 60000.0; d <= 300000.0; d += tile.radius_m / 4.0) {
    std::vector<storm::TrackPoint> fixes(3);
    fixes[0].center = proj.to_geo(tile.center);
    fixes[0].vortex = deep;
    fixes[0].vortex.central_pressure_pa =
        storm::holland_pressure(deep, d - tile.radius_m / 2.0);
    fixes[0].vortex.rmax_m = 500000.0;
    for (int f = 1; f < 3; ++f) {
      fixes[f].center = proj.to_geo(tile.center + toward * d);
      fixes[f].vortex = deep;
    }
    for (int f = 0; f < 3; ++f) fixes[f].time_s = config.surge.dt_s * f;
    ASSERT_NO_FATAL_FAILURE(expect_envelope_matches_reference(
        pressure_only, storm::StormTrack(fixes),
        "parked at " + std::to_string(d)));
  }
}

TEST(Fastpath, EnvelopePruningStaysUnderItsCountGates) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const RealizationConfig& config = engine.config();
  const storm::TrackGenerator generator(config.ensemble);
  const geo::EnuProjection& proj = engine.terrain().projection();
  geo::BBox box;
  for (const mesh::Node& node : engine.coastal_mesh().mesh.nodes()) {
    box.expand(node.position);
  }
  const double far_skip_m = std::max(box.width(), box.height()) / 2.0 +
                            config.surge.max_considered_distance_m;
  const std::uint64_t tiles = engine.bindings().tiles().size();

  mesh::NodeField envelope;
  std::uint64_t steps = 0;
  std::uint64_t evals = 0;
  std::uint64_t tile_steps = 0;
  std::uint64_t tile_bounds = 0;
  for (std::uint64_t i = 0; i < kEnvelopeRealizations; ++i) {
    const storm::StormTrack track = generator.generate(config.base_seed, i);
    const surge::EnvelopeWork work =
        engine.bindings().accumulate_envelope(track, proj, envelope);
    // node_steps is the unpruned count: active nodes x in-range steps.
    std::uint64_t in_range = 0;
    for (double t = track.start_time(); t <= track.end_time();
         t += config.surge.dt_s) {
      const geo::Vec2 c = proj.to_enu(track.state_at(t, proj).center);
      if (geo::distance(c, box.center()) <= far_skip_m) ++in_range;
    }
    ASSERT_EQ(work.node_steps,
              in_range * engine.bindings().active_nodes().size())
        << "realization " << i;
    ASSERT_LE(work.node_evals, work.node_steps) << "realization " << i;
    ASSERT_LE(work.tile_bounds, in_range * tiles) << "realization " << i;
    steps += work.node_steps;
    evals += work.node_evals;
    tile_steps += in_range * tiles;
    tile_bounds += work.tile_bounds;
  }
  ASSERT_GT(steps, 0u);
  // Counts, not timings: a loosened bound or a lost tail cut fails here.
  EXPECT_LE(static_cast<double>(evals) / static_cast<double>(steps), 0.13)
      << evals << " of " << steps << " node-steps evaluated";
  EXPECT_LE(static_cast<double>(tile_bounds) / static_cast<double>(tile_steps),
            0.6)
      << tile_bounds << " of " << tile_steps << " tile-steps bounded";
}

/// The WSE the reference solver (SurgeSolver::instantaneous) gives at
/// `point` for a node with onshore direction `onshore` and depth floor
/// `depth`.
double reference_wse(const surge::SurgeConfig& surge,
                     const storm::StormState& state, geo::Vec2 center,
                     geo::Vec2 point, geo::Vec2 onshore, double depth) {
  const storm::WindSample w = storm::HollandWindField(surge.wind_options)
                                  .sample(state.vortex, center,
                                          state.translation_ms, point);
  const double u_on = std::max(0.0, w.velocity_ms.dot(onshore));
  const double eta_wind =
      surge.wind_setup_scale_m * u_on *
      std::pow(w.speed_ms, surge.wind_setup_exponent - 1.0) /
      (surge::kGravity * depth);
  const double eta_pressure =
      std::max(0.0, state.vortex.ambient_pressure_pa - w.pressure_pa) /
      (surge::kWaterDensity * surge::kGravity);
  const double eta_wave = surge.wave_setup_per_ms * u_on;
  return eta_wind + eta_pressure + eta_wave;
}

TEST(Fastpath, EnvelopeBoundHoldsForRandomStormsAndSurgePhysics) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const mesh::CoastalMesh& cm = engine.coastal_mesh();
  const surge::MeshBindings& bindings = engine.bindings();
  const std::vector<surge::EnvelopeTile>& tiles = bindings.tiles();
  const geo::EnuProjection& proj = engine.terrain().projection();
  geo::BBox box;
  for (const mesh::Node& node : cm.mesh.nodes()) box.expand(node.position);

  util::Rng rng(20221013, "envelope-bound");
  const auto point_in_disk = [&](geo::Vec2 center, double radius) {
    const double bearing = rng.uniform(0.0, 2.0 * 3.141592653589793);
    return center + geo::Vec2{std::cos(bearing), std::sin(bearing)} *
                        (radius * std::sqrt(rng.uniform(0.0, 1.0)));
  };
  std::size_t bounded_tiles = 0;
  std::size_t straddle_rmax = 0;
  std::size_t inside_rmax = 0;
  std::size_t hold_center = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Physics inside the bound's preconditions, from gentle to extreme.
    surge::SurgeConfig surge;
    surge.wind_setup_exponent = rng.uniform(1.0, 5.0);
    surge.wind_setup_scale_m = rng.uniform(0.0, 2.0e-3);
    surge.wave_setup_per_ms = rng.uniform(0.0, 0.02);
    surge.min_depth_m = rng.uniform(0.1, 5.0);
    surge.wind_options.surface_wind_factor = rng.uniform(0.0, 1.2);
    surge.wind_options.inflow_angle_deg = rng.uniform(-60.0, 60.0);
    surge.wind_options.translation_fraction = rng.uniform(0.0, 1.5);

    storm::StormState state;
    state.vortex.ambient_pressure_pa = rng.uniform(100500.0, 102000.0);
    state.vortex.central_pressure_pa = rng.uniform(90000.0, 100500.0);
    state.vortex.rmax_m = rng.uniform(5000.0, 120000.0);
    state.vortex.holland_b = rng.uniform(0.8, 2.5);
    state.vortex.latitude_deg = rng.uniform(5.0, 35.0);
    // Every fourth storm sits on a tile: inside its disk, or exactly on its
    // center, so some disks hold the storm center.
    geo::Vec2 center_enu;
    if (trial % 4 == 0) {
      const surge::EnvelopeTile& tile =
          tiles[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                         static_cast<double>(tiles.size())) %
                tiles.size()];
      center_enu = trial % 8 == 0 ? tile.center
                                  : point_in_disk(tile.center, tile.radius_m);
    } else {
      const double bearing = rng.uniform(0.0, 2.0 * 3.141592653589793);
      const double range_m = rng.uniform(0.0, 400000.0);
      center_enu = box.center() +
                   geo::Vec2{std::cos(bearing), std::sin(bearing)} * range_m;
    }
    state.center = proj.to_geo(center_enu);
    state.translation_ms = {rng.uniform(-15.0, 15.0),
                            rng.uniform(-15.0, 15.0)};

    // The reference field the envelope maxes over.
    const mesh::NodeField wse =
        surge::SurgeSolver(surge).instantaneous(cm, state, proj);
    const geo::Vec2 center = proj.to_enu(state.center);
    const storm::StormStepKernel kernel(surge.wind_options, state.vortex,
                                        center, state.translation_ms);
    for (const surge::EnvelopeTile& tile : tiles) {
      const std::optional<surge::EnvelopeBound> bound =
          surge::envelope_bound(surge, kernel,
                                state.vortex.ambient_pressure_pa,
                                tile.center, tile.radius_m);
      if (!bound) continue;
      ++bounded_tiles;
      const double d = geo::distance(tile.center, center);
      const double rmax = state.vortex.rmax_m;
      if (d <= tile.radius_m) {
        ++hold_center;
      } else if (d + tile.radius_m <= rmax) {
        ++inside_rmax;
      } else if (d - tile.radius_m < rmax) {
        ++straddle_rmax;
      }
      // At the nodes, and at sampled points of the disk (the point nearest
      // the storm among them) with each node's onshore direction and depth.
      std::vector<geo::Vec2> points;
      if (d > tile.radius_m) {
        points.push_back(tile.center +
                         (center - tile.center) * (tile.radius_m / d));
      }
      for (int p = 0; p < 4; ++p) {
        points.push_back(point_in_disk(tile.center, tile.radius_m));
      }
      // The tile's columns run over its nodes in order, and every node of
      // a column has the column's onshore direction.
      std::uint32_t k = tile.begin;
      for (std::uint32_t c = tile.column_begin; c < tile.column_end; ++c) {
        const surge::EnvelopeColumn& column = bindings.columns()[c];
        ASSERT_EQ(column.begin, k);
        for (; k < column.end; ++k) {
          const mesh::NodeId node = bindings.active_nodes()[k];
          const geo::Vec2 onshore = column.onshore;
          ASSERT_EQ(onshore,
                    cm.stations[cm.station_of_node[node]].outward_normal *
                        -1.0);
          const double depth =
              std::max(surge.min_depth_m, -cm.mesh.node(node).elevation_m);
          const double limit = bound->at(onshore, surge::kGravity * depth);
          ASSERT_EQ(bits(wse[node]),
                    bits(reference_wse(surge, state, center,
                                       cm.mesh.node(node).position, onshore,
                                       depth)))
              << "trial " << trial << " node " << node;
          ASSERT_LE(wse[node], limit)
              << "trial " << trial << " node " << node;
          for (const geo::Vec2 point : points) {
            ASSERT_LE(
                reference_wse(surge, state, center, point, onshore, depth),
                limit)
                << "trial " << trial << " node " << node << " point "
                << point.x << "," << point.y;
          }
        }
      }
      ASSERT_EQ(k, tile.end);
    }
  }
  EXPECT_GT(bounded_tiles, 1000u);
  EXPECT_GT(straddle_rmax, 0u);
  EXPECT_GT(inside_rmax, 0u);
  EXPECT_GT(hold_center, 0u);

  // The eyewall is bounded too: this disk reaches inside Rmax = 40 km.
  const surge::SurgeConfig physics;
  const storm::StormStepKernel kernel(physics.wind_options,
                                      storm::VortexParams{}, {0.0, 0.0},
                                      {5.0, 0.0});
  storm::StormState state;
  state.translation_ms = {5.0, 0.0};
  const geo::Vec2 eyewall_disk{50000.0, 0.0};
  const std::optional<surge::EnvelopeBound> eyewall = surge::envelope_bound(
      physics, kernel, 101000.0, eyewall_disk, 20000.0);
  ASSERT_TRUE(eyewall) << "the disk reaches inside Rmax";
  for (int p = 0; p < 2000; ++p) {
    const geo::Vec2 point = p == 0 ? geo::Vec2{40000.0, 0.0}
                                   : point_in_disk(eyewall_disk, 20000.0);
    const double bearing = rng.uniform(0.0, 2.0 * 3.141592653589793);
    const geo::Vec2 onshore{std::cos(bearing), std::sin(bearing)};
    const double depth = rng.uniform(physics.min_depth_m, 20.0);
    ASSERT_LE(reference_wse(physics, state, {0.0, 0.0}, point, onshore, depth),
              eyewall->at(onshore, surge::kGravity * depth))
        << "point " << point.x << "," << point.y;
  }

  // Outside its preconditions the bound is off, so the kernel evaluates.
  const geo::Vec2 far{300000.0, 0.0};
  EXPECT_TRUE(surge::envelope_bound({}, kernel, 101000.0, far, 4000.0));
  surge::SurgeConfig off;
  off.wind_setup_exponent = 0.5;
  EXPECT_FALSE(surge::envelope_bound(off, kernel, 101000.0, far, 4000.0));
  off = {};
  off.wind_setup_scale_m = -1.0e-4;
  EXPECT_FALSE(surge::envelope_bound(off, kernel, 101000.0, far, 4000.0));
  off = {};
  off.wave_setup_per_ms = -0.001;
  EXPECT_FALSE(surge::envelope_bound(off, kernel, 101000.0, far, 4000.0));
  for (const auto& options :
       {storm::WindFieldOptions{-0.9, 20.0, 0.5},
        storm::WindFieldOptions{0.9, 20.0, -0.5}}) {
    const storm::StormStepKernel negative(options, storm::VortexParams{},
                                          {0.0, 0.0}, {5.0, 0.0});
    EXPECT_FALSE(surge::envelope_bound({}, negative, 101000.0, far, 4000.0));
  }
}

// --------------------------------- outcome distributions, 5 configs, jobs

TEST(Fastpath, OutcomeDistributionsBitIdenticalForPaperConfigsAtJobs1And8) {
  constexpr std::size_t kCount = 40;
  const RealizationEngine engine(oahu(), oahu_assets(), {});

  // Legacy ensemble via the reference path; the fast one as the runner's
  // mask sweep (which routes through run()).
  std::vector<HurricaneRealization> legacy;
  legacy.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    legacy.push_back(engine.run_reference(static_cast<std::uint64_t>(i)));
  }

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  ASSERT_EQ(configs.size(), 5u);
  const core::AnalysisPipeline pipeline;

  for (const unsigned jobs : {1u, 8u}) {
    runtime::EnsembleOptions options;
    options.jobs = jobs;
    options.cache = false;
    options.fault_spec = "none";
    runtime::EnsembleRunner runner(options);
    std::vector<HurricaneRealization> pooled(kCount);
    runner.pool().parallel_for_each(kCount, 1, [&](std::size_t i) {
      pooled[i] = engine.run(i);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      expect_bit_identical(pooled[i], legacy[i],
                           "jobs" + std::to_string(jobs) + "[" +
                               std::to_string(i) + "]");
    }
    runtime::SweepSpec spec;
    spec.count = kCount;
    const runtime::FailureMasks masks =
        runner.run_resumable(engine, spec, runtime::CheckpointOptions{}).masks;
    ASSERT_EQ(masks.size(), legacy.size());
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(masks.indices[i], legacy[i].index);
      for (std::size_t a = 0; a < legacy[i].impacts.size(); ++a) {
        EXPECT_EQ(masks.test(i, a), legacy[i].impacts[a].failed)
            << "jobs" << jobs << "[" << i << "] asset " << a;
      }
    }

    for (const scada::Configuration& config : configs) {
      const std::vector<std::size_t> counts =
          core::SitePatterns(config, masks).counts();
      for (const threat::ThreatScenario scenario :
           {threat::ThreatScenario::kHurricane,
            threat::ThreatScenario::kHurricaneIntrusionIsolation}) {
        const core::ScenarioResult from_fast =
            pipeline.fold(config, scenario, masks, counts);
        const core::ScenarioResult from_legacy =
            pipeline.analyze(config, scenario, legacy);
        ASSERT_EQ(from_fast.outcomes.total(), from_legacy.outcomes.total());
        for (const threat::OperationalState s :
             {threat::OperationalState::kGreen,
              threat::OperationalState::kOrange,
              threat::OperationalState::kRed,
              threat::OperationalState::kGray}) {
          EXPECT_EQ(from_fast.outcomes.count(s), from_legacy.outcomes.count(s))
              << config.name << " jobs=" << jobs;
        }
      }
    }
  }
}

// ------------------------------------------------ digest / invalidation

/// An engine's stage digests and its engine-batch digest at count 0, where
/// digest_engine_batch skips its probe realization: every knob must reach
/// the key through the stage digests alone, since a served warm request
/// reuses one probe per case study.
struct EngineKeys {
  std::string storm;
  std::string bind;
  std::string batch;
};

EngineKeys engine_keys(const RealizationConfig& config,
                       std::shared_ptr<const terrain::Terrain> terrain) {
  const RealizationEngine engine(std::move(terrain), oahu_assets(), config);
  runtime::EnsembleOptions options;
  options.jobs = 1;
  runtime::EnsembleRunner runner(options);
  return {engine.storm_digest(), engine.bind_digest(),
          runner.digest_engine_batch(engine, 0)};
}

std::string engine_digest(const RealizationConfig& config,
                          std::shared_ptr<const terrain::Terrain> terrain) {
  return engine_keys(config, std::move(terrain)).batch;
}

/// The realization stage that reads a RealizationConfig field.
enum class Stage { kStorm, kBind };

/// One field of RealizationConfig, moved off its default.
struct ConfigKnob {
  const char* name;
  Stage stage;
  void (*perturb)(RealizationConfig&);
};

constexpr Stage kStorm = Stage::kStorm;
constexpr Stage kBind = Stage::kBind;

// Every one of RealizationConfig's 50 fields: mesh 4, surge 6 + wind
// options 3, inundation 2, ensemble 19, harbor 5, fragility 6, top level 5,
// each tagged with the stage that reads it (40 storm, 10 bind). A field
// added to RealizationConfig belongs here and in surge/realization.cpp's
// digest_storm_fields or digest_bind_fields.
const ConfigKnob kConfigKnobs[] = {
    {"mesh.shore_spacing_m", kStorm,
     [](RealizationConfig& c) { c.mesh.shore_spacing_m = 2500.0; }},
    {"mesh.cross_shore_spacing_m", kStorm,
     [](RealizationConfig& c) { c.mesh.cross_shore_spacing_m = 900.0; }},
    {"mesh.offshore_extent_m", kStorm,
     [](RealizationConfig& c) { c.mesh.offshore_extent_m = 9000.0; }},
    {"mesh.inland_extent_m", kStorm,
     [](RealizationConfig& c) { c.mesh.inland_extent_m = 2000.0; }},
    {"surge.dt_s", kStorm, [](RealizationConfig& c) { c.surge.dt_s = 1200.0; }},
    {"surge.wind_setup_scale_m", kStorm,
     [](RealizationConfig& c) { c.surge.wind_setup_scale_m = 9.0e-4; }},
    {"surge.wind_setup_exponent", kStorm,
     [](RealizationConfig& c) { c.surge.wind_setup_exponent = 2.5; }},
    {"surge.wave_setup_per_ms", kStorm,
     [](RealizationConfig& c) { c.surge.wave_setup_per_ms = 0.007; }},
    {"surge.min_depth_m", kStorm,
     [](RealizationConfig& c) { c.surge.min_depth_m = 3.0; }},
    {"surge.max_considered_distance_m", kStorm,
     [](RealizationConfig& c) {
       c.surge.max_considered_distance_m = 300000.0;
     }},
    {"surge.wind_options.surface_wind_factor", kStorm,
     [](RealizationConfig& c) {
       c.surge.wind_options.surface_wind_factor = 0.85;
     }},
    {"surge.wind_options.inflow_angle_deg", kStorm,
     [](RealizationConfig& c) {
       c.surge.wind_options.inflow_angle_deg = 25.0;
     }},
    {"surge.wind_options.translation_fraction", kStorm,
     [](RealizationConfig& c) {
       c.surge.wind_options.translation_fraction = 0.6;
     }},
    {"inundation.decay_length_m", kBind,
     [](RealizationConfig& c) { c.inundation.decay_length_m = 2500.0; }},
    {"inundation.failure_threshold_m", kBind,
     [](RealizationConfig& c) { c.inundation.failure_threshold_m = 0.6; }},
    {"ensemble.base_aim.lat_deg", kStorm,
     [](RealizationConfig& c) { c.ensemble.base_aim.lat_deg = 21.3; }},
    {"ensemble.base_aim.lon_deg", kStorm,
     [](RealizationConfig& c) { c.ensemble.base_aim.lon_deg = -158.1; }},
    {"ensemble.base_heading_deg", kStorm,
     [](RealizationConfig& c) { c.ensemble.base_heading_deg = 330.0; }},
    {"ensemble.approach_distance_m", kStorm,
     [](RealizationConfig& c) { c.ensemble.approach_distance_m = 450000.0; }},
    {"ensemble.departure_distance_m", kStorm,
     [](RealizationConfig& c) { c.ensemble.departure_distance_m = 350000.0; }},
    {"ensemble.forward_speed_ms", kStorm,
     [](RealizationConfig& c) { c.ensemble.forward_speed_ms = 6.5; }},
    {"ensemble.forward_speed_jitter_ms", kStorm,
     [](RealizationConfig& c) { c.ensemble.forward_speed_jitter_ms = 1.0; }},
    {"ensemble.cross_track_sigma_m", kStorm,
     [](RealizationConfig& c) { c.ensemble.cross_track_sigma_m = 40000.0; }},
    {"ensemble.heading_sigma_deg", kStorm,
     [](RealizationConfig& c) { c.ensemble.heading_sigma_deg = 5.0; }},
    {"ensemble.pressure_deficit_pa", kStorm,
     [](RealizationConfig& c) { c.ensemble.pressure_deficit_pa = 4500.0; }},
    {"ensemble.pressure_deficit_sigma_pa", kStorm,
     [](RealizationConfig& c) {
       c.ensemble.pressure_deficit_sigma_pa = 600.0;
     }},
    {"ensemble.rmax_m", kStorm,
     [](RealizationConfig& c) { c.ensemble.rmax_m = 47000.0; }},
    {"ensemble.rmax_sigma_m", kStorm,
     [](RealizationConfig& c) { c.ensemble.rmax_sigma_m = 6000.0; }},
    {"ensemble.rmax_min_m", kStorm,
     [](RealizationConfig& c) { c.ensemble.rmax_min_m = 30000.0; }},
    {"ensemble.rmax_max_m", kStorm,
     [](RealizationConfig& c) { c.ensemble.rmax_max_m = 65000.0; }},
    {"ensemble.holland_b", kStorm,
     [](RealizationConfig& c) { c.ensemble.holland_b = 1.4; }},
    {"ensemble.holland_b_sigma", kStorm,
     [](RealizationConfig& c) { c.ensemble.holland_b_sigma = 0.15; }},
    {"ensemble.fix_interval_s", kStorm,
     [](RealizationConfig& c) { c.ensemble.fix_interval_s = 1800.0; }},
    {"ensemble.ambient_pressure_pa", kStorm,
     [](RealizationConfig& c) { c.ensemble.ambient_pressure_pa = 101300.0; }},
    {"harbor.enabled", kStorm,
     [](RealizationConfig& c) { c.harbor.enabled = false; }},
    {"harbor.ray_length_m", kStorm,
     [](RealizationConfig& c) { c.harbor.ray_length_m = 7000.0; }},
    {"harbor.ray_step_m", kStorm,
     [](RealizationConfig& c) { c.harbor.ray_step_m = 120.0; }},
    {"harbor.ray_clearance_m", kStorm,
     [](RealizationConfig& c) { c.harbor.ray_clearance_m = 300.0; }},
    {"harbor.amplification", kBind,
     [](RealizationConfig& c) { c.harbor.amplification = 1.1; }},
    {"fragility.enabled", kBind,
     [](RealizationConfig& c) { c.fragility.enabled = true; }},
    {"fragility.substation.median_wind_ms", kBind,
     [](RealizationConfig& c) {
       c.fragility.substation.median_wind_ms = 50.0;
     }},
    {"fragility.substation.beta", kBind,
     [](RealizationConfig& c) { c.fragility.substation.beta = 0.3; }},
    {"fragility.power_plant.median_wind_ms", kBind,
     [](RealizationConfig& c) {
       c.fragility.power_plant.median_wind_ms = 65.0;
     }},
    {"fragility.power_plant.beta", kBind,
     [](RealizationConfig& c) { c.fragility.power_plant.beta = 0.3; }},
    {"fragility.scan_dt_s", kBind,
     [](RealizationConfig& c) { c.fragility.scan_dt_s = 900.0; }},
    {"smoothing_band_m", kStorm,
     [](RealizationConfig& c) { c.smoothing_band_m = 1000.0; }},
    {"smoothing_passes", kStorm,
     [](RealizationConfig& c) { c.smoothing_passes = 1; }},
    {"alongshore_window", kStorm,
     [](RealizationConfig& c) { c.alongshore_window = 6; }},
    {"sea_level_offset_m", kBind,
     [](RealizationConfig& c) { c.sea_level_offset_m = 0.25; }},
    {"base_seed", kStorm, [](RealizationConfig& c) { c.base_seed += 1; }},
};

/// A runner for the shared-stage checks: `jobs` workers, no cache (so no
/// storm memo) and no injected faults.
runtime::EnsembleRunner plain_runner(unsigned jobs) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.cache = false;
  options.fault_spec = "none";
  return runtime::EnsembleRunner(options);
}

/// Oahu's terrain renamed and with its shoreline 0.4 m higher.
std::shared_ptr<const terrain::Terrain> shifted_island() {
  terrain::IslandParams params = terrain::oahu_params();
  params.name = "shifted island";
  params.shore_elevation_m += 0.4;
  return std::make_shared<const terrain::SyntheticIslandTerrain>(params);
}

TEST(Fastpath, EngineBatchDigestInvalidatesOnEveryPrecomputeKnob) {
  ASSERT_EQ(std::size(kConfigKnobs), 50u);
  const EngineKeys baseline = engine_keys({}, oahu());
  const EngineKeys again = engine_keys({}, oahu());
  EXPECT_EQ(again.storm, baseline.storm);
  EXPECT_EQ(again.bind, baseline.bind);
  EXPECT_EQ(again.batch, baseline.batch)
      << "identical configs must share the cache key";
  // The storm stage splits the same way: from one runner, a bind knob gets
  // the baseline's stage object and a storm knob a new one.
  runtime::EnsembleRunner stages = plain_runner(1);
  const std::shared_ptr<const surge::StormStage> baseline_stage =
      stages.storm_stage(oahu(), {});
  std::size_t storm_knobs = 0;
  for (const ConfigKnob& knob : kConfigKnobs) {
    RealizationConfig config;
    knob.perturb(config);
    const EngineKeys keys = engine_keys(config, oahu());
    EXPECT_NE(keys.batch, baseline.batch) << knob.name;
    // Each knob moves exactly its own stage's digest: a storm knob must
    // give the memo a new storm, a bind knob must reuse the old one.
    const std::shared_ptr<const surge::StormStage> stage =
        stages.storm_stage(oahu(), config);
    if (knob.stage == kStorm) {
      ++storm_knobs;
      EXPECT_NE(keys.storm, baseline.storm) << knob.name;
      EXPECT_EQ(keys.bind, baseline.bind) << knob.name;
      EXPECT_NE(stage, baseline_stage) << knob.name;
    } else {
      EXPECT_EQ(keys.storm, baseline.storm) << knob.name;
      EXPECT_NE(keys.bind, baseline.bind) << knob.name;
      EXPECT_EQ(stage, baseline_stage) << knob.name;
    }
  }
  EXPECT_EQ(storm_knobs, 40u);
  // Another terrain is another storm side. (The asset list never reaches
  // the stage key: SharedStageBindsEveryVariantLikeAPrivateEngine binds a
  // reversed list over the baseline's stage.)
  EXPECT_NE(stages.storm_stage(shifted_island(), {}), baseline_stage);
}

/// Every bind-side variant (each bind knob, and the reversed asset list)
/// bound over the baseline's shared stage runs a privately built engine's
/// bits: run(i) over 64 realizations, and the mask table at jobs 1 and 8.
TEST(Fastpath, SharedStageBindsEveryVariantLikeAPrivateEngine) {
  constexpr std::size_t kCount = 64;
  struct Variant {
    std::string name;
    RealizationConfig config;
    std::vector<surge::ExposedAsset> assets;
  };
  std::vector<Variant> variants;
  for (const ConfigKnob& knob : kConfigKnobs) {
    if (knob.stage != kBind) continue;
    RealizationConfig config;
    knob.perturb(config);
    variants.push_back({knob.name, config, oahu_assets()});
  }
  ASSERT_EQ(variants.size(), 10u);
  std::vector<surge::ExposedAsset> reversed = oahu_assets();
  std::reverse(reversed.begin(), reversed.end());
  variants.push_back({"reversed assets", {}, reversed});

  runtime::EnsembleRunner serial = plain_runner(1);
  runtime::EnsembleRunner pooled = plain_runner(8);
  const std::shared_ptr<const surge::StormStage> stage =
      pooled.storm_stage(oahu(), {});
  for (const Variant& v : variants) {
    const RealizationEngine shared(pooled.storm_stage(oahu(), v.config),
                                   v.assets, v.config);
    ASSERT_EQ(&shared.stage(), stage.get()) << v.name;
    const RealizationEngine own(oahu(), v.assets, v.config);
    std::vector<HurricaneRealization> got(kCount);
    std::vector<HurricaneRealization> want(kCount);
    pooled.pool().parallel_for_each(kCount, 1, [&](std::size_t i) {
      got[i] = shared.run(i);
      want[i] = own.run(i);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      expect_bit_identical(got[i], want[i],
                           v.name + " [" + std::to_string(i) + "]");
    }
    runtime::SweepSpec spec;
    spec.count = kCount;
    for (runtime::EnsembleRunner* runner : {&serial, &pooled}) {
      const runtime::FailureMasks masks =
          runner->run_resumable(shared, spec, {}).masks;
      ASSERT_EQ(masks.size(), kCount) << v.name;
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(masks.indices[i], i) << v.name;
        for (std::size_t a = 0; a < want[i].impacts.size(); ++a) {
          EXPECT_EQ(masks.test(i, a), want[i].impacts[a].failed)
              << v.name << " jobs " << runner->options().jobs << " [" << i
              << "] asset " << a;
        }
      }
    }
  }
}

TEST(Fastpath, EngineBatchDigestDistinguishesTerrains) {
  EXPECT_NE(engine_digest({}, shifted_island()), engine_digest({}, oahu()));
}

TEST(Fastpath, TerrainDigestSeparatesNameAndElevation) {
  util::Digest base;
  terrain::digest_terrain(*oahu(), base);

  terrain::IslandParams renamed = terrain::oahu_params();
  renamed.name = "renamed";
  util::Digest d1;
  terrain::digest_terrain(terrain::SyntheticIslandTerrain(renamed), d1);
  EXPECT_NE(d1.hex(), base.hex());

  terrain::IslandParams steeper = terrain::oahu_params();
  steeper.plain_slope *= 2.0;
  util::Digest d2;
  terrain::digest_terrain(terrain::SyntheticIslandTerrain(steeper), d2);
  EXPECT_NE(d2.hex(), base.hex());

  util::Digest again;
  terrain::digest_terrain(*oahu(), again);
  EXPECT_EQ(again.hex(), base.hex());
}

TEST(Fastpath, IdenticalEnginesShareTheDiskCacheAcrossInstances) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "ct_fastpath_cache_test";
  std::filesystem::remove_all(dir);

  core::CaseStudyOptions options;
  options.realizations = 8;
  options.runtime.jobs = 1;
  options.runtime.disk_cache = true;
  options.runtime.cache_dir = dir.string();
  options.runtime.fault_spec = "none";
  const scada::Configuration config = scada::make_config_2(
      scada::oahu_ids::kHonoluluCc);
  const auto scenario = threat::ThreatScenario::kHurricane;

  std::string first_key;
  {
    core::CaseStudyRunner runner = core::make_oahu_case_study(options);
    first_key = runner.runtime().digest_engine_batch(runner.engine(), 8);
    EXPECT_TRUE(runner.run_all_resumable({config}, {scenario}, {}).swept);
  }
  {
    // A separate engine instance with an identical config must produce the
    // same key and be served from the on-disk cache, sweeping nothing.
    core::CaseStudyRunner runner = core::make_oahu_case_study(options);
    EXPECT_EQ(runner.runtime().digest_engine_batch(runner.engine(), 8),
              first_key);
    EXPECT_FALSE(runner.run_all_resumable({config}, {scenario}, {}).swept)
        << "a disk hit must not sweep the masks";
    EXPECT_EQ(runner.runtime().cache_stats().disk_hits, 1u);
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- asset-index path

TEST(Fastpath, AssetIndexAcceleratesLookupsWithIdenticalSemantics) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const HurricaneRealization r = engine.run(2);
  ASSERT_NE(r.asset_index, nullptr);
  EXPECT_EQ(r.asset_index->size(), engine.assets().size());

  HurricaneRealization scan = r;
  scan.asset_index.reset();  // force the legacy linear scan
  for (const surge::ExposedAsset& asset : engine.assets()) {
    EXPECT_EQ(r.asset_failed(asset.id), scan.asset_failed(asset.id));
    EXPECT_EQ(bits(r.asset_depth(asset.id)), bits(scan.asset_depth(asset.id)));
    EXPECT_EQ(r.asset_wind_failed(asset.id),
              scan.asset_wind_failed(asset.id));
  }
  EXPECT_FALSE(r.asset_failed("no-such-asset"));
  EXPECT_DOUBLE_EQ(r.asset_depth("no-such-asset"), 0.0);
}

TEST(Fastpath, AssetIndexFallsBackWhenImpactsAreFiltered) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  HurricaneRealization r = engine.run(0);
  ASSERT_GE(r.impacts.size(), 2u);
  // Simulate user code that filtered the impacts vector: the stale index
  // no longer matches positions, so lookups must verify and fall back.
  r.impacts.erase(r.impacts.begin());
  const std::string& id = r.impacts.front().asset_id;
  EXPECT_EQ(r.asset_failed(id), r.impacts.front().failed);
  EXPECT_EQ(bits(r.asset_depth(id)),
            bits(r.impacts.front().inundation_depth_m));
}

// ------------------------------------------------------- bindings shape

TEST(Fastpath, BindingsExposeActiveSubsetAndStencils) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const surge::MeshBindings& b = engine.bindings();

  const std::size_t nodes = engine.coastal_mesh().mesh.node_count();
  EXPECT_GT(b.active_nodes().size(), 0u);
  EXPECT_LT(b.active_nodes().size(), nodes)
      << "the active set must be a strict subset for the default band";
  for (std::size_t k = 1; k < b.active_nodes().size(); ++k) {
    EXPECT_LT(b.active_nodes()[k - 1], b.active_nodes()[k]);
  }

  ASSERT_EQ(b.stencils().size(), engine.assets().size());
  // The frozen station binding must agree with the live mapper query.
  const geo::EnuProjection& proj = engine.terrain().projection();
  const surge::InundationMapper mapper(engine.coastal_mesh(), proj);
  for (std::size_t a = 0; a < b.stencils().size(); ++a) {
    EXPECT_EQ(b.stencils()[a].station,
              mapper.nearest_station(proj.to_enu(engine.assets()[a].location)));
  }
}

}  // namespace
}  // namespace ct
