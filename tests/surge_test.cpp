// Tests for the surge solver, inundation mapping, harbor treatment, and
// the realization engine (fast cases; statistical calibration lives in
// calibration_test.cpp).
#include <cmath>

#include <gtest/gtest.h>

#include "runtime/ensemble_runner.h"
#include "scada/oahu.h"
#include "surge/harbor.h"
#include "surge/inundation.h"
#include "surge/realization.h"
#include "surge/surge_model.h"
#include "terrain/oahu.h"

namespace ct::surge {
namespace {

/// Shared slow fixtures: one coastal mesh + one engine for all tests.
class SurgeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    terrain_ = terrain::make_oahu_terrain().release();
    cm_ = new mesh::CoastalMesh(
        mesh::build_coastal_mesh(*terrain_, mesh::CoastalMeshConfig{}));
  }
  static void TearDownTestSuite() {
    delete cm_;
    delete terrain_;
  }

  static const terrain::Terrain* terrain_;
  static const mesh::CoastalMesh* cm_;
};

const terrain::Terrain* SurgeFixture::terrain_ = nullptr;
const mesh::CoastalMesh* SurgeFixture::cm_ = nullptr;

storm::StormTrack direct_hit_track() {
  // Straight south-to-north track over the island's west side.
  std::vector<storm::TrackPoint> fixes;
  for (int i = 0; i <= 24; ++i) {
    storm::TrackPoint p;
    p.time_s = i * 3600.0;
    p.center = {19.5 + 0.125 * i, -158.1};
    p.vortex.central_pressure_pa = 96800.0;
    p.vortex.rmax_m = 40000.0;
    p.vortex.holland_b = 1.35;
    p.vortex.latitude_deg = p.center.lat_deg;
    fixes.push_back(p);
  }
  return storm::StormTrack(std::move(fixes));
}

TEST_F(SurgeFixture, DirectHitProducesRealisticSurge) {
  const SurgeSolver solver;
  const mesh::NodeField envelope =
      solver.max_envelope(*cm_, direct_hit_track(), terrain_->projection());
  const double peak = mesh::field_max(envelope);
  // A CAT-2 passing over the island should raise 1-4 m somewhere.
  EXPECT_GT(peak, 1.0);
  EXPECT_LT(peak, 5.0);
  EXPECT_GE(mesh::field_min(envelope), 0.0);
}

TEST_F(SurgeFixture, EnvelopeDominatesInstantaneous) {
  const SurgeSolver solver;
  const storm::StormTrack track = direct_hit_track();
  const auto& proj = terrain_->projection();
  const mesh::NodeField envelope = solver.max_envelope(*cm_, track, proj);
  for (const double t : {6.0 * 3600.0, 12.0 * 3600.0, 18.0 * 3600.0}) {
    const mesh::NodeField instant =
        solver.instantaneous(*cm_, track.state_at(t, proj), proj);
    for (std::size_t i = 0; i < envelope.size(); i += 37) {
      EXPECT_GE(envelope[i], instant[i] - 1e-9);
    }
  }
}

TEST_F(SurgeFixture, FarAwayStormProducesNoSurge) {
  std::vector<storm::TrackPoint> fixes;
  for (int i = 0; i <= 5; ++i) {
    storm::TrackPoint p;
    p.time_s = i * 3600.0;
    p.center = {5.0, -140.0 + 0.1 * i};  // thousands of km away
    p.vortex = direct_hit_track().points().front().vortex;
    fixes.push_back(p);
  }
  const SurgeSolver solver;
  const mesh::NodeField envelope = solver.max_envelope(
      *cm_, storm::StormTrack(std::move(fixes)), terrain_->projection());
  EXPECT_DOUBLE_EQ(mesh::field_max(envelope), 0.0);  // skipped by distance cull
}

TEST_F(SurgeFixture, StrongerStormMoreSurge) {
  SurgeConfig config;
  const SurgeSolver solver(config);
  const auto& proj = terrain_->projection();
  storm::StormTrack weak = direct_hit_track();
  std::vector<storm::TrackPoint> strong_fixes = weak.points();
  for (auto& p : strong_fixes) p.vortex.central_pressure_pa = 95500.0;
  const storm::StormTrack strong(std::move(strong_fixes));
  EXPECT_GT(mesh::field_max(solver.max_envelope(*cm_, strong, proj)),
            mesh::field_max(solver.max_envelope(*cm_, weak, proj)));
}

// ---------------------------------------------------------------- inundation

TEST_F(SurgeFixture, InundationThresholdAndDecay) {
  const InundationMapper mapper(*cm_, terrain_->projection());
  std::vector<double> wse(cm_->stations.size(), 2.0);

  const ExposedAsset at_shore{"shore", terrain_->projection().to_geo(
                                            cm_->stations[0].position),
                              1.0};
  const AssetImpact shore_impact = mapper.impact(at_shore, wse);
  EXPECT_NEAR(shore_impact.water_level_m, 2.0, 0.05);
  EXPECT_NEAR(shore_impact.inundation_depth_m, 1.0, 0.05);
  EXPECT_TRUE(shore_impact.failed);

  // Same spot but 3 m pad elevation: dry.
  const ExposedAsset high{"high", at_shore.location, 3.0};
  const AssetImpact high_impact = mapper.impact(high, wse);
  EXPECT_DOUBLE_EQ(high_impact.inundation_depth_m, 0.0);
  EXPECT_FALSE(high_impact.failed);

  // An asset 3 km inland sees an attenuated water level.
  const geo::Vec2 inland_pos = cm_->stations[0].position -
                               cm_->stations[0].outward_normal * 3000.0;
  const ExposedAsset inland{"inland",
                            terrain_->projection().to_geo(inland_pos), 0.0};
  const AssetImpact inland_impact = mapper.impact(inland, wse);
  EXPECT_LT(inland_impact.water_level_m, shore_impact.water_level_m);
  EXPECT_GT(inland_impact.water_level_m, 0.0);
}

TEST_F(SurgeFixture, FailureExactlyAboveThreshold) {
  InundationConfig config;
  config.failure_threshold_m = 0.5;
  const InundationMapper mapper(*cm_, terrain_->projection(), config);
  const geo::GeoPoint loc =
      terrain_->projection().to_geo(cm_->stations[3].position);
  std::vector<double> wse(cm_->stations.size(), 1.0);
  // depth = 1.0 - elev; elev 0.5 -> depth 0.5 -> NOT failed (strictly >).
  EXPECT_FALSE(mapper.impact({"a", loc, 0.5}, wse).failed);
  EXPECT_TRUE(mapper.impact({"b", loc, 0.45}, wse).failed);
}

TEST_F(SurgeFixture, InundationValidation) {
  const InundationMapper mapper(*cm_, terrain_->projection());
  std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(mapper.impact({"x", {21.3, -157.9}, 1.0}, wrong),
               std::invalid_argument);
  InundationConfig bad;
  bad.decay_length_m = 0.0;
  EXPECT_THROW(InundationMapper(*cm_, terrain_->projection(), bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------- harbor

TEST_F(SurgeFixture, PearlHarborStationsAreSheltered) {
  const auto sheltered = sheltered_stations(*cm_, *terrain_, HarborConfig{});
  const auto& proj = terrain_->projection();
  std::size_t in_harbor_sheltered = 0;
  std::size_t in_harbor_total = 0;
  std::size_t south_shore_sheltered = 0;
  for (std::size_t i = 0; i < cm_->stations.size(); ++i) {
    const geo::GeoPoint g = proj.to_geo(cm_->stations[i].position);
    // Loch interior (excludes the exposed entrance flanks near 21.32 and
    // the unrelated north shore, which shares these longitudes).
    const bool in_harbor = g.lat_deg > 21.335 && g.lat_deg < 21.40 &&
                           g.lon_deg > -157.99 && g.lon_deg < -157.93;
    if (in_harbor) {
      ++in_harbor_total;
      if (sheltered[i]) ++in_harbor_sheltered;
    }
    // Open south shore from the airport to Diamond Head.
    const bool south_shore =
        g.lat_deg < 21.31 && g.lon_deg > -157.93 && g.lon_deg < -157.80;
    if (south_shore && sheltered[i]) ++south_shore_sheltered;
  }
  ASSERT_GT(in_harbor_total, 2u);
  EXPECT_GE(in_harbor_sheltered, 5u);
  EXPECT_GE(in_harbor_sheltered + 2, in_harbor_total);
  EXPECT_EQ(south_shore_sheltered, 0u);
}

TEST_F(SurgeFixture, HarborSourceMapPointsToExposedStations) {
  const auto sheltered = sheltered_stations(*cm_, *terrain_, HarborConfig{});
  const auto sources = harbor_source_map(*cm_, sheltered);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (sheltered[i]) {
      EXPECT_FALSE(sheltered[sources[i]]);
    } else {
      EXPECT_EQ(sources[i], i);
    }
  }
}

TEST(Harbor, TransferAppliesAmplificationFromSnapshot) {
  std::vector<double> wse = {1.0, 2.0, 3.0};
  const std::vector<bool> sheltered = {false, true, true};
  const std::vector<std::size_t> sources = {0, 0, 0};
  apply_harbor_transfer(wse, sheltered, sources, 1.1);
  EXPECT_DOUBLE_EQ(wse[0], 1.0);
  EXPECT_DOUBLE_EQ(wse[1], 1.1);
  EXPECT_DOUBLE_EQ(wse[2], 1.1);
  EXPECT_THROW(
      apply_harbor_transfer(wse, {false}, sources, 1.0),
      std::invalid_argument);
}

TEST(Harbor, AlongshoreAverageProperties) {
  // Constant field is a fixed point.
  std::vector<double> constant(10, 2.5);
  alongshore_average(constant, std::vector<bool>(10, false), 3);
  for (const double v : constant) EXPECT_DOUBLE_EQ(v, 2.5);

  // Window 0 is a no-op.
  std::vector<double> field = {1, 2, 3, 4};
  const std::vector<double> before = field;
  alongshore_average(field, std::vector<bool>(4, false), 0);
  EXPECT_EQ(field, before);

  // Averaging is bounded by min/max and skips sheltered stations.
  std::vector<double> mixed = {0.0, 10.0, 0.0, 10.0, 0.0, 10.0};
  std::vector<bool> sheltered(6, false);
  sheltered[2] = true;
  alongshore_average(mixed, sheltered, 1);
  EXPECT_DOUBLE_EQ(mixed[2], 0.0);  // untouched
  for (const double v : mixed) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
  EXPECT_THROW(alongshore_average(mixed, std::vector<bool>(2, false), 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------- engine

TEST(RealizationEngine, DeterministicRealizations) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  RealizationConfig config;
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), config);
  const HurricaneRealization a = engine.run(11);
  const HurricaneRealization b = engine.run(11);
  ASSERT_EQ(a.impacts.size(), b.impacts.size());
  for (std::size_t i = 0; i < a.impacts.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.impacts[i].water_level_m, b.impacts[i].water_level_m);
    EXPECT_EQ(a.impacts[i].failed, b.impacts[i].failed);
  }
  EXPECT_DOUBLE_EQ(a.peak_wind_ms, b.peak_wind_ms);
}

TEST(RealizationEngine, ImpactsAlignWithAssetOrder) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  const HurricaneRealization r = engine.run(0);
  ASSERT_EQ(r.impacts.size(), topo.assets().size());
  for (std::size_t i = 0; i < r.impacts.size(); ++i) {
    EXPECT_EQ(r.impacts[i].asset_id, topo.assets()[i].id);
  }
}

TEST(RealizationEngine, HelpersLookUpById) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  const HurricaneRealization r = engine.run(2);
  EXPECT_GE(r.asset_depth(scada::oahu_ids::kHonoluluCc), 0.0);
  EXPECT_FALSE(r.asset_failed("no-such-asset"));
  EXPECT_DOUBLE_EQ(r.asset_depth("no-such-asset"), 0.0);
}

TEST(RealizationEngine, NullTerrainRejected) {
  EXPECT_THROW(
      RealizationEngine(std::shared_ptr<const terrain::Terrain>(), {}, {}),
      std::invalid_argument);
  EXPECT_THROW(
      RealizationEngine(std::shared_ptr<const StormStage>(), {}, {}),
      std::invalid_argument);
}

/// A pool of 8 jobs, no result cache.
runtime::EnsembleOptions pooled_options() {
  runtime::EnsembleOptions options;
  options.jobs = 8;
  options.cache = false;
  options.fault_spec = "none";
  return options;
}

TEST(RealizationEngine, ParallelBatchMatchesSerial) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  const auto serial = engine.run_batch(8);
  runtime::EnsembleRunner runner(pooled_options());
  std::vector<HurricaneRealization> parallel(8);
  runner.pool().parallel_for_each(parallel.size(), 1, [&](std::size_t i) {
    parallel[i] = engine.run(i);
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, parallel[i].index);
    ASSERT_EQ(serial[i].impacts.size(), parallel[i].impacts.size());
    for (std::size_t a = 0; a < serial[i].impacts.size(); ++a) {
      EXPECT_DOUBLE_EQ(serial[i].impacts[a].water_level_m,
                       parallel[i].impacts[a].water_level_m);
      EXPECT_EQ(serial[i].impacts[a].failed, parallel[i].impacts[a].failed);
    }
  }
}

TEST(RealizationEngine, ParallelBatchDegenerateCases) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  runtime::EnsembleRunner runner(pooled_options());
  for (const std::size_t count : {0, 1, 3}) {
    runtime::SweepSpec spec;
    spec.count = count;
    const runtime::FailureMasks masks =
        runner.run_resumable(engine, spec, runtime::CheckpointOptions{}).masks;
    EXPECT_EQ(masks.size(), count);
    EXPECT_EQ(masks.attempted, count);
    EXPECT_EQ(masks.bits.size(), count * masks.words);
  }
}

TEST(RealizationEngine, BatchIndicesAreStable) {
  // run_batch(n)[i] must equal run(i): realizations are pure functions of
  // (seed, index), so growing the batch never changes earlier entries.
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  const auto batch = engine.run_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  const HurricaneRealization direct = engine.run(2);
  EXPECT_EQ(batch[2].impacts.size(), direct.impacts.size());
  for (std::size_t i = 0; i < direct.impacts.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[2].impacts[i].water_level_m,
                     direct.impacts[i].water_level_m);
  }
}

TEST_F(SurgeFixture, IndexedHarborSourceMapMatchesReferenceScan) {
  const std::size_t n = cm_->stations.size();
  ASSERT_GT(n, 4u);

  std::vector<std::vector<bool>> masks;
  masks.push_back(sheltered_stations(*cm_, *terrain_, HarborConfig{}));
  masks.emplace_back(n, false);  // nothing sheltered
  masks.emplace_back(n, true);   // everything sheltered
  {
    std::vector<bool> alternating(n, false);
    for (std::size_t i = 0; i < n; i += 2) alternating[i] = true;
    masks.push_back(std::move(alternating));
  }
  {
    std::vector<bool> one_exposed(n, true);
    one_exposed[n / 2] = false;
    masks.push_back(std::move(one_exposed));
  }

  for (std::size_t m = 0; m < masks.size(); ++m) {
    EXPECT_EQ(harbor_source_map(*cm_, masks[m]),
              harbor_source_map_reference(*cm_, masks[m]))
        << "mask " << m;
  }
}

TEST(Harbor, ScratchOverloadsBitIdentical) {
  const std::vector<bool> sheltered{false, true, false, false, true, false};
  const std::vector<std::size_t> sources{0, 2, 2, 3, 5, 5};
  const std::vector<double> base{1.0, 0.25, 2.0, 1.5, 0.125, 3.0};

  std::vector<double> a = base;
  std::vector<double> b = base;
  std::vector<double> snapshot{-1.0};  // stale content must not leak
  alongshore_average(a, sheltered, 2);
  alongshore_average(b, sheltered, 2, snapshot);
  EXPECT_EQ(a, b);

  alongshore_average(a, sheltered, 0, snapshot);  // window 0: no-op
  EXPECT_EQ(a, b);

  std::vector<double> c = a;
  apply_harbor_transfer(a, sheltered, sources, 1.08);
  apply_harbor_transfer(c, sheltered, sources, 1.08, snapshot);
  EXPECT_EQ(a, c);
}

}  // namespace
}  // namespace ct::surge
