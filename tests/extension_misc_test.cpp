// Coverage for the remaining extension surfaces: the simulator's event
// limit (storm guard), sea-level-rise offsets and inundation thresholds
// (per-realization metamorphic relations), and hot- vs cold-backup
// evaluator semantics for custom architectures.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "figure_bench.h"
#include "runtime/ensemble_runner.h"
#include "util/rng.h"
#include "util/stats.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "sim/scada_des.h"
#include "sim/simulator.h"
#include "surge/realization.h"
#include "terrain/oahu.h"

namespace ct {
namespace {

TEST(EventLimit, StopsRunawaySimulations) {
  sim::Simulator simulator;
  simulator.set_event_limit(100);
  std::function<void()> bomb = [&] {
    // Two children per event: exponential growth without a limit.
    simulator.schedule_in(0.001, bomb);
    simulator.schedule_in(0.001, bomb);
  };
  simulator.schedule_at(0.0, bomb);
  simulator.run_until(1000.0);
  EXPECT_TRUE(simulator.event_limit_hit());
  EXPECT_EQ(simulator.events_processed(), 100u);
}

TEST(EventLimit, ZeroMeansUnlimited) {
  sim::Simulator simulator;
  for (int i = 0; i < 500; ++i) simulator.schedule_at(i, [] {});
  simulator.run_until(1000.0);
  EXPECT_FALSE(simulator.event_limit_hit());
  EXPECT_EQ(simulator.events_processed(), 500u);
}

TEST(EventLimit, DesReportsTruncation) {
  sim::DesOptions options;
  options.horizon_s = 300.0;
  options.attack_time_s = 60.0;
  options.event_limit = 200;  // absurdly small: guaranteed truncation
  const sim::ScadaDes des(scada::make_config_6("p"), options);
  threat::SystemState state;
  state.site_status = {threat::SiteStatus::kUp};
  state.intrusions = {0};
  const sim::DesOutcome outcome = des.run(state);
  EXPECT_TRUE(outcome.truncated);
  EXPECT_LE(outcome.events, 200u);
}

/// Per-realization metamorphic relations over every asset of all 1000 paper
/// realizations. Raising the sea-level offset never lowers an asset's depth
/// and never un-floods it; raising the failure threshold never floods a dry
/// asset. Both hold exactly in IEEE arithmetic, because depth =
/// max(0, wse * decay - ground) with decay > 0 and harbor amplification
/// > 0. The 12 engines share one runner and its storm stage, so the
/// storm-stage memo runs each storm once.
TEST(SeaLevelRise, FloodProbabilityMonotonic) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  const double offsets[] = {-0.5, 0.0, 0.4, 0.8};
  const double thresholds[] = {0.25, 0.5, 0.75};
  constexpr std::size_t kRealizations = 1000;
  runtime::EnsembleOptions options;
  options.jobs = bench::test_jobs(4);
  options.fault_spec = "none";
  runtime::EnsembleRunner runner(options);

  // depth[o][t] and flooded[o][t]: realization-major, asset-minor. The
  // sweep's masks give the floods. The depths come from binding the
  // shoreline records the memo kept (the runner keys them by storm digest
  // and index), and the floods those binds find must be the masks' bits.
  std::vector<double> depth[4][3];
  std::vector<char> flooded[4][3];
  std::vector<std::unique_ptr<const surge::RealizationEngine>> engines;
  std::size_t assets = 0;
  for (std::size_t o = 0; o < 4; ++o) {
    for (std::size_t t = 0; t < 3; ++t) {
      surge::RealizationConfig config;
      config.sea_level_offset_m = offsets[o];
      config.inundation.failure_threshold_m = thresholds[t];
      engines.push_back(std::make_unique<const surge::RealizationEngine>(
          runner.storm_stage(terrain::make_oahu_terrain(), config),
          topo.exposed_assets(), config));
      assets = engines.back()->assets().size();
      runtime::SweepSpec spec;
      spec.count = kRealizations;
      const runtime::FailureMasks masks =
          runner.run_resumable(*engines.back(), spec, {}).masks;
      ASSERT_EQ(masks.size(), kRealizations);
      for (std::size_t k = 0; k < masks.size(); ++k) {
        for (std::size_t a = 0; a < assets; ++a) {
          flooded[o][t].push_back(masks.test(k, a));
        }
      }
    }
  }
  ASSERT_GT(assets, 0u);
  EXPECT_EQ(runner.cache_stats().memo_stores, kRealizations);
  for (std::size_t e = 0; e < engines.size(); ++e) {
    const surge::RealizationEngine& engine = *engines[e];
    std::size_t mask_mismatches = 0;
    for (std::uint64_t i = 0; i < kRealizations; ++i) {
      const auto record = runner.store().lookup_shoreline(
          engine.storm_digest() + "#" + std::to_string(i));
      ASSERT_NE(record, nullptr) << i;
      const surge::HurricaneRealization r = engine.bind(i, *record);
      ASSERT_EQ(r.impacts.size(), assets);
      std::vector<double>& depths = depth[e / 3][e % 3];
      const std::vector<char>& floods = flooded[e / 3][e % 3];
      for (std::size_t a = 0; a < assets; ++a) {
        depths.push_back(r.impacts[a].inundation_depth_m);
        if (r.impacts[a].failed != (floods[i * assets + a] != 0)) {
          ++mask_mismatches;
        }
      }
    }
    EXPECT_EQ(mask_mismatches, 0u) << "engine " << e;
  }

  const std::size_t cells = kRealizations * assets;
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t o = 1; o < 4; ++o) {
      std::size_t violations = 0;
      for (std::size_t k = 0; k < cells; ++k) {
        if (depth[o][t][k] < depth[o - 1][t][k]) ++violations;
        if (flooded[o - 1][t][k] && !flooded[o][t][k]) ++violations;
      }
      EXPECT_EQ(violations, 0u)
          << "offset " << offsets[o - 1] << " -> " << offsets[o]
          << " at threshold " << thresholds[t];
    }
  }
  for (std::size_t o = 0; o < 4; ++o) {
    for (std::size_t t = 1; t < 3; ++t) {
      std::size_t violations = 0;
      for (std::size_t k = 0; k < cells; ++k) {
        if (depth[o][t][k] != depth[o][t - 1][k]) ++violations;
        if (flooded[o][t][k] && !flooded[o][t - 1][k]) ++violations;
      }
      EXPECT_EQ(violations, 0u)
          << "threshold " << thresholds[t - 1] << " -> " << thresholds[t]
          << " at offset " << offsets[o];
    }
  }

  // The offsets move real floods: -0.5 m protects and 0.8 m of SLR
  // visibly worsens flooding over the baseline (default threshold).
  const auto flooded_count = [&](std::size_t o) {
    std::size_t n = 0;
    for (const char f : flooded[o][1]) n += f != 0;
    return n;
  };
  EXPECT_LT(flooded_count(0), flooded_count(1));
  EXPECT_GT(flooded_count(3), flooded_count(1));
  const std::vector<surge::ExposedAsset> exposed = topo.exposed_assets();
  std::size_t cc = 0;
  while (cc < exposed.size() &&
         exposed[cc].id != scada::oahu_ids::kHonoluluCc) {
    ++cc;
  }
  ASSERT_LT(cc, assets);
  std::size_t cc_floods = 0;
  for (std::size_t i = 0; i < kRealizations; ++i) {
    cc_floods += flooded[3][1][i * assets + cc] != 0;
  }
  EXPECT_GT(cc_floods, kRealizations / 4);
}

TEST(SeaLevelRise, NegativeOffsetProtects) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  surge::RealizationConfig config;
  config.sea_level_offset_m = -0.5;
  const surge::RealizationEngine engine(terrain::make_oahu_terrain(),
                                        topo.exposed_assets(), config);
  surge::RealizationConfig baseline;
  const surge::RealizationEngine base_engine(terrain::make_oahu_terrain(),
                                             topo.exposed_assets(), baseline);
  std::size_t failures = 0;
  std::size_t base_failures = 0;
  for (std::uint64_t i = 0; i < 150; ++i) {
    if (engine.run(i).asset_failed(scada::oahu_ids::kHonoluluCc)) ++failures;
    if (base_engine.run(i).asset_failed(scada::oahu_ids::kHonoluluCc)) {
      ++base_failures;
    }
  }
  // Half a meter of protection must eliminate nearly all failures.
  EXPECT_LE(failures, 1u);
  EXPECT_LT(failures, base_failures);
}

TEST(Evaluator, HotBackupFailsOverWithoutDowntime) {
  // A custom architecture with a HOT backup site: failover is immediate,
  // so losing the primary is green, not orange.
  scada::Configuration hot = scada::make_config_2_2("p", "b");
  hot.name = "2-2hot";
  hot.sites[1].hot = true;
  threat::SystemState state;
  state.site_status = {threat::SiteStatus::kFlooded, threat::SiteStatus::kUp};
  state.intrusions = {0, 0};
  EXPECT_EQ(core::evaluate(hot, state), threat::OperationalState::kGreen);

  // The paper's cold variant is orange in the same state.
  const scada::Configuration cold = scada::make_config_2_2("p", "b");
  EXPECT_EQ(core::evaluate(cold, state), threat::OperationalState::kOrange);
}

TEST(Evaluator, MinActiveSitesRespected) {
  // A 3-site group configured to need all 3 sites goes red on any loss.
  scada::Configuration strict = scada::make_config_6_6_6("p", "b", "d");
  strict.min_active_sites = 3;
  threat::SystemState state;
  state.site_status = {threat::SiteStatus::kUp, threat::SiteStatus::kIsolated,
                       threat::SiteStatus::kUp};
  state.intrusions = {0, 0, 0};
  EXPECT_EQ(core::evaluate(strict, state), threat::OperationalState::kRed);
}

TEST(Rng, ExponentialMeanAndSupport) {
  util::Rng rng(77);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.exponential(5.0);
    EXPECT_GE(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_DOUBLE_EQ(rng.exponential(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rng.exponential(-2.0), 0.0);
}

}  // namespace
}  // namespace ct
