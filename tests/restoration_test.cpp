// Tests for the restoration/downtime model that quantifies the paper's
// orange / red / gray state semantics.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/restoration.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "terrain/oahu.h"
#include "util/stats.h"

namespace ct::core {
namespace {

using threat::SiteStatus;
using threat::SystemState;

SystemState state_of(std::vector<SiteStatus> status,
                     std::vector<int> intrusions) {
  SystemState s;
  s.site_status = std::move(status);
  s.intrusions = std::move(intrusions);
  return s;
}

const RestorationModel kModel{};  // defaults

TEST(Restoration, GreenCostsNothing) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kUp}, {0}), kModel);
  EXPECT_DOUBLE_EQ(costs.downtime_hours, 0.0);
  EXPECT_DOUBLE_EQ(costs.incorrect_hours, 0.0);
}

TEST(Restoration, OrangeCostsActivationTime) {
  const auto config = scada::make_config_2_2("p", "b");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kFlooded, SiteStatus::kUp}, {0, 0}),
      kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.activation_minutes / 60.0, 1e-12);
  EXPECT_DOUBLE_EQ(costs.incorrect_hours, 0.0);
}

TEST(Restoration, RedFromIsolationEndsWithTheAttack) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kIsolated}, {0}), kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.isolation_duration_hours, 1e-12);
}

TEST(Restoration, RedFromFloodingWaitsForRepair) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kFlooded}, {0}), kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.flood_repair_hours, 1e-12);
}

TEST(Restoration, RedTakesTheFastestRestorationPath) {
  // "2-2" with the primary flooded AND the backup isolated: the isolation
  // ends long before the flood repair, so service resumes via the backup
  // (plus its activation delay).
  const auto config = scada::make_config_2_2("p", "b");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kFlooded, SiteStatus::kIsolated}, {0, 0}),
      kModel);
  EXPECT_NEAR(costs.downtime_hours,
              kModel.isolation_duration_hours + kModel.activation_minutes / 60.0,
              1e-12);
}

TEST(Restoration, MultisiteRedNeedsEnoughSitesBack) {
  // "6+6+6" with two sites flooded and one up: red until ONE flooded site
  // repairs (then 2 of 3 are up -> green, no activation delay).
  const auto config = scada::make_config_6_6_6("p", "b", "d");
  const IncidentCosts costs = expected_incident_costs(
      config,
      state_of({SiteStatus::kFlooded, SiteStatus::kFlooded, SiteStatus::kUp},
               {0, 0, 0}),
      kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.flood_repair_hours, 1e-12);
}

TEST(Restoration, GrayCostsDetectionPlusCleanup) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kUp}, {1}), kModel);
  EXPECT_NEAR(costs.incorrect_hours, kModel.compromise_detection_hours, 1e-12);
  EXPECT_NEAR(costs.downtime_hours, kModel.compromise_cleanup_hours, 1e-12);
}

TEST(Restoration, SampledMeanApproachesAnalytic) {
  const auto config = scada::make_config_2("p");
  const SystemState red = state_of({SiteStatus::kFlooded}, {0});
  util::Rng rng(404);
  util::RunningStats downtime;
  for (int i = 0; i < 20000; ++i) {
    downtime.add(sample_incident_costs(config, red, kModel, rng).downtime_hours);
  }
  EXPECT_NEAR(downtime.mean(), kModel.flood_repair_hours,
              kModel.flood_repair_hours * 0.03);
}

TEST(Restoration, AnalyzeAggregatesOverRealizations) {
  const auto config = scada::make_config_2_2("hon", "waiau");
  std::vector<surge::HurricaneRealization> batch;
  const auto realization_with = [](std::vector<std::string> failed) {
    surge::HurricaneRealization r;
    for (std::string& id : failed) {
      surge::AssetImpact impact;
      impact.asset_id = std::move(id);
      impact.failed = true;
      r.impacts.push_back(std::move(impact));
    }
    return r;
  };
  for (int i = 0; i < 8; ++i) batch.push_back(realization_with({}));
  batch.push_back(realization_with({"hon"}));
  batch.push_back(realization_with({"hon", "waiau"}));

  const RestorationResult result = analyze_restoration(
      config, threat::ThreatScenario::kHurricane, batch, kModel,
      /*samples_per_realization=*/0);
  // 8 green (0 h) + 1 orange (1/6 h) + 1 red (96 h) over 10 realizations.
  EXPECT_NEAR(result.expected_downtime_hours,
              (kModel.activation_minutes / 60.0 + kModel.flood_repair_hours) /
                  10.0,
              1e-9);
  EXPECT_DOUBLE_EQ(result.expected_incorrect_hours, 0.0);
  EXPECT_NEAR(result.p_any_downtime, 0.2, 1e-12);
  EXPECT_EQ(result.config_name, "2-2");
}

/// Two results equal bit for bit.
void expect_same_bits(const RestorationResult& got,
                      const RestorationResult& want,
                      const std::string& context) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.expected_downtime_hours),
            bits(want.expected_downtime_hours))
      << context;
  EXPECT_EQ(bits(got.expected_incorrect_hours),
            bits(want.expected_incorrect_hours))
      << context;
  EXPECT_EQ(bits(got.p95_downtime_hours), bits(want.p95_downtime_hours))
      << context;
  EXPECT_EQ(bits(got.p_any_downtime), bits(want.p_any_downtime)) << context;
}

TEST(Restoration, DrawsFollowTheRealizationIndexNotItsPosition) {
  // A batch with a quarantined realization skips an index, so positions
  // and indices part ways; reversing the batch parts them everywhere. The
  // sampled downtimes must come from each realization's own stream.
  const auto config = scada::make_config_2_2("hon", "waiau");
  const std::vector<std::vector<std::string>> patterns = {
      {}, {"hon"}, {"hon", "waiau"}, {"waiau"}};
  std::vector<surge::HurricaneRealization> batch;
  for (std::uint64_t i = 0; i < 24; ++i) {
    surge::HurricaneRealization r;
    r.index = i;
    for (const std::string& id : patterns[i % patterns.size()]) {
      surge::AssetImpact impact;
      impact.asset_id = id;
      impact.failed = true;
      r.impacts.push_back(std::move(impact));
    }
    batch.push_back(std::move(r));
  }
  std::vector<surge::HurricaneRealization> reversed(batch.rbegin(),
                                                    batch.rend());
  // The same batch as a mask table with index 5 quarantined, against the
  // batch without it.
  runtime::FailureMasks masks;
  masks.words = 1;
  masks.assets = std::make_shared<const surge::AssetIndex>(
      surge::AssetIndex{{"hon", 0}, {"waiau", 1}});
  std::vector<surge::HurricaneRealization> survivors;
  for (const surge::HurricaneRealization& r : batch) {
    if (r.index == 5) continue;
    survivors.push_back(r);
    masks.indices.push_back(r.index);
    masks.bits.push_back((r.asset_failed("hon") ? 1u : 0u) |
                         (r.asset_failed("waiau") ? 2u : 0u));
  }
  const auto scenario = threat::ThreatScenario::kHurricaneIsolation;
  const RestorationResult forward =
      analyze_restoration(config, scenario, batch, kModel, 8);
  const RestorationResult reversed_result =
      analyze_restoration(config, scenario, reversed, kModel, 8);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reversed_result.p95_downtime_hours),
            std::bit_cast<std::uint64_t>(forward.p95_downtime_hours));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reversed_result.p_any_downtime),
            std::bit_cast<std::uint64_t>(forward.p_any_downtime));
  expect_same_bits(analyze_restoration(config, scenario, masks, kModel, 8),
                   analyze_restoration(config, scenario, survivors, kModel, 8),
                   "mask fold with index 5 quarantined");
}

/// The mask fold equals the serial fold over the engine's realizations,
/// bit for bit, on every paper configuration and scenario, with and
/// without sampled draws.
TEST(Restoration, MaskFoldMatchesSerialOverRealizations) {
  constexpr std::size_t kCount = 40;
  const surge::RealizationEngine engine(
      terrain::make_oahu_terrain(), scada::oahu_topology().exposed_assets());
  runtime::EnsembleOptions options;
  options.jobs = 2;
  options.fault_spec = "none";
  runtime::EnsembleRunner runner(options);
  runtime::SweepSpec spec;
  spec.count = kCount;
  const runtime::FailureMasks masks =
      runner.run_resumable(engine, spec, runtime::CheckpointOptions{}).masks;
  const std::vector<surge::HurricaneRealization> batch =
      engine.run_batch(kCount);
  for (const scada::Configuration& config : scada::paper_configurations(
           scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
           scada::oahu_ids::kDrFortress)) {
    for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
      for (const std::size_t samples : {0, 4}) {
        expect_same_bits(
            analyze_restoration(config, scenario, masks, kModel, samples),
            analyze_restoration(config, scenario, batch, kModel, samples),
            config.name + " / " +
                std::string(threat::scenario_name(scenario)) + " / " +
                std::to_string(samples));
      }
    }
  }
}

TEST(Restoration, IntrusionScenarioAccruesIncorrectHours) {
  const auto config = scada::make_config_2("hon");
  surge::HurricaneRealization clean;
  const RestorationResult result = analyze_restoration(
      config, threat::ThreatScenario::kHurricaneIntrusion, {clean}, kModel,
      0);
  EXPECT_NEAR(result.expected_incorrect_hours,
              kModel.compromise_detection_hours, 1e-9);
  EXPECT_NEAR(result.expected_downtime_hours, kModel.compromise_cleanup_hours,
              1e-9);
}

TEST(Restoration, IntrusionTolerantConfigAvoidsIncorrectHours) {
  const auto config = scada::make_config_6("hon");
  surge::HurricaneRealization clean;
  const RestorationResult result = analyze_restoration(
      config, threat::ThreatScenario::kHurricaneIntrusion, {clean}, kModel,
      0);
  EXPECT_DOUBLE_EQ(result.expected_incorrect_hours, 0.0);
  EXPECT_DOUBLE_EQ(result.expected_downtime_hours, 0.0);
}

}  // namespace
}  // namespace ct::core
