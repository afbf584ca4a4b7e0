// Integration tests: the full case-study runner and siting optimizer on a
// reduced realization budget (statistical fidelity is covered by
// calibration_test and the bench binaries).
#include <gtest/gtest.h>

#include "core/case_study.h"
#include "core/report.h"
#include "core/siting.h"
#include "obs/metrics.h"
#include "scada/oahu.h"

namespace ct::core {
namespace {

using threat::OperationalState;
using threat::ThreatScenario;

class CaseStudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CaseStudyOptions options;
    options.realizations = 150;
    runner_ = new CaseStudyRunner(make_oahu_case_study(options));
  }
  static void TearDownTestSuite() {
    delete runner_;
  }
  static CaseStudyRunner* runner_;
};

CaseStudyRunner* CaseStudyTest::runner_ = nullptr;

TEST_F(CaseStudyTest, MasksAreMemoizedAndStable) {
  const runtime::FailureMasks* first = runner_->masks();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->attempted, 150u);
  EXPECT_EQ(first->size(), 150u);
  EXPECT_EQ(first->words, 1u);  // 20 exposed assets
  EXPECT_EQ(runner_->masks(), first);  // the same memoized table
  EXPECT_EQ(runner_->memoized_masks(), first);
}

/// After a complete sweep, a new cell (another backup site) and the flood
/// probabilities fold over the memoized table: no realization runs.
TEST(CaseStudyMemoTest, NewCellAndFloodProbabilitiesRunNoRealization) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  CaseStudyOptions options;
  options.realizations = 60;
  CaseStudyRunner runner = make_oahu_case_study(options);
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto all = threat::all_scenarios();
  const std::uint64_t before_sweep = node_steps.value();
  const ResumableAnalysis analysis = runner.run_all_resumable(
      configs, {all.begin(), all.end()}, runtime::CheckpointOptions{});
  ASSERT_TRUE(analysis.complete());
  EXPECT_EQ(analysis.executed, 60u);
  ASSERT_NE(runner.memoized_masks(), nullptr);
  const std::uint64_t after_sweep = node_steps.value();
  if (obs::compiled_in()) {
    EXPECT_GT(after_sweep, before_sweep);
  }

  const ScenarioResult kahe = runner.run(
      scada::make_config_6_6(scada::oahu_ids::kHonoluluCc,
                             scada::oahu_ids::kKaheCc),
      ThreatScenario::kHurricane);
  EXPECT_EQ(kahe.outcomes.total(), 60u);
  runner.asset_flood_probability(scada::oahu_ids::kHonoluluCc);
  runner.conditional_flood_probability(scada::oahu_ids::kWaiauCc,
                                       scada::oahu_ids::kHonoluluCc);
  EXPECT_EQ(node_steps.value(), after_sweep);
  obs::set_enabled(was_enabled);
}

TEST_F(CaseStudyTest, ProbabilitiesSumToOneForEveryConfigAndScenario) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  for (const ThreatScenario scenario : threat::all_scenarios()) {
    for (const auto& result : runner_->run_configs(configs, scenario)) {
      const double sum = result.outcomes.probability(OperationalState::kGreen) +
                         result.outcomes.probability(OperationalState::kOrange) +
                         result.outcomes.probability(OperationalState::kRed) +
                         result.outcomes.probability(OperationalState::kGray);
      EXPECT_NEAR(sum, 1.0, 1e-9);
      EXPECT_EQ(result.outcomes.total(), 150u);
    }
  }
}

TEST_F(CaseStudyTest, QualitativeShapeOfThePaperHolds) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);

  // Hurricane only: every architecture is mostly green, never gray.
  for (const auto& r :
       runner_->run_configs(configs, ThreatScenario::kHurricane)) {
    EXPECT_GT(r.outcomes.probability(OperationalState::kGreen), 0.7)
        << r.config_name;
    EXPECT_EQ(r.outcomes.probability(OperationalState::kGray), 0.0);
  }

  // Hurricane + intrusion: non-intrusion-tolerant architectures are mostly
  // gray; intrusion-tolerant ones keep their hurricane profile.
  const auto intrusion =
      runner_->run_configs(configs, ThreatScenario::kHurricaneIntrusion);
  EXPECT_GT(intrusion[0].outcomes.probability(OperationalState::kGray), 0.7);
  EXPECT_GT(intrusion[1].outcomes.probability(OperationalState::kGray), 0.7);
  EXPECT_EQ(intrusion[2].outcomes.probability(OperationalState::kGray), 0.0);
  EXPECT_EQ(intrusion[4].outcomes.probability(OperationalState::kGray), 0.0);

  // Hurricane + isolation: single-site architectures are 100% red; only
  // "6+6+6" keeps green mass.
  const auto isolation =
      runner_->run_configs(configs, ThreatScenario::kHurricaneIsolation);
  EXPECT_DOUBLE_EQ(isolation[0].outcomes.probability(OperationalState::kRed),
                   1.0);
  EXPECT_DOUBLE_EQ(isolation[2].outcomes.probability(OperationalState::kRed),
                   1.0);
  EXPECT_GT(isolation[4].outcomes.probability(OperationalState::kGreen), 0.7);
  EXPECT_EQ(isolation[4].outcomes.probability(OperationalState::kOrange), 0.0);

  // Full compound threat: "6-6" is the minimum survivable configuration
  // (orange), "6+6+6" stays green.
  const auto full = runner_->run_configs(
      configs, ThreatScenario::kHurricaneIntrusionIsolation);
  EXPECT_DOUBLE_EQ(full[2].outcomes.probability(OperationalState::kRed), 1.0);
  EXPECT_GT(full[3].outcomes.probability(OperationalState::kOrange), 0.7);
  EXPECT_GT(full[4].outcomes.probability(OperationalState::kGreen), 0.7);
}

TEST_F(CaseStudyTest, KaheSitingRemovesRedMass) {
  // The paper's §VII: with Kahe as backup, "2-2"/"6-6" convert red to
  // orange and "6+6+6" becomes fully green (Figs. 10-11).
  const auto kahe_configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kKaheCc,
      scada::oahu_ids::kDrFortress);
  const auto results =
      runner_->run_configs(kahe_configs, ThreatScenario::kHurricane);
  EXPECT_EQ(results[1].outcomes.probability(OperationalState::kRed), 0.0);
  EXPECT_EQ(results[3].outcomes.probability(OperationalState::kRed), 0.0);
  EXPECT_DOUBLE_EQ(results[4].outcomes.probability(OperationalState::kGreen),
                   1.0);
}

TEST_F(CaseStudyTest, FloodProbabilityHelpers) {
  const double hon =
      runner_->asset_flood_probability(scada::oahu_ids::kHonoluluCc);
  EXPECT_GT(hon, 0.0);
  EXPECT_LT(hon, 0.25);
  EXPECT_EQ(runner_->asset_flood_probability(scada::oahu_ids::kKaheCc), 0.0);
  // Conditional on a never-flooding asset is defined as 0.
  EXPECT_EQ(runner_->conditional_flood_probability(
                scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kKaheCc),
            0.0);
  EXPECT_GT(runner_->conditional_flood_probability(
                scada::oahu_ids::kWaiauCc, scada::oahu_ids::kHonoluluCc),
            0.8);
}

// ---------------------------------------------------------------- siting

TEST_F(CaseStudyTest, SitingRankCoversAllCombinations) {
  SitingOptimizer optimizer(*runner_);
  const auto scores = optimizer.rank_backup_sites(
      scada::oahu_ids::kHonoluluCc, scada::oahu_control_site_candidates(),
      ThreatScenario::kHurricane);
  EXPECT_EQ(scores.size(), 4u);  // 5 candidates minus the fixed primary
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_LE(scores[i - 1].expected_badness, scores[i].expected_badness);
  }
  for (const auto& s : scores) {
    EXPECT_NE(s.chosen.at(0), scada::oahu_ids::kHonoluluCc);
    EXPECT_NEAR(s.green_probability + s.orange_probability +
                    s.red_probability + s.gray_probability,
                1.0, 1e-9);
  }
}

TEST_F(CaseStudyTest, KaheIsTheBestBackupSite) {
  // The paper's headline siting finding.
  SitingOptimizer optimizer(*runner_);
  const auto scores = optimizer.rank_backup_sites(
      scada::oahu_ids::kHonoluluCc, scada::oahu_control_site_candidates(),
      ThreatScenario::kHurricane);
  ASSERT_FALSE(scores.empty());
  EXPECT_EQ(scores.front().chosen.at(0), scada::oahu_ids::kKaheCc);
}

TEST_F(CaseStudyTest, SitePairsRankedForTriple) {
  SitingOptimizer optimizer(*runner_);
  const auto scores = optimizer.rank_site_pairs(
      scada::oahu_ids::kHonoluluCc, scada::oahu_control_site_candidates(),
      ThreatScenario::kHurricaneIntrusionIsolation);
  EXPECT_EQ(scores.size(), 6u);  // C(4, 2)
  // Under the full compound threat no pair reaches 100% green (when the
  // Honolulu primary floods, the isolation attack takes a second site),
  // but dry-site pairs keep the hurricane profile and never go gray.
  EXPECT_GT(scores.front().green_probability, 0.8);
  EXPECT_EQ(scores.front().gray_probability, 0.0);
}

TEST_F(CaseStudyTest, SitingValidation) {
  SitingOptimizer optimizer(*runner_);
  EXPECT_THROW(optimizer.rank(nullptr, {"a"}, 1, ThreatScenario::kHurricane),
               std::invalid_argument);
  const ConfigBuilder builder = [](const std::vector<std::string>& chosen) {
    return scada::make_config_6_6("p", chosen.at(0));
  };
  EXPECT_THROW(optimizer.rank(builder, {"a"}, 2, ThreatScenario::kHurricane),
               std::invalid_argument);
  EXPECT_THROW(optimizer.rank(builder, {"a"}, 0, ThreatScenario::kHurricane),
               std::invalid_argument);
}

}  // namespace
}  // namespace ct::core
