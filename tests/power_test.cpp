// Tests for the probabilistic attacker-power model (the paper's §VII
// future-work extension) and the exact-mixture analysis built on it.
#include <gtest/gtest.h>

#include "core/attacker_power.h"
#include "core/evaluator.h"
#include "core/pipeline.h"
#include "scada/configuration.h"
#include "threat/probabilistic_attacker.h"

namespace ct::threat {
namespace {

TEST(BinomialPmf, MatchesKnownValues) {
  EXPECT_DOUBLE_EQ(binomial_pmf(0, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(1, 1, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(binomial_pmf(1, 0, 0.25), 0.75);
  EXPECT_NEAR(binomial_pmf(4, 2, 0.5), 6.0 / 16.0, 1e-12);
  EXPECT_DOUBLE_EQ(binomial_pmf(3, 5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(3, -1, 0.5), 0.0);
}

TEST(BinomialPmf, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 4, 1.0), 0.0);
}

TEST(BinomialPmf, SumsToOne) {
  for (const double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    double total = 0.0;
    for (int k = 0; k <= 10; ++k) total += binomial_pmf(10, k, p);
    EXPECT_NEAR(total, 1.0, 1e-12) << "p=" << p;
  }
}

TEST(AttackerPower, ValidationRejectsBadInputs) {
  AttackerPower bad;
  bad.intrusion_success = 1.5;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = AttackerPower{};
  bad.isolation_attempts = -1;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  EXPECT_NO_THROW(validate(AttackerPower{}));
}

TEST(AttackerPower, CapabilityProbabilityFactorizes) {
  AttackerPower power;
  power.intrusion_attempts = 2;
  power.isolation_attempts = 1;
  power.intrusion_success = 0.5;
  power.isolation_success = 0.25;
  EXPECT_NEAR(capability_probability(power, 1, 1), 0.5 * 0.25, 1e-12);
  EXPECT_NEAR(capability_probability(power, 0, 0), 0.25 * 0.75, 1e-12);
  double total = 0.0;
  for (int i = 0; i <= 2; ++i) {
    for (int s = 0; s <= 1; ++s) total += capability_probability(power, i, s);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace ct::threat

namespace ct::core {
namespace {

using threat::OperationalState;

surge::HurricaneRealization realization_with(
    std::vector<std::string> failed) {
  surge::HurricaneRealization r;
  for (std::string& id : failed) {
    surge::AssetImpact impact;
    impact.asset_id = std::move(id);
    impact.failed = true;
    r.impacts.push_back(std::move(impact));
  }
  return r;
}

TEST(OutcomeMixture, NormalizesWeights) {
  OutcomeMixture m;
  m.add(OperationalState::kGreen, 0.7);
  m.add(OperationalState::kGray, 0.3);
  EXPECT_NEAR(m.probability(OperationalState::kGreen), 0.7, 1e-12);
  EXPECT_NEAR(m.probability(OperationalState::kGray), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(OutcomeMixture{}.probability(OperationalState::kRed), 0.0);
}

TEST(AnalyzeWithPower, FullPowerReproducesWorstCaseScenario) {
  const auto config = scada::make_config_2_2("hon", "waiau");
  const std::vector<surge::HurricaneRealization> batch = {
      realization_with({}), realization_with({"hon"}),
      realization_with({"hon", "waiau"})};

  threat::AttackerPower full;  // 1 attempt each, p = 1
  const PowerScenarioResult power_result =
      analyze_with_power(config, full, batch);

  const AnalysisPipeline pipeline;
  const ScenarioResult worst = pipeline.analyze(
      config, threat::ThreatScenario::kHurricaneIntrusionIsolation, batch);

  for (const OperationalState s :
       {OperationalState::kGreen, OperationalState::kOrange,
        OperationalState::kRed, OperationalState::kGray}) {
    EXPECT_NEAR(power_result.outcomes.probability(s),
                worst.outcomes.probability(s), 1e-12);
  }
}

TEST(AnalyzeWithPower, ZeroPowerReproducesHurricaneOnly) {
  const auto config = scada::make_config_2_2("hon", "waiau");
  const std::vector<surge::HurricaneRealization> batch = {
      realization_with({}), realization_with({"hon"})};

  threat::AttackerPower none;
  none.intrusion_success = 0.0;
  none.isolation_success = 0.0;
  const PowerScenarioResult result = analyze_with_power(config, none, batch);

  const AnalysisPipeline pipeline;
  const ScenarioResult hurricane =
      pipeline.analyze(config, threat::ThreatScenario::kHurricane, batch);
  for (const OperationalState s :
       {OperationalState::kGreen, OperationalState::kOrange,
        OperationalState::kRed, OperationalState::kGray}) {
    EXPECT_NEAR(result.outcomes.probability(s),
                hurricane.outcomes.probability(s), 1e-12);
  }
}

TEST(AnalyzeWithPower, HalfPowerInterpolates) {
  const auto config = scada::make_config_2("hon");
  const std::vector<surge::HurricaneRealization> batch = {realization_with({})};
  threat::AttackerPower half;
  half.intrusion_success = 0.5;
  half.isolation_success = 0.0;
  const PowerScenarioResult result = analyze_with_power(config, half, batch);
  // Site up; with probability 0.5 the intrusion lands (gray), else green.
  EXPECT_NEAR(result.outcomes.probability(OperationalState::kGray), 0.5,
              1e-12);
  EXPECT_NEAR(result.outcomes.probability(OperationalState::kGreen), 0.5,
              1e-12);
}

TEST(AnalyzeWithPower, GrayProbabilityMonotonicInPower) {
  const auto config = scada::make_config_2("hon");
  const std::vector<surge::HurricaneRealization> batch = {
      realization_with({}), realization_with({"hon"})};
  double previous = -1.0;
  for (const double p : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    threat::AttackerPower power;
    power.intrusion_success = p;
    power.isolation_success = 0.0;
    const auto result = analyze_with_power(config, power, batch);
    const double gray = result.outcomes.probability(OperationalState::kGray);
    EXPECT_GE(gray, previous);
    previous = gray;
  }
}

TEST(AnalyzeWithPower, MultipleAttemptsStrictlyStronger) {
  // Against "6" (f=1), one intrusion attempt can never go gray, but two
  // attempts at p<1 can.
  const auto config = scada::make_config_6("hon");
  const std::vector<surge::HurricaneRealization> batch = {realization_with({})};
  threat::AttackerPower one;
  one.intrusion_attempts = 1;
  one.intrusion_success = 0.9;
  threat::AttackerPower two = one;
  two.intrusion_attempts = 2;
  const double gray_one = analyze_with_power(config, one, batch)
                              .outcomes.probability(OperationalState::kGray);
  const double gray_two = analyze_with_power(config, two, batch)
                              .outcomes.probability(OperationalState::kGray);
  EXPECT_DOUBLE_EQ(gray_one, 0.0);
  EXPECT_NEAR(gray_two, 0.81, 1e-12);
}

}  // namespace
}  // namespace ct::core
