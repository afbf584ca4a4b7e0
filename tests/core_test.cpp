// Tests for the analysis core: the Table-I evaluator (generic vs
// transcribed), the Fig-5 pipeline, outcome distributions, and reporting.
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/restoration.h"
#include "runtime/checkpoint.h"
#include "scada/configuration.h"
#include "threat/scenario.h"
#include "util/error.h"

namespace ct::core {
namespace {

using scada::Configuration;
using threat::OperationalState;
using threat::SiteStatus;
using threat::SystemState;
using threat::ThreatScenario;

SystemState make_state(std::vector<SiteStatus> status,
                       std::vector<int> intrusions) {
  SystemState s;
  s.site_status = std::move(status);
  s.intrusions = std::move(intrusions);
  return s;
}

// ------------------------------------------------ Table I, transcribed

TEST(TableOne, Config2Rows) {
  const Configuration c = scada::make_config_2("p");
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kUp}, {0})),
            OperationalState::kGreen);
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kFlooded}, {0})),
            OperationalState::kRed);
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kIsolated}, {0})),
            OperationalState::kRed);
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kUp}, {1})),
            OperationalState::kGray);
}

TEST(TableOne, Config22Rows) {
  const Configuration c = scada::make_config_2_2("p", "b");
  const auto up = SiteStatus::kUp;
  const auto down = SiteStatus::kFlooded;
  EXPECT_EQ(evaluate_table1(c, make_state({up, up}, {0, 0})),
            OperationalState::kGreen);
  EXPECT_EQ(evaluate_table1(c, make_state({down, up}, {0, 0})),
            OperationalState::kOrange);
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kIsolated, up}, {0, 0})),
            OperationalState::kOrange);
  EXPECT_EQ(evaluate_table1(c, make_state({down, down}, {0, 0})),
            OperationalState::kRed);
  EXPECT_EQ(evaluate_table1(c, make_state({up, up}, {1, 0})),
            OperationalState::kGray);
  EXPECT_EQ(evaluate_table1(c, make_state({down, up}, {0, 1})),
            OperationalState::kGray);
  // An intrusion recorded at a flooded site has no functional server to
  // corrupt: the hurricane already silenced it.
  EXPECT_EQ(evaluate_table1(c, make_state({down, down}, {1, 0})),
            OperationalState::kRed);
}

TEST(TableOne, Config6Rows) {
  const Configuration c = scada::make_config_6("p");
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kUp}, {1})),
            OperationalState::kGreen);  // tolerates one intrusion
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kUp}, {2})),
            OperationalState::kGray);
  EXPECT_EQ(evaluate_table1(c, make_state({SiteStatus::kIsolated}, {1})),
            OperationalState::kRed);
}

TEST(TableOne, Config66Rows) {
  const Configuration c = scada::make_config_6_6("p", "b");
  const auto up = SiteStatus::kUp;
  const auto iso = SiteStatus::kIsolated;
  EXPECT_EQ(evaluate_table1(c, make_state({up, up}, {1, 0})),
            OperationalState::kGreen);
  EXPECT_EQ(evaluate_table1(c, make_state({iso, up}, {0, 1})),
            OperationalState::kOrange);
  EXPECT_EQ(evaluate_table1(c, make_state({iso, up}, {0, 2})),
            OperationalState::kGray);
  EXPECT_EQ(evaluate_table1(c, make_state({iso, iso}, {0, 0})),
            OperationalState::kRed);
}

TEST(TableOne, Config666Rows) {
  const Configuration c = scada::make_config_6_6_6("p", "b", "d");
  const auto up = SiteStatus::kUp;
  const auto down = SiteStatus::kFlooded;
  EXPECT_EQ(evaluate_table1(c, make_state({up, up, up}, {1, 0, 0})),
            OperationalState::kGreen);
  EXPECT_EQ(evaluate_table1(c, make_state({down, up, up}, {0, 1, 0})),
            OperationalState::kGreen);
  EXPECT_EQ(evaluate_table1(c, make_state({down, down, up}, {0, 0, 1})),
            OperationalState::kRed);
  EXPECT_EQ(evaluate_table1(c, make_state({up, up, up}, {1, 1, 0})),
            OperationalState::kGray);
  EXPECT_EQ(evaluate_table1(c, make_state({down, up, up}, {0, 1, 1})),
            OperationalState::kGray);
}

TEST(TableOne, UnknownConfigurationRejected) {
  Configuration c = scada::make_config_2("p");
  c.name = "9-9-9";
  EXPECT_THROW(evaluate_table1(c, make_state({SiteStatus::kUp}, {0})),
               std::invalid_argument);
  EXPECT_THROW(evaluate(c, make_state({}, {})), std::invalid_argument);
}

// --------------------------------- generic evaluator == Table I (sweep)

struct EvaluatorCase {
  const char* label;
  Configuration config;
};

class EvaluatorEquivalence : public ::testing::TestWithParam<EvaluatorCase> {};

TEST_P(EvaluatorEquivalence, GenericMatchesTranscribedTableOne) {
  const Configuration& config = GetParam().config;
  const std::size_t sites = config.sites.size();
  // Exhaustive sweep: every site-status combination x intrusion counts
  // 0..3 per site (beyond any reachable attack, to stress the rules).
  std::vector<std::size_t> radix(sites, 0);
  const std::array<SiteStatus, 3> statuses = {
      SiteStatus::kUp, SiteStatus::kFlooded, SiteStatus::kIsolated};
  std::size_t combos = 1;
  for (std::size_t i = 0; i < sites; ++i) combos *= 3;
  for (std::size_t code = 0; code < combos; ++code) {
    SystemState s;
    std::size_t rest = code;
    for (std::size_t i = 0; i < sites; ++i) {
      s.site_status.push_back(statuses[rest % 3]);
      rest /= 3;
    }
    std::size_t int_combos = 1;
    for (std::size_t i = 0; i < sites; ++i) int_combos *= 4;
    for (std::size_t icode = 0; icode < int_combos; ++icode) {
      s.intrusions.clear();
      std::size_t irest = icode;
      for (std::size_t i = 0; i < sites; ++i) {
        s.intrusions.push_back(static_cast<int>(irest % 4));
        irest /= 4;
      }
      EXPECT_EQ(evaluate(config, s), evaluate_table1(config, s))
          << GetParam().label << " code=" << code << " icode=" << icode;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigurations, EvaluatorEquivalence,
    ::testing::Values(EvaluatorCase{"c2", scada::make_config_2("p")},
                      EvaluatorCase{"c22", scada::make_config_2_2("p", "b")},
                      EvaluatorCase{"c6", scada::make_config_6("p")},
                      EvaluatorCase{"c66", scada::make_config_6_6("p", "b")},
                      EvaluatorCase{"c666",
                                    scada::make_config_6_6_6("p", "b", "d")}),
    [](const ::testing::TestParamInfo<EvaluatorCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------- outcomes

TEST(OutcomeDistribution, ProbabilitiesSumToOne) {
  OutcomeDistribution d;
  d.add(OperationalState::kGreen);
  d.add(OperationalState::kGreen);
  d.add(OperationalState::kRed);
  d.add(OperationalState::kGray);
  EXPECT_EQ(d.total(), 4u);
  EXPECT_DOUBLE_EQ(d.probability(OperationalState::kGreen), 0.5);
  EXPECT_DOUBLE_EQ(d.probability(OperationalState::kOrange), 0.0);
  const double sum = d.probability(OperationalState::kGreen) +
                     d.probability(OperationalState::kOrange) +
                     d.probability(OperationalState::kRed) +
                     d.probability(OperationalState::kGray);
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_DOUBLE_EQ(d.expected_badness(), (0.0 + 0.0 + 2.0 + 3.0) / 4.0);
}

TEST(OutcomeDistribution, EmptyIsSafe) {
  const OutcomeDistribution d;
  EXPECT_EQ(d.total(), 0u);
  EXPECT_DOUBLE_EQ(d.probability(OperationalState::kGreen), 0.0);
  EXPECT_DOUBLE_EQ(d.expected_badness(), 0.0);
}

// ---------------------------------------------------------------- pipeline

/// Builds a synthetic realization in which exactly the given assets failed.
surge::HurricaneRealization synthetic_realization(
    std::vector<std::string> failed_assets) {
  surge::HurricaneRealization r;
  for (std::string& id : failed_assets) {
    surge::AssetImpact impact;
    impact.asset_id = std::move(id);
    impact.failed = true;
    impact.inundation_depth_m = 1.0;
    r.impacts.push_back(std::move(impact));
  }
  return r;
}

TEST(Pipeline, OutcomeForKnownCases) {
  const AnalysisPipeline pipeline;
  const Configuration c22 = scada::make_config_2_2("hon", "waiau");

  // No flooding, hurricane only: green.
  EXPECT_EQ(pipeline.outcome_for(c22, ThreatScenario::kHurricane,
                                 synthetic_realization({})),
            OperationalState::kGreen);
  // Primary flooded: orange (cold backup takes over).
  EXPECT_EQ(pipeline.outcome_for(c22, ThreatScenario::kHurricane,
                                 synthetic_realization({"hon"})),
            OperationalState::kOrange);
  // Both flooded: red.
  EXPECT_EQ(pipeline.outcome_for(c22, ThreatScenario::kHurricane,
                                 synthetic_realization({"hon", "waiau"})),
            OperationalState::kRed);
  // Intrusion scenario: gray unless everything flooded.
  EXPECT_EQ(pipeline.outcome_for(c22, ThreatScenario::kHurricaneIntrusion,
                                 synthetic_realization({})),
            OperationalState::kGray);
  EXPECT_EQ(pipeline.outcome_for(c22, ThreatScenario::kHurricaneIntrusion,
                                 synthetic_realization({"hon", "waiau"})),
            OperationalState::kRed);
}

TEST(Pipeline, SixSixSixUnderFullAttack) {
  const AnalysisPipeline pipeline;
  const Configuration c = scada::make_config_6_6_6("hon", "waiau", "dc");
  EXPECT_EQ(
      pipeline.outcome_for(c, ThreatScenario::kHurricaneIntrusionIsolation,
                           synthetic_realization({})),
      OperationalState::kGreen);
  EXPECT_EQ(
      pipeline.outcome_for(c, ThreatScenario::kHurricaneIntrusionIsolation,
                           synthetic_realization({"hon"})),
      OperationalState::kRed);  // isolation takes a second site
}

TEST(Pipeline, AnalyzeAggregates) {
  const AnalysisPipeline pipeline;
  const Configuration c2 = scada::make_config_2("hon");
  std::vector<surge::HurricaneRealization> batch;
  for (int i = 0; i < 9; ++i) batch.push_back(synthetic_realization({}));
  batch.push_back(synthetic_realization({"hon"}));
  const ScenarioResult result =
      pipeline.analyze(c2, ThreatScenario::kHurricane, batch);
  EXPECT_EQ(result.config_name, "2");
  EXPECT_EQ(result.outcomes.total(), 10u);
  EXPECT_DOUBLE_EQ(result.outcomes.probability(OperationalState::kGreen), 0.9);
  EXPECT_DOUBLE_EQ(result.outcomes.probability(OperationalState::kRed), 0.1);
}

// ------------------------------------------------------ site flood patterns

/// A hand-built mask table over hon (bit 0), waiau (bit 1), dc (bit 2) and
/// kahe (bit 3, a site of no configuration) holding every flood pattern of
/// `config`'s sites twice, the second time with kahe flooded as well, and
/// one quarantined record (index 1). `survivors` receives the table's
/// survivors as realizations that flood the same assets.
runtime::FailureMasks every_pattern_table(
    const Configuration& config,
    std::vector<surge::HurricaneRealization>& survivors) {
  runtime::FailureMasks masks;
  masks.words = 1;
  masks.assets = std::make_shared<const runtime::FailureMasks::AssetIndex>(
      runtime::FailureMasks::AssetIndex{
          {"hon", 0}, {"waiau", 1}, {"dc", 2}, {"kahe", 3}});
  std::uint64_t index = 0;
  for (const bool kahe : {false, true}) {
    for (std::uint32_t p = 0; p < (1u << config.sites.size()); ++p) {
      if (index == 1) {
        runtime::FailureRecord record;
        record.realization = index++;
        record.attempts = 3;
        record.code = util::ErrorCode::kFaultInjected;
        masks.ledger.failures.push_back(record);
        masks.ledger.retries = 2;
      }
      std::vector<std::string> flooded;
      for (std::size_t i = 0; i < config.sites.size(); ++i) {
        if ((p >> i) & 1u) flooded.push_back(config.sites[i].asset_id);
      }
      if (kahe) flooded.push_back("kahe");
      std::uint64_t word = 0;
      for (const std::string& id : flooded) {
        word |= std::uint64_t{1} << masks.assets->at(id);
      }
      masks.indices.push_back(index);
      masks.bits.push_back(word);
      survivors.push_back(synthetic_realization(flooded));
      survivors.back().index = index++;
    }
  }
  masks.attempted = index;
  return masks;
}

void expect_same_bits(const RestorationResult& got,
                      const RestorationResult& want,
                      const std::string& context) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.expected_downtime_hours),
            std::bit_cast<std::uint64_t>(want.expected_downtime_hours))
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.expected_incorrect_hours),
            std::bit_cast<std::uint64_t>(want.expected_incorrect_hours))
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p95_downtime_hours),
            std::bit_cast<std::uint64_t>(want.p95_downtime_hours))
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p_any_downtime),
            std::bit_cast<std::uint64_t>(want.p_any_downtime))
      << context;
}

/// Every flood pattern of every paper configuration, including the ones
/// the paper ensemble never yields ("6+6+6" sees 4 of its 8 there): the
/// pattern fold and the downtime fold equal the serial references over the
/// same floods, with the quarantined record accounted for.
TEST(SitePatterns, EveryPatternFoldsLikeTheSerialReferences) {
  const AnalysisPipeline pipeline;
  const RestorationModel model;
  for (const Configuration& config :
       scada::paper_configurations("hon", "waiau", "dc")) {
    std::vector<surge::HurricaneRealization> survivors;
    const runtime::FailureMasks masks = every_pattern_table(config, survivors);
    const SitePatterns patterns(config, masks);
    for (std::size_t k = 0; k < masks.size(); ++k) {
      EXPECT_EQ(patterns.of(k), flood_pattern(config, survivors[k]))
          << config.name << " survivor " << k;
    }
    const std::vector<std::size_t> counts = patterns.counts();
    const std::size_t all = std::size_t{1} << config.sites.size();
    EXPECT_EQ(counts, std::vector<std::size_t>(all, 2))
        << config.name << ": every pattern twice";

    for (const ThreatScenario scenario : threat::all_scenarios()) {
      const std::string context =
          config.name + " / " + std::string(threat::scenario_name(scenario));
      const ScenarioResult want = pipeline.analyze(config, scenario, survivors);
      const ScenarioResult got = pipeline.fold(config, scenario, masks, counts);
      for (const OperationalState s :
           {OperationalState::kGreen, OperationalState::kOrange,
            OperationalState::kRed, OperationalState::kGray}) {
        EXPECT_EQ(got.outcomes.count(s), want.outcomes.count(s)) << context;
      }
      EXPECT_EQ(got.outcomes.total(), masks.size()) << context;
      EXPECT_EQ(got.attempted, masks.size() + 1) << context;
      EXPECT_EQ(got.completed, masks.size()) << context;
      EXPECT_EQ(got.retries, 2u) << context;
      ASSERT_EQ(got.failures.size(), 1u) << context;
      EXPECT_EQ(got.failures[0].realization, 1u) << context;

      for (const std::size_t samples : {0, 8}) {
        expect_same_bits(
            analyze_restoration(config, scenario, masks, model, samples),
            analyze_restoration(config, scenario, survivors, model, samples),
            context + " / " + std::to_string(samples) + " samples");
      }
    }
  }
}

/// A site whose asset the table does not expose reads as not flooded, as
/// HurricaneRealization::asset_failed reads an id it has no impact for;
/// so does every site of a table without an asset index.
TEST(SitePatterns, SiteTheTableLacksNeverFloods) {
  std::vector<surge::HurricaneRealization> survivors;
  runtime::FailureMasks masks = every_pattern_table(
      scada::make_config_6_6_6("hon", "waiau", "dc"), survivors);
  ASSERT_EQ(masks.assets->count("no-such-asset"), 0u);
  const Configuration config = scada::make_config_2_2("no-such-asset", "hon");
  const SitePatterns patterns(config, masks);
  for (std::size_t k = 0; k < masks.size(); ++k) {
    EXPECT_EQ(patterns.of(k), masks.test(k, 0) ? 2u : 0u) << k;
  }
  const AnalysisPipeline pipeline;
  for (const ThreatScenario scenario : threat::all_scenarios()) {
    const ScenarioResult want = pipeline.analyze(config, scenario, survivors);
    const ScenarioResult got =
        pipeline.fold(config, scenario, masks, patterns.counts());
    for (const OperationalState s :
         {OperationalState::kGreen, OperationalState::kOrange,
          OperationalState::kRed, OperationalState::kGray}) {
      EXPECT_EQ(got.outcomes.count(s), want.outcomes.count(s))
          << threat::scenario_name(scenario);
    }
  }

  masks.assets.reset();
  const std::vector<std::size_t> counts = SitePatterns(config, masks).counts();
  EXPECT_EQ(counts, (std::vector<std::size_t>{masks.size(), 0, 0, 0}));
}

/// A configuration of more sites than a flood pattern covers is refused by
/// the table projection, the serial projection and the stage-1 state
/// alike; one at the limit is taken.
TEST(SitePatterns, ConfigurationPastTheSiteLimitThrows) {
  Configuration wide = scada::make_config_6_6_6("hon", "waiau", "dc");
  while (wide.sites.size() <= kMaxPatternSites) {
    wide.sites.push_back(wide.sites.back());
  }
  const runtime::FailureMasks empty;
  EXPECT_THROW(static_cast<void>(SitePatterns(wide, empty)),
               std::invalid_argument);
  EXPECT_THROW(flood_pattern(wide, synthetic_realization({})),
               std::invalid_argument);
  EXPECT_THROW(attacked_state(wide, ThreatScenario::kHurricane, 0u),
               std::invalid_argument);
  EXPECT_THROW(AnalysisPipeline{}.outcome_for(
                   wide, ThreatScenario::kHurricane, synthetic_realization({})),
               std::invalid_argument);

  wide.sites.pop_back();
  EXPECT_EQ(SitePatterns(wide, empty).counts().size(),
            std::size_t{1} << kMaxPatternSites);
  EXPECT_EQ(flood_pattern(wide, synthetic_realization({"dc"})), 0xfffcu)
      << "every copy of the dc site floods";
}

// ---------------------------------------------------------------- report

TEST(Report, PaperExpectationsExistForAllFigures) {
  for (const std::string fig :
       {"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}) {
    const auto& expected = paper_expected(fig);
    EXPECT_EQ(expected.size(), 5u) << fig;
    for (const PaperProfile& p : expected) {
      EXPECT_NEAR(p.green + p.orange + p.red + p.gray, 1.0, 1e-9)
          << fig << " " << p.config;
    }
  }
  EXPECT_THROW(paper_expected("fig99"), std::invalid_argument);
}

TEST(Report, MaxAbsDeltaZeroWhenMeasuredMatchesPaper) {
  // Construct results that exactly reproduce the fig6 profile with 200
  // realizations: 181 green / 19 red = 90.5% / 9.5%.
  std::vector<ScenarioResult> results;
  for (const PaperProfile& p : paper_expected("fig6")) {
    ScenarioResult r;
    r.config_name = p.config;
    r.scenario = ThreatScenario::kHurricane;
    for (int i = 0; i < 181; ++i) r.outcomes.add(OperationalState::kGreen);
    for (int i = 0; i < 19; ++i) r.outcomes.add(OperationalState::kRed);
    results.push_back(std::move(r));
  }
  EXPECT_NEAR(max_abs_delta(results, paper_expected("fig6")), 0.0, 1e-9);
  EXPECT_GT(max_abs_delta(results, paper_expected("fig8")), 0.5);
}

TEST(Report, TablesRender) {
  std::vector<ScenarioResult> results;
  ScenarioResult r;
  r.config_name = "2";
  r.scenario = ThreatScenario::kHurricane;
  r.outcomes.add(OperationalState::kGreen);
  results.push_back(r);
  const std::string profile = profile_table(results).to_string();
  EXPECT_NE(profile.find("100.0%"), std::string::npos);
  const std::string comparison =
      comparison_table(results, paper_expected("fig6")).to_string();
  EXPECT_NE(comparison.find("green"), std::string::npos);
  EXPECT_NE(comparison.find("pp"), std::string::npos);
}

TEST(Report, CsvOutput) {
  std::vector<ScenarioResult> results;
  ScenarioResult r;
  r.config_name = "6";
  r.scenario = ThreatScenario::kHurricane;
  r.outcomes.add(OperationalState::kGreen);
  results.push_back(r);
  std::ostringstream out;
  write_profiles_csv(out, "fig6", results);
  const std::string csv = out.str();
  // Header + 4 state rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_NE(csv.find("fig6,6,Hurricane,green,1"), std::string::npos);
}

// ------------------------------------- realization CSV graceful degradation

TEST(RealizationCsv, RoundTripsThroughWriterAndLoader) {
  std::vector<surge::HurricaneRealization> realizations(2);
  realizations[0].index = 0;
  realizations[0].peak_wind_ms = 42.5;
  realizations[0].max_shoreline_wse_m = 1.25;
  surge::AssetImpact impact;
  impact.asset_id = "p";
  impact.failed = true;
  realizations[0].impacts.push_back(impact);
  realizations[1].index = 1;
  realizations[1].peak_wind_ms = 38.0;

  std::ostringstream out;
  write_realizations_csv(out, realizations);
  std::istringstream in(out.str());
  const LoadedRealizations loaded = load_realizations_csv(in);
  EXPECT_EQ(loaded.skipped_rows, 0u);
  ASSERT_EQ(loaded.realizations.size(), 2u);
  EXPECT_TRUE(loaded.realizations[0].asset_failed("p"));
  EXPECT_FALSE(loaded.realizations[1].asset_failed("p"));
  EXPECT_DOUBLE_EQ(loaded.realizations[0].peak_wind_ms, 42.5);
  EXPECT_DOUBLE_EQ(loaded.realizations[0].max_shoreline_wse_m, 1.25);
}

TEST(RealizationCsv, MalformedRowsAreSkippedNotFatal) {
  const std::string csv =
      "realization,flooded_assets,peak_wind_ms,max_wse_m\n"
      "# comment line\n"
      "0,,40.0,1.0\n"
      "oops,not,a,row\n"        // non-numeric index
      "1,p,45.0\n"              // wrong field count
      "2,p,forty,2.0\n"         // non-numeric wind
      "3,p,45.0,2.0\n";
  std::istringstream in(csv);
  ::testing::internal::CaptureStderr();
  const LoadedRealizations loaded = load_realizations_csv(in);
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(loaded.skipped_rows, 3u);
  ASSERT_EQ(loaded.realizations.size(), 2u);
  EXPECT_TRUE(loaded.realizations[1].asset_failed("p"));
  EXPECT_NE(stderr_text.find("malformed realization row"), std::string::npos);
}

TEST(RealizationCsv, QuotedFieldsParseAndBadQuotingIsSkipped) {
  // Quoted asset lists (with an embedded comma and an escaped quote) must
  // parse; an unterminated quote is a malformed row, not a crash.
  const std::string csv =
      "realization,flooded_assets,peak_wind_ms,max_wse_m\n"
      "0,\"p;b\",40.0,1.0\n"            // quoted list of two assets
      "1,\"p,still p\",41.0,1.1\n"      // embedded comma stays one field
      "2,\"say \"\"p\"\"\",42.0,1.2\n"  // escaped quote
      "3,\"p,45.0,2.0\n";               // unterminated quote: skipped
  std::istringstream in(csv);
  ::testing::internal::CaptureStderr();
  const LoadedRealizations loaded = load_realizations_csv(in);
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(loaded.skipped_rows, 1u);
  ASSERT_EQ(loaded.realizations.size(), 3u);
  EXPECT_TRUE(loaded.realizations[0].asset_failed("p"));
  EXPECT_TRUE(loaded.realizations[0].asset_failed("b"));
  EXPECT_TRUE(loaded.realizations[1].asset_failed("p,still p"));
  EXPECT_TRUE(loaded.realizations[2].asset_failed("say \"p\""));
}

TEST(RealizationCsv, ShortRowsAndNonNumericCellsCountExactly) {
  const std::string csv =
      "realization,flooded_assets,peak_wind_ms,max_wse_m\n"
      "0,p\n"                   // 2 fields
      "1\n"                     // 1 field
      "2,p,45.0,2.0,extra\n"    // 5 fields
      "three,p,45.0,2.0\n"      // non-numeric index
      "4,p,fast,2.0\n"          // non-numeric wind
      "5,p,45.0,high\n"         // non-numeric surge
      "6,p,45.0,2.0\n";         // the one good row
  std::istringstream in(csv);
  ::testing::internal::CaptureStderr();
  const LoadedRealizations loaded = load_realizations_csv(in);
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(loaded.skipped_rows, 6u);
  ASSERT_EQ(loaded.realizations.size(), 1u);
  EXPECT_EQ(loaded.realizations[0].index, 6u);
}

TEST(RealizationCsv, TrailingBlankLinesAreNeitherRowsNorSkips) {
  const std::string csv =
      "realization,flooded_assets,peak_wind_ms,max_wse_m\n"
      "0,p,45.0,2.0\n"
      "\n"
      "   \n"
      "\n";
  std::istringstream in(csv);
  const LoadedRealizations loaded = load_realizations_csv(in);
  EXPECT_EQ(loaded.skipped_rows, 0u);
  EXPECT_EQ(loaded.realizations.size(), 1u);
}

TEST(RealizationCsv, LoadedRowsClassifyAndSkipsAreCounted) {
  const std::string csv =
      "realization,flooded_assets,peak_wind_ms,max_wse_m\n"
      "0,,40.0,1.0\n"           // nothing flooded: green
      "garbage row here\n"      // skipped
      "1,p,45.0,2.0\n";         // primary flooded: red for config "2"
  std::istringstream in(csv);
  const LoadedRealizations loaded = load_realizations_csv(in);
  const AnalysisPipeline pipeline;
  const ScenarioResult result = pipeline.analyze(
      scada::make_config_2("p"), ThreatScenario::kHurricane,
      loaded.realizations);
  EXPECT_EQ(loaded.skipped_rows, 1u);
  EXPECT_EQ(result.outcomes.total(), 2u);
  EXPECT_EQ(result.outcomes.count(OperationalState::kGreen), 1u);
  EXPECT_EQ(result.outcomes.count(OperationalState::kRed), 1u);
}

}  // namespace
}  // namespace ct::core
