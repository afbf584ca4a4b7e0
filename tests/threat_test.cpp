// Tests for the compound-threat model: system states, scenarios, and the
// worst-case attackers — including the paper's §V-B claim that the greedy
// 3-rule algorithm achieves the exhaustive worst case.
#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "scada/configuration.h"
#include "threat/attacker.h"
#include "threat/scenario.h"
#include "threat/system_state.h"

namespace ct::threat {
namespace {

using scada::Configuration;

// ---------------------------------------------------------------- states

TEST(SystemState, PostDisasterMapsFloodedAssets) {
  const Configuration c = scada::make_config_2_2("hon", "waiau");
  const SystemState s = post_disaster_state(
      c, [](std::string_view id) { return id == "hon"; });
  ASSERT_EQ(s.site_status.size(), 2u);
  EXPECT_EQ(s.site_status[0], SiteStatus::kFlooded);
  EXPECT_EQ(s.site_status[1], SiteStatus::kUp);
  EXPECT_EQ(s.intrusions, (std::vector<int>{0, 0}));
  EXPECT_EQ(s.functional_site_count(), 1);
  EXPECT_THROW(post_disaster_state(c, nullptr), std::invalid_argument);
}

TEST(SystemState, EffectiveIntrusionsIgnoreDownSites) {
  SystemState s;
  s.site_status = {SiteStatus::kUp, SiteStatus::kFlooded, SiteStatus::kIsolated};
  s.intrusions = {1, 2, 3};
  EXPECT_EQ(s.effective_intrusions(), 1);
  EXPECT_EQ(s.total_intrusions(), 6);
  EXPECT_EQ(s.functional_site_count(), 1);
}

TEST(SystemState, PriorityOrderPrimaryBackupDataCenter) {
  Configuration c = scada::make_config_6_6_6("p", "b", "d");
  // Shuffle declaration order: data center first.
  std::swap(c.sites[0], c.sites[2]);
  const auto order = site_priority_order(c);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(c.sites[order[0]].role, scada::SiteRole::kPrimary);
  EXPECT_EQ(c.sites[order[1]].role, scada::SiteRole::kBackup);
  EXPECT_EQ(c.sites[order[2]].role, scada::SiteRole::kDataCenter);
}

TEST(SystemState, Names) {
  EXPECT_EQ(state_name(OperationalState::kGreen), "green");
  EXPECT_EQ(state_name(OperationalState::kGray), "gray");
  EXPECT_LT(badness(OperationalState::kGreen),
            badness(OperationalState::kOrange));
  EXPECT_LT(badness(OperationalState::kOrange),
            badness(OperationalState::kRed));
  EXPECT_LT(badness(OperationalState::kRed), badness(OperationalState::kGray));
}

// ---------------------------------------------------------------- scenarios

TEST(Scenario, CapabilitiesMatchPaper) {
  EXPECT_EQ(capability_for(ThreatScenario::kHurricane),
            (AttackerCapability{0, 0}));
  EXPECT_EQ(capability_for(ThreatScenario::kHurricaneIntrusion),
            (AttackerCapability{1, 0}));
  EXPECT_EQ(capability_for(ThreatScenario::kHurricaneIsolation),
            (AttackerCapability{0, 1}));
  EXPECT_EQ(capability_for(ThreatScenario::kHurricaneIntrusionIsolation),
            (AttackerCapability{1, 1}));
  EXPECT_EQ(all_scenarios().size(), 4u);
  EXPECT_EQ(scenario_name(ThreatScenario::kHurricane), "Hurricane");
}

// ---------------------------------------------------------------- greedy

SystemState all_up(const Configuration& c) {
  SystemState s;
  s.site_status.assign(c.sites.size(), SiteStatus::kUp);
  s.intrusions.assign(c.sites.size(), 0);
  return s;
}

TEST(GreedyAttacker, Rule1CompromisesSafetyWhenPossible) {
  const Configuration c = scada::make_config_2_2("p", "b");
  const GreedyWorstCaseAttacker attacker;
  const SystemState attacked = attacker.attack(c, all_up(c), {1, 1});
  // Needs only one intrusion (f = 0): rule 1 fires, no isolation performed.
  EXPECT_EQ(attacked.intrusions[0], 1);
  EXPECT_EQ(attacked.site_status[0], SiteStatus::kUp);
  EXPECT_EQ(attacked.site_status[1], SiteStatus::kUp);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kGray);
}

TEST(GreedyAttacker, Rule1TargetsBackupWhenPrimaryFlooded) {
  const Configuration c = scada::make_config_2_2("p", "b");
  SystemState state = all_up(c);
  state.site_status[0] = SiteStatus::kFlooded;
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, state, {1, 0});
  EXPECT_EQ(attacked.intrusions[1], 1);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kGray);
}

TEST(GreedyAttacker, NoFunctionalServersNoIntrusion) {
  const Configuration c = scada::make_config_2("p");
  SystemState state = all_up(c);
  state.site_status[0] = SiteStatus::kFlooded;
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, state, {1, 1});
  EXPECT_EQ(attacked.total_intrusions(), 0);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kRed);
}

TEST(GreedyAttacker, Rule2IsolatesPrimaryFirst) {
  const Configuration c = scada::make_config_6_6("p", "b");
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, all_up(c), {0, 1});
  EXPECT_EQ(attacked.site_status[0], SiteStatus::kIsolated);
  EXPECT_EQ(attacked.site_status[1], SiteStatus::kUp);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kOrange);
}

TEST(GreedyAttacker, Rule2FallsThroughToBackup) {
  const Configuration c = scada::make_config_6_6("p", "b");
  SystemState state = all_up(c);
  state.site_status[0] = SiteStatus::kFlooded;
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, state, {0, 1});
  EXPECT_EQ(attacked.site_status[1], SiteStatus::kIsolated);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kRed);
}

TEST(GreedyAttacker, Rule3PlacesToleratedIntrusion) {
  const Configuration c = scada::make_config_6("p");
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, all_up(c), {1, 0});
  EXPECT_EQ(attacked.intrusions[0], 1);
  // One intrusion is within f: still green.
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kGreen);
}

TEST(GreedyAttacker, SixSixSixSurvivesFullCyberattack) {
  const Configuration c = scada::make_config_6_6_6("p", "b", "d");
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, all_up(c), {1, 1});
  EXPECT_EQ(attacked.site_status[0], SiteStatus::kIsolated);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kGreen);
}

TEST(GreedyAttacker, TwoIntrusionsGraySix) {
  // Beyond the paper's scenarios: an attacker with budget f+1 = 2 defeats
  // the "6" configuration.
  const Configuration c = scada::make_config_6("p");
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, all_up(c), {2, 0});
  EXPECT_EQ(attacked.intrusions[0], 2);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kGray);
}

TEST(GreedyAttacker, MultisiteGrayNeedsGroupWideIntrusions) {
  const Configuration c = scada::make_config_6_6_6("p", "b", "d");
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(c, all_up(c), {2, 0});
  EXPECT_EQ(attacked.effective_intrusions(), 2);
  EXPECT_EQ(core::evaluate(c, attacked), OperationalState::kGray);
}

TEST(GreedyAttacker, Rule1SpreadsAcrossMultisiteGroup) {
  // A thin multisite group (1 replica per site): safety violation needs
  // intrusions spread across sites — rule 1 must place them greedily
  // across functional hot sites, not require one big site.
  Configuration thin = scada::make_config_6_6_6("a", "b", "c");
  thin.name = "1+1+1";
  for (auto& site : thin.sites) site.replicas = 1;
  thin.intrusion_tolerance_f = 1;  // needs 2 intrusions for gray
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(thin, all_up(thin), {2, 0});
  EXPECT_EQ(attacked.effective_intrusions(), 2);
  EXPECT_EQ(core::evaluate(thin, attacked), OperationalState::kGray);
  // No single site holds more than its replica count.
  for (std::size_t i = 0; i < thin.sites.size(); ++i) {
    EXPECT_LE(attacked.intrusions[i], thin.sites[i].replicas);
  }
}

TEST(GreedyAttacker, Rule1SkipsNonFunctionalSitesWhenSpreading) {
  Configuration thin = scada::make_config_6_6_6("a", "b", "c");
  thin.name = "1+1+1";
  for (auto& site : thin.sites) site.replicas = 1;
  SystemState state = all_up(thin);
  state.site_status[0] = SiteStatus::kFlooded;
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(thin, state, {2, 0});
  EXPECT_EQ(attacked.intrusions[0], 0);  // flooded site has no live servers
  EXPECT_EQ(attacked.effective_intrusions(), 2);
  EXPECT_EQ(core::evaluate(thin, attacked), OperationalState::kGray);
}

TEST(GreedyAttacker, Rule1InfeasibleFallsThroughToRules2And3) {
  // Attacker can afford f+1 intrusions but not enough live servers exist
  // in one group: rules 2-3 apply instead.
  const Configuration c = scada::make_config_6("p");
  SystemState state = all_up(c);
  Configuration small = c;
  small.sites[0].replicas = 1;  // degenerate: one server, f = 1
  const SystemState attacked =
      GreedyWorstCaseAttacker{}.attack(small, state, {2, 1});
  // Rule 1 infeasible (needs 2 servers, site has 1): isolate instead.
  EXPECT_EQ(attacked.site_status[0], SiteStatus::kIsolated);
  EXPECT_EQ(core::evaluate(small, attacked), OperationalState::kRed);
}

TEST(GreedyAttacker, ValidatesStateShape) {
  const Configuration c = scada::make_config_2("p");
  SystemState bad;
  EXPECT_THROW(GreedyWorstCaseAttacker{}.attack(c, bad, {1, 0}),
               std::invalid_argument);
}

// ------------------------------------------------- greedy == exhaustive

/// Enumerates every flood pattern for a configuration's sites.
std::vector<SystemState> all_flood_patterns(const Configuration& c) {
  std::vector<SystemState> out;
  const std::size_t n = c.sites.size();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    SystemState s;
    s.intrusions.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      s.site_status.push_back((mask >> i) & 1 ? SiteStatus::kFlooded
                                              : SiteStatus::kUp);
    }
    out.push_back(std::move(s));
  }
  return out;
}

struct AttackerEquivalenceCase {
  const char* config_name;
  Configuration config;
};

class AttackerEquivalence
    : public ::testing::TestWithParam<AttackerEquivalenceCase> {};

TEST_P(AttackerEquivalence, GreedyMatchesExhaustiveWorstCase) {
  const Configuration& config = GetParam().config;
  const GreedyWorstCaseAttacker greedy;
  const ExhaustiveAttacker exhaustive(
      [&config](const SystemState& s) { return core::evaluate(config, s); });

  for (const SystemState& base : all_flood_patterns(config)) {
    for (int intrusions = 0; intrusions <= 2; ++intrusions) {
      for (int isolations = 0; isolations <= 2; ++isolations) {
        const AttackerCapability cap{intrusions, isolations};
        const OperationalState g =
            core::evaluate(config, greedy.attack(config, base, cap));
        const OperationalState e =
            core::evaluate(config, exhaustive.attack(config, base, cap));
        EXPECT_EQ(badness(g), badness(e))
            << GetParam().config_name << " intrusions=" << intrusions
            << " isolations=" << isolations;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigurations, AttackerEquivalence,
    ::testing::Values(
        AttackerEquivalenceCase{"2", scada::make_config_2("p")},
        AttackerEquivalenceCase{"2-2", scada::make_config_2_2("p", "b")},
        AttackerEquivalenceCase{"6", scada::make_config_6("p")},
        AttackerEquivalenceCase{"6-6", scada::make_config_6_6("p", "b")},
        AttackerEquivalenceCase{"6+6+6",
                                scada::make_config_6_6_6("p", "b", "d")}),
    [](const ::testing::TestParamInfo<AttackerEquivalenceCase>& info) {
      std::string name = info.param.config_name;
      for (char& ch : name) {
        if (ch == '-' || ch == '+') ch = '_';
      }
      return name;
    });

/// Monotonicity: granting the attacker more capability never improves the
/// outcome. Parameterized over the five architectures.
class AttackerMonotonicity
    : public ::testing::TestWithParam<AttackerEquivalenceCase> {};

TEST_P(AttackerMonotonicity, MoreCapabilityNeverHelpsTheDefender) {
  const Configuration& config = GetParam().config;
  const ExhaustiveAttacker attacker(
      [&config](const SystemState& s) { return core::evaluate(config, s); });
  for (const SystemState& base : all_flood_patterns(config)) {
    int previous_badness = -1;
    for (const AttackerCapability cap :
         {AttackerCapability{0, 0}, AttackerCapability{1, 0},
          AttackerCapability{1, 1}, AttackerCapability{2, 1},
          AttackerCapability{2, 2}}) {
      const int b =
          badness(core::evaluate(config, attacker.attack(config, base, cap)));
      EXPECT_GE(b, previous_badness);
      previous_badness = b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigurations, AttackerMonotonicity,
    ::testing::Values(
        AttackerEquivalenceCase{"2", scada::make_config_2("p")},
        AttackerEquivalenceCase{"2-2", scada::make_config_2_2("p", "b")},
        AttackerEquivalenceCase{"6", scada::make_config_6("p")},
        AttackerEquivalenceCase{"6-6", scada::make_config_6_6("p", "b")},
        AttackerEquivalenceCase{"6+6+6",
                                scada::make_config_6_6_6("p", "b", "d")}),
    [](const ::testing::TestParamInfo<AttackerEquivalenceCase>& info) {
      std::string name = info.param.config_name;
      for (char& ch : name) {
        if (ch == '-' || ch == '+') ch = '_';
      }
      return name;
    });

TEST(ExhaustiveAttacker, CountsCandidates) {
  const Configuration c = scada::make_config_2("p");
  ExhaustiveAttacker attacker(
      [&c](const SystemState& s) { return core::evaluate(c, s); });
  SystemState base;
  base.site_status = {SiteStatus::kUp};
  base.intrusions = {0};
  attacker.attack(c, base, {1, 1});
  // Isolation masks: {}, {site0}; intrusion placements: 0, 1 when the site
  // is functional, only 0 when isolated... at least 3 candidates.
  EXPECT_GE(attacker.last_candidates(), 3u);
  EXPECT_THROW(ExhaustiveAttacker(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace ct::threat
