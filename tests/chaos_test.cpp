// ChaosRunner tests: a seeded benign sweep must keep every run's Table-I
// color equal to the analytic evaluator's with zero invariant violations,
// and an injected f+1 compromise must be detected and shrunk to a minimal
// replayable reproducer.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/chaos.h"
#include "core/evaluator.h"
#include "scada/configuration.h"
#include "sim/fault_injector.h"
#include "threat/scenario.h"
#include "threat/system_state.h"

namespace ct::core {
namespace {

using threat::OperationalState;
using threat::ThreatScenario;

ChaosOptions small_sweep_options() {
  ChaosOptions options;
  options.plans = 5;  // the ≥50-plan acceptance sweep lives in bench_chaos
  return options;
}

TEST(Chaos, BenignSweepIsCleanOnPrimaryBackup) {
  const ChaosRunner runner(small_sweep_options());
  const ChaosReport report = runner.sweep(scada::make_config_2_2("p", "b"));
  EXPECT_EQ(report.plans_run, 5);
  EXPECT_EQ(report.runs, 5 * 4);  // plans x scenarios
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
  // The plans actually impaired the WAN — this was not a vacuous pass.
  EXPECT_GT(report.total_duplicates, 0u);
}

TEST(Chaos, BenignSweepIsCleanOnBft) {
  const ChaosRunner runner(small_sweep_options());
  const ChaosReport report = runner.sweep(scada::make_config_6("p"));
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
  EXPECT_EQ(report.runs, 5 * 4);
}

TEST(Chaos, RestartHeavySweepIsCleanAndExercisesRejoins) {
  ChaosOptions options = small_sweep_options();
  options.plan_style = ChaosOptions::PlanStyle::kRestartHeavy;
  const ChaosRunner runner(options);
  const ChaosReport report = runner.sweep(scada::make_config_6("p"));
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
  EXPECT_EQ(report.runs, 5 * 4);
  // Restart-heavy plans must actually drive the catch-up machinery.
  EXPECT_GT(report.total_rejoins, 0);
}

TEST(Chaos, RestartHeavySweepIsCleanOnPrimaryBackup) {
  ChaosOptions options = small_sweep_options();
  options.plan_style = ChaosOptions::PlanStyle::kRestartHeavy;
  const ChaosRunner runner(options);
  const ChaosReport report = runner.sweep(scada::make_config_2_2("p", "b"));
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
}

void expect_same_report(const ChaosReport& serial, const ChaosReport& pooled) {
  EXPECT_EQ(serial.config_name, pooled.config_name);
  EXPECT_EQ(serial.plans_run, pooled.plans_run);
  EXPECT_EQ(serial.runs, pooled.runs);
  EXPECT_EQ(serial.total_drops, pooled.total_drops);
  EXPECT_EQ(serial.total_duplicates, pooled.total_duplicates);
  EXPECT_EQ(serial.total_rejoins, pooled.total_rejoins);
  ASSERT_EQ(serial.findings.size(), pooled.findings.size());
  for (std::size_t i = 0; i < serial.findings.size(); ++i) {
    const ChaosFinding& a = serial.findings[i];
    const ChaosFinding& b = pooled.findings[i];
    EXPECT_EQ(a.config_name, b.config_name);
    EXPECT_EQ(a.plan_seed, b.plan_seed);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.expected, b.expected);
    EXPECT_EQ(a.observed, b.observed);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.minimal_plan, b.minimal_plan);
    EXPECT_EQ(a.replay_schedule, b.replay_schedule);
  }
  ASSERT_EQ(serial.plan_failures.size(), pooled.plan_failures.size());
  for (std::size_t i = 0; i < serial.plan_failures.size(); ++i) {
    const runtime::FailureRecord& a = serial.plan_failures[i];
    const runtime::FailureRecord& b = pooled.plan_failures[i];
    EXPECT_EQ(a.realization, b.realization);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.message, b.message);
  }
}

TEST(Chaos, PooledSweepEqualsSerialAtJobs2And8) {
  // Benign and restart-heavy plans, plus two variants that fill the
  // report's other fields: long outages moved into the availability
  // window (findings, shrunk to replayable schedules) and restart bounds
  // no plan can meet (every plan throws: plan failures).
  ChaosOptions benign;
  benign.plans = 3;
  ChaosOptions restart = benign;
  restart.plans = 2;
  restart.plan_style = ChaosOptions::PlanStyle::kRestartHeavy;
  ChaosOptions late = benign;
  late.plans = 2;
  late.shape.window_from_s = late.des.horizon_s - late.des.settle_window_s;
  late.shape.max_site_flap_duration_s = late.des.settle_window_s;
  late.shape.max_crash_duration_s = late.des.settle_window_s;
  ChaosOptions throwing = restart;
  throwing.restart_shape.min_restarts = 0;

  std::vector<std::unique_ptr<runtime::EnsembleRunner>> runners;
  for (const unsigned jobs : {2u, 8u}) {
    runtime::EnsembleOptions options;
    options.jobs = jobs;
    runners.push_back(std::make_unique<runtime::EnsembleRunner>(options));
  }
  std::size_t findings = 0;
  std::size_t plan_failures = 0;
  for (const ChaosOptions& options : {benign, restart, late, throwing}) {
    const ChaosRunner chaos(options);
    for (const scada::Configuration& config :
         scada::paper_configurations("p", "b", "d")) {
      const ChaosReport serial = chaos.sweep(config);
      findings += serial.findings.size();
      plan_failures += serial.plan_failures.size();
      for (const auto& runner : runners) {
        SCOPED_TRACE(config.name + " at jobs " +
                     std::to_string(runner->pool().parallelism()));
        expect_same_report(serial, chaos.sweep(config, *runner));
      }
    }
  }
  EXPECT_GT(findings, 0u);
  EXPECT_EQ(plan_failures, 5u * 2u);
}

class CompromiseProbe
    : public ::testing::TestWithParam<scada::Configuration> {};

TEST_P(CompromiseProbe, DetectsAndShrinksToMinimalPlan) {
  const scada::Configuration config = GetParam();
  const ChaosRunner runner(small_sweep_options());
  const ChaosFinding finding = runner.compromise_probe(config);

  // Detection: a clean system is green analytically, but f+1 compromised
  // replicas forge a quorum and the DES observes the compromise.
  EXPECT_EQ(finding.expected, OperationalState::kGreen);
  EXPECT_EQ(finding.observed, OperationalState::kGray);

  // Shrinking strips the decoy crash and every redundant event, leaving
  // exactly the f+1 compromises that cause the violation.
  const int threshold = config.safety_threshold();
  ASSERT_EQ(finding.minimal_plan.events.size(),
            static_cast<std::size_t>(threshold));
  for (const sim::FaultEvent& e : finding.minimal_plan.events) {
    EXPECT_EQ(e.kind, sim::FaultKind::kCompromise);
  }

  // The printed schedule replays to the same minimal plan.
  EXPECT_EQ(sim::FaultPlan::parse_schedule(finding.replay_schedule),
            finding.minimal_plan);
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigurations, CompromiseProbe,
    ::testing::Values(scada::make_config_2("p"), scada::make_config_6("p")),
    [](const ::testing::TestParamInfo<scada::Configuration>& info) {
      return info.param.name == "2" ? "c2" : "c6";
    });

TEST(Chaos, ShrinkKeepsOnlyLoadBearingEvents) {
  const scada::Configuration config = scada::make_config_2("p");
  const ChaosRunner runner(small_sweep_options());

  threat::SystemState clean;
  clean.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  clean.intrusions.assign(config.sites.size(), 0);
  const OperationalState expected = evaluate(config, clean);

  sim::FaultPlan plan;
  plan.duplicate_probability = 0.05;
  plan.events.push_back(
      {sim::FaultKind::kCompromise, 120.0, 0.0, {0, 0}, 0, 0, 1.0});
  plan.events.push_back(
      {sim::FaultKind::kSkew, 30.0, 20.0, {0, 1}, 0, 0, 1.2});
  plan.events.push_back(
      {sim::FaultKind::kCrash, 40.0, 5.0, {0, 1}, 0, 0, 1.0});

  const sim::FaultPlan minimal =
      runner.shrink(config, clean, expected, plan);
  ASSERT_EQ(minimal.events.size(), 1u);
  EXPECT_EQ(minimal.events[0].kind, sim::FaultKind::kCompromise);
  EXPECT_EQ(minimal.duplicate_probability, 0.0);
  EXPECT_EQ(minimal.reorder_probability, 0.0);
}

}  // namespace
}  // namespace ct::core
