// Golden outputs: what the analysis commands print and what the protocol
// DES computes, pinned by digest.
//
// golden_outputs.txt: each command output runs at 1000 realizations
// through service::execute_request, the one code path behind both `ctctl`
// and `ctserved`, on one shared runtime (in-memory cache, no faults, no
// crash points). The digest covers the printed report and the exit code,
// not the cache-stats line. Printed percentages cannot see a last-bit
// change in the surge (a reordered smoothing sum, say), so one more entry,
// `realizations`, pins every double of the 1000 realizations the outputs
// are computed from. That entry is the one a different libm could move.
//
// des_golden_outputs.txt: one digest per DES run of every field
// des_outcomes_identical compares, that is, everything ScadaDes computes
// except its two wall-clock fields. The runs are the chaos corpora
// (benign and restart-heavy plans, generated as ChaosRunner generates
// them, for the 5 paper configurations at seeds {1, 2, 3}, 50 plans each),
// bench_table1's 80 plan-less flood-pattern x scenario runs, and one run
// past the cap of each capped backoff schedule. Next to
// them are bench_table1's reachable-state census and its evaluator vs
// transcription count. The DES draws no libm result (plans and jitter are
// uniform draws, backoff is a multiply and a min), so these digests do not
// depend on the math library. CT_DES_IDENTITY_PLANS checks the first N
// plans of each corpus (default 4; CI checks all 50).
//
// Each file holds one `name value` line per entry. On a mismatch the test
// says which entry moved and writes every actual line to
// <file stem>.actual in the working directory. To regenerate, copy that
// file over the committed one (the DES file from a run at
// CT_DES_IDENTITY_PLANS=50) and say in CHANGES.md which output changed and
// why.
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/chaos.h"
#include "core/evaluator.h"
#include "figure_bench.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "service/exec.h"
#include "sim/fault_injector.h"
#include "sim/scada_des.h"
#include "surge/realization.h"
#include "threat/attacker.h"
#include "util/digest.h"
#include "util/rng.h"

namespace ct {
namespace {

/// One committed golden file of `name value` lines. check() records each
/// actual line; finish() writes them all to `actual_path` when the test
/// has failed.
class GoldenFile {
 public:
  GoldenFile(std::string committed, std::string actual_path)
      : committed_(std::move(committed)),
        actual_path_(std::move(actual_path)) {
    std::ifstream in(committed_);
    for (std::string name, value; in >> name >> value;) want_[name] = value;
  }

  /// Fails when `name` is missing or its committed value differs; `what`,
  /// when given, describes the run on a mismatch.
  void check(const std::string& name, const std::string& value,
             const std::function<std::string()>& what = {}) {
    actual_ << name << ' ' << value << '\n';
    const auto it = want_.find(name);
    if (it == want_.end()) {
      ADD_FAILURE() << name << " is missing from " << committed_;
    } else if (it->second != value) {
      ADD_FAILURE() << name << " changed from " << it->second << " to "
                    << value << (what ? ": " + what() : "");
    }
  }

  void finish() {
    if (!::testing::Test::HasFailure()) return;
    std::ofstream(actual_path_) << actual_.str();
    ADD_FAILURE() << "actual values written to " << actual_path_;
  }

 private:
  std::string committed_;
  std::string actual_path_;
  std::map<std::string, std::string> want_;
  std::ostringstream actual_;
};

struct Golden {
  std::string name;
  service::Request request;
};

/// The pinned outputs, in run order: analyze at the defaults (Figs. 6-9),
/// with Kahe as backup (Figs. 10-11) and at +0.4 m sea level; downtime;
/// backup siting.
std::vector<Golden> goldens() {
  service::Request analyze;
  analyze.kind = service::RequestKind::kAnalyze;
  analyze.realizations = 1000;
  service::Request kahe = analyze;
  kahe.backup = "kahe_cc";
  service::Request slr = analyze;
  slr.sea_level_offset_m = 0.4;
  service::Request downtime = analyze;
  downtime.kind = service::RequestKind::kDowntime;
  service::Request siting = analyze;
  siting.kind = service::RequestKind::kSiting;
  return {{"analyze", analyze},
          {"analyze_backup_kahe_cc", kahe},
          {"analyze_slr_0.4", slr},
          {"downtime", downtime},
          {"siting", siting}};
}

/// Digest of every field of every realization, doubles as their bits.
std::string realizations_digest(
    const std::vector<surge::HurricaneRealization>& batch) {
  util::Digest d;
  for (const surge::HurricaneRealization& r : batch) {
    d.u64(r.index).f64(r.peak_wind_ms).f64(r.max_shoreline_wse_m);
    for (const surge::AssetImpact& a : r.impacts) {
      d.str(a.asset_id).u64(a.shoreline_station).f64(a.shoreline_wse_m);
      d.f64(a.water_level_m).f64(a.inundation_depth_m).boolean(a.failed);
      d.f64(a.peak_wind_ms).boolean(a.wind_failed);
    }
  }
  return d.hex();
}

TEST(Golden, CommandOutputsMatchCommittedDigests) {
  GoldenFile golden(CT_GOLDEN_FILE, "golden_outputs.actual");
  core::CaseStudyOptions defaults;
  defaults.runtime.jobs = bench::test_jobs(4);
  defaults.runtime.fault_spec = "none";
  runtime::EnsembleRunner shared(defaults.runtime);
  runtime::CheckpointOptions ckpt;
  ckpt.crash_spec = "none";

  // Requests with one session key share a case study, as on the server.
  std::map<std::string, std::unique_ptr<core::CaseStudyRunner>> sessions;
  for (const Golden& request : goldens()) {
    auto& session = sessions[service::session_key(request.request, defaults)];
    if (!session) {
      session = service::make_case_study(request.request, defaults, &shared);
    }
    const service::ExecOutcome out =
        service::execute_request(request.request, *session, ckpt);
    util::Digest d;
    d.str(out.output).i64(out.exit_code);
    golden.check(request.name, d.hex(), [&] {
      return "exit code " + std::to_string(out.exit_code) +
             ", it printed:\n" + out.output;
    });
  }
  // The default session's realizations, run on the shared pool.
  const core::CaseStudyRunner& session =
      *sessions[service::session_key(goldens().front().request, defaults)];
  std::vector<surge::HurricaneRealization> batch(
      session.options().realizations);
  shared.pool().parallel_for_each(batch.size(), 1, [&](std::size_t i) {
    batch[i] = session.engine().run(i);
  });
  golden.check("realizations", realizations_digest(batch), [] {
    return "a bit of the realizations the outputs are computed from moved";
  });
  golden.finish();
}

/// Digest of every field des_outcomes_identical compares: doubles as their
/// bits, strings length-framed, vectors with their sizes.
std::string des_digest(const sim::DesOutcome& o) {
  util::Digest d;
  d.u64(static_cast<std::uint64_t>(o.observed)).boolean(o.safety_violated);
  d.f64(o.max_outage_s).f64(o.steady_availability);
  d.u64(o.events).u64(o.messages).boolean(o.truncated);
  d.u64(o.drops.loss).u64(o.drops.site_down).u64(o.drops.isolation);
  d.u64(o.drops.link_down).u64(o.drops.crashed).u64(o.drops.in_flight);
  d.u64(o.drops.transfer_loss).u64(o.duplicates);
  d.u64(o.invariant_violations.size());
  for (const std::string& v : o.invariant_violations) d.str(v);
  d.u64(o.availability_timeline.size());
  for (const double a : o.availability_timeline) d.f64(a);
  d.u64(o.trace.size());
  for (const std::string& line : o.trace) d.str(line);
  d.i64(o.rejoins).i64(o.rejoin_failures).i64(o.transfer_retry_rounds);
  d.f64(o.max_catchup_s).i64(o.passive_replicas).i64(o.stable_checkpoints);
  return d.hex();
}

/// A scenario's name without spaces ("Hurricane+ServerIntrusion").
std::string scenario_slug(threat::ThreatScenario scenario) {
  std::string slug;
  for (const char c : threat::scenario_name(scenario)) {
    if (c != ' ') slug += c;
  }
  return slug;
}

/// Plans per (corpus, configuration, seed) that des_golden_outputs.txt
/// holds.
constexpr std::uint64_t kRecordedPlans = 50;

TEST(Golden, DesOutcomesMatchCommittedDigests) {
  GoldenFile golden(CT_DES_GOLDEN_FILE, "des_golden_outputs.actual");
  const std::uint64_t plans =
      bench::env_count("CT_DES_IDENTITY_PLANS", 4, kRecordedPlans);
  const auto configs = scada::paper_configurations("primary", "backup", "dc");
  const threat::GreedyWorstCaseAttacker attacker;
  sim::DesArena arena;

  // The chaos corpora: every paper configuration and seed, the plans
  // ChaosRunner generates, the threat scenario cycling with the plan.
  const sim::DesOptions chaos = core::chaos_des_options();
  const double window_to =
      std::max(10.0 + 1.0, chaos.horizon_s - chaos.settle_window_s - 60.0);
  const auto scenarios = threat::all_scenarios();
  for (const bool restart_heavy : {false, true}) {
    for (const scada::Configuration& config : configs) {
      const sim::ScadaDes des(config, chaos);
      std::vector<int> nodes_per_site;
      for (const scada::ControlSite& site : config.sites) {
        nodes_per_site.push_back(site.replicas);
      }
      threat::SystemState up;
      up.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
      up.intrusions.assign(config.sites.size(), 0);
      sim::BenignPlanShape benign_shape;
      benign_shape.window_to_s = window_to;
      sim::RestartPlanShape restart_shape;
      restart_shape.window_to_s =
          std::max(restart_shape.window_from_s + 1.0, window_to);

      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const util::Rng base_rng(seed, "chaos");
        for (std::uint64_t p = 0; p < plans; ++p) {
          util::Rng plan_rng = base_rng.child("plan", p);
          const sim::FaultPlan plan =
              restart_heavy ? sim::random_restart_plan(restart_shape,
                                                       nodes_per_site, plan_rng)
                            : sim::random_benign_plan(benign_shape,
                                                      nodes_per_site, plan_rng);
          const threat::ThreatScenario scenario =
              scenarios[p % scenarios.size()];
          const threat::SystemState attacked = attacker.attack(
              config, up, threat::capability_for(scenario));
          golden.check(
              std::string("chaos/") + (restart_heavy ? "restart" : "benign") +
                  "/" + config.name + "/seed" + std::to_string(seed) +
                  "/plan" + std::to_string(p),
              des_digest(des.run(attacked, plan, arena)), [&] {
                return "scenario " + scenario_slug(scenario) +
                       ", schedule:\n" + plan.to_schedule();
              });
        }
      }
    }
  }

  // bench_table1: the census of the states it sweeps, the evaluator
  // against the transcribed Table I over them, and its DES runs.
  std::size_t checked = 0;
  std::size_t disagreements = 0;
  for (const scada::Configuration& config : configs) {
    std::array<std::size_t, 4> colours{};  // in OperationalState order
    for (const threat::SystemState& s : bench::reachable_states(config)) {
      const threat::OperationalState state = core::evaluate(config, s);
      ++colours[static_cast<std::size_t>(state)];
      ++checked;
      if (state != core::evaluate_table1(config, s)) ++disagreements;
    }
    golden.check("table1/census/" + config.name,
                 "green=" + std::to_string(colours[0]) +
                     ",orange=" + std::to_string(colours[1]) +
                     ",red=" + std::to_string(colours[2]) +
                     ",gray=" + std::to_string(colours[3]));

    const sim::ScadaDes des(config, bench::table1_des_options());
    for (const bench::FloodScenario& run : bench::flood_scenarios(config)) {
      std::string flooded;  // '1' per flooded site, in site order
      for (std::size_t i = 0; i < config.sites.size(); ++i) {
        flooded += (run.mask >> i) & 1 ? '1' : '0';
      }
      golden.check("table1/des/" + config.name + "/flood" + flooded + "/" +
                       scenario_slug(run.scenario),
                   des_digest(des.run(run.attacked, arena)), [&] {
                     return "scenario " + scenario_slug(run.scenario);
                   });
    }
  }
  golden.check("table1/evaluator_vs_transcription",
               "checked=" + std::to_string(checked) +
                   ",disagreements=" + std::to_string(disagreements));

  // One run per capped backoff schedule whose outage outlasts the capped
  // retry, so a change to the capped part of the schedule moves a digest.
  // The state-transfer and PB-sync caps are out of reach at their shipped
  // round budgets (4 and 2 rounds: waits of at most 8 s and 1 s), so their
  // runs raise the budget.
  struct BackoffRun {
    std::string name;
    scada::Configuration config;
    std::vector<threat::SiteStatus> sites;
    std::function<void(sim::DesOptions&)> knob;
    std::string schedule;
  };
  const threat::SiteStatus up = threat::SiteStatus::kUp;
  const std::vector<BackoffRun> backoff_runs = {
      {"client-retransmit", scada::make_config_2("primary"), {up},
       [](sim::DesOptions& o) { o.request_retransmit_limit = 6; },
       "flap-site @30 0 +90\n"},
      {"pb-activation", scada::make_config_2_2("primary", "backup"),
       {threat::SiteStatus::kFlooded, up}, [](sim::DesOptions&) {},
       "flap-site @5 1 +90\n"},
      {"state-transfer", scada::make_config_6("primary"), {up},
       [](sim::DesOptions& o) { o.bft.state_transfer.max_rounds = 6; },
       "xferloss 0.7\ncrash @20 s0/n1 +10\n"},
      {"pb-sync", scada::make_config_2("primary"), {up},
       [](sim::DesOptions& o) { o.pb.sync.max_rounds = 5; },
       "crash @20 s0/n1 +10\ncrash @25 s0/n0 +20\n"},
  };
  for (const BackoffRun& run : backoff_runs) {
    sim::DesOptions options = core::chaos_des_options();
    run.knob(options);
    threat::SystemState state;
    state.site_status = run.sites;
    state.intrusions.assign(run.sites.size(), 0);
    golden.check("backoff/" + run.name + "/" + run.config.name,
                 des_digest(sim::ScadaDes(run.config, options)
                                .run(state,
                                     sim::FaultPlan::parse_schedule(
                                         run.schedule),
                                     arena)),
                 [&] { return "schedule:\n" + run.schedule; });
  }
  golden.finish();
  if (HasFailure() && plans < kRecordedPlans) {
    ADD_FAILURE() << "this run checked " << plans << " of " << kRecordedPlans
                  << " plans per corpus; regenerate at "
                     "CT_DES_IDENTITY_PLANS="
                  << kRecordedPlans;
  }
}

/// Converts to any field type, so T{AnyField{}...} counts T's fields.
struct AnyField {
  template <typename T>
  operator T() const;
};

/// Number of fields of the aggregate T.
template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

// A field that des_outcomes_identical compares but des_digest skips would
// let a DES change slip past the goldens. Each compared field of a real
// outcome, perturbed alone, must move both the predicate and the digest;
// the two wall-clock fields must move neither. The field counts stop a
// field added to DesOutcome without a line here.
TEST(Golden, DesDigestCoversEveryComparedField) {
  static_assert(field_count<sim::DesOutcome>() == 20 &&
                    field_count<sim::DropCounters>() == 7,
                "a DesOutcome field was added or removed: perturb it below "
                "and feed it to des_digest");
  const auto configs = scada::paper_configurations("primary", "backup", "dc");
  const scada::Configuration& config = configs[1];  // "2-2"
  const sim::ScadaDes des(config, bench::table1_des_options());
  const sim::DesOutcome real =
      des.run(bench::flood_scenarios(config).back().attacked);
  ASSERT_FALSE(real.availability_timeline.empty());
  const std::string real_digest = des_digest(real);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto up = [](double& x) { x = std::nextafter(x, kInf); };
  using Perturb = std::function<void(sim::DesOutcome&)>;
  const std::vector<std::pair<std::string, Perturb>> compared = {
      {"observed",
       [](sim::DesOutcome& o) {
         o.observed = o.observed == threat::OperationalState::kGreen
                          ? threat::OperationalState::kRed
                          : threat::OperationalState::kGreen;
       }},
      {"safety_violated",
       [](sim::DesOutcome& o) { o.safety_violated = !o.safety_violated; }},
      {"max_outage_s", [&](sim::DesOutcome& o) { up(o.max_outage_s); }},
      {"steady_availability",
       [&](sim::DesOutcome& o) { up(o.steady_availability); }},
      {"events", [](sim::DesOutcome& o) { ++o.events; }},
      {"messages", [](sim::DesOutcome& o) { ++o.messages; }},
      {"truncated", [](sim::DesOutcome& o) { o.truncated = !o.truncated; }},
      {"drops.loss", [](sim::DesOutcome& o) { ++o.drops.loss; }},
      {"drops.site_down", [](sim::DesOutcome& o) { ++o.drops.site_down; }},
      {"drops.isolation", [](sim::DesOutcome& o) { ++o.drops.isolation; }},
      {"drops.link_down", [](sim::DesOutcome& o) { ++o.drops.link_down; }},
      {"drops.crashed", [](sim::DesOutcome& o) { ++o.drops.crashed; }},
      {"drops.in_flight", [](sim::DesOutcome& o) { ++o.drops.in_flight; }},
      {"drops.transfer_loss",
       [](sim::DesOutcome& o) { ++o.drops.transfer_loss; }},
      {"duplicates", [](sim::DesOutcome& o) { ++o.duplicates; }},
      {"invariant_violations",
       [](sim::DesOutcome& o) { o.invariant_violations.push_back("x"); }},
      {"availability_timeline",
       [&](sim::DesOutcome& o) { up(o.availability_timeline.front()); }},
      {"trace", [](sim::DesOutcome& o) { o.trace.push_back("x"); }},
      {"rejoins", [](sim::DesOutcome& o) { ++o.rejoins; }},
      {"rejoin_failures", [](sim::DesOutcome& o) { ++o.rejoin_failures; }},
      {"transfer_retry_rounds",
       [](sim::DesOutcome& o) { ++o.transfer_retry_rounds; }},
      {"max_catchup_s", [&](sim::DesOutcome& o) { up(o.max_catchup_s); }},
      {"passive_replicas", [](sim::DesOutcome& o) { ++o.passive_replicas; }},
      {"stable_checkpoints",
       [](sim::DesOutcome& o) { ++o.stable_checkpoints; }},
  };
  for (const auto& [field, perturb] : compared) {
    sim::DesOutcome copy = real;
    perturb(copy);
    EXPECT_FALSE(sim::des_outcomes_identical(real, copy)) << field;
    EXPECT_NE(des_digest(copy), real_digest) << field;
  }
  const std::vector<std::pair<std::string, Perturb>> wall_clock = {
      {"sim_wall_ms", [&](sim::DesOutcome& o) { up(o.sim_wall_ms); }},
      {"events_per_second",
       [&](sim::DesOutcome& o) { up(o.events_per_second); }},
  };
  for (const auto& [field, perturb] : wall_clock) {
    sim::DesOutcome copy = real;
    perturb(copy);
    EXPECT_TRUE(sim::des_outcomes_identical(real, copy)) << field;
    EXPECT_EQ(des_digest(copy), real_digest) << field;
  }
}

}  // namespace
}  // namespace ct
