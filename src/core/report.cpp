#include "core/report.h"

#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/csv.h"
#include "util/strings.h"

namespace ct::core {

namespace {

using threat::OperationalState;

/// The paper's published probabilities. The hurricane-only flood
/// probability of the Honolulu control center is 9.5% in the paper's
/// ADCIRC ensemble; every profile below is built from that number exactly
/// as the paper's Figures 6-11 report.
const std::vector<PaperProfile>& profiles_fig6() {
  static const std::vector<PaperProfile> v = {
      {"2", 0.905, 0.0, 0.095, 0.0},    {"2-2", 0.905, 0.0, 0.095, 0.0},
      {"6", 0.905, 0.0, 0.095, 0.0},    {"6-6", 0.905, 0.0, 0.095, 0.0},
      {"6+6+6", 0.905, 0.0, 0.095, 0.0}};
  return v;
}

const std::vector<PaperProfile>& profiles_fig7() {
  static const std::vector<PaperProfile> v = {
      {"2", 0.0, 0.0, 0.095, 0.905},    {"2-2", 0.0, 0.0, 0.095, 0.905},
      {"6", 0.905, 0.0, 0.095, 0.0},    {"6-6", 0.905, 0.0, 0.095, 0.0},
      {"6+6+6", 0.905, 0.0, 0.095, 0.0}};
  return v;
}

const std::vector<PaperProfile>& profiles_fig8() {
  static const std::vector<PaperProfile> v = {
      {"2", 0.0, 0.0, 1.0, 0.0},        {"2-2", 0.0, 0.905, 0.095, 0.0},
      {"6", 0.0, 0.0, 1.0, 0.0},        {"6-6", 0.0, 0.905, 0.095, 0.0},
      {"6+6+6", 0.905, 0.0, 0.095, 0.0}};
  return v;
}

const std::vector<PaperProfile>& profiles_fig9() {
  static const std::vector<PaperProfile> v = {
      {"2", 0.0, 0.0, 0.095, 0.905},    {"2-2", 0.0, 0.0, 0.095, 0.905},
      {"6", 0.0, 0.0, 1.0, 0.0},        {"6-6", 0.0, 0.905, 0.095, 0.0},
      {"6+6+6", 0.905, 0.0, 0.095, 0.0}};
  return v;
}

// Figures 10-11 use Kahe as the second control center. Kahe is never
// flooded in the paper's realizations, so the 9.5% red mass of the
// primary-backup configurations converts to orange and "6+6+6" becomes
// fully green.
const std::vector<PaperProfile>& profiles_fig10() {
  static const std::vector<PaperProfile> v = {
      {"2", 0.905, 0.0, 0.095, 0.0},    {"2-2", 0.905, 0.095, 0.0, 0.0},
      {"6", 0.905, 0.0, 0.095, 0.0},    {"6-6", 0.905, 0.095, 0.0, 0.0},
      {"6+6+6", 1.0, 0.0, 0.0, 0.0}};
  return v;
}

const std::vector<PaperProfile>& profiles_fig11() {
  static const std::vector<PaperProfile> v = {
      {"2", 0.0, 0.0, 0.095, 0.905},
      // With an always-dry backup there is always a functional server to
      // compromise: "2-2" is gray in every realization.
      {"2-2", 0.0, 0.0, 0.0, 1.0},
      {"6", 0.905, 0.0, 0.095, 0.0},
      {"6-6", 0.905, 0.095, 0.0, 0.0},
      {"6+6+6", 1.0, 0.0, 0.0, 0.0}};
  return v;
}

std::string pct(double p) { return util::format_percent(p, 1); }

}  // namespace

const std::vector<PaperProfile>& paper_expected(std::string_view figure_id) {
  if (figure_id == "fig6") return profiles_fig6();
  if (figure_id == "fig7") return profiles_fig7();
  if (figure_id == "fig8") return profiles_fig8();
  if (figure_id == "fig9") return profiles_fig9();
  if (figure_id == "fig10") return profiles_fig10();
  if (figure_id == "fig11") return profiles_fig11();
  throw std::invalid_argument("paper_expected: unknown figure id: " +
                              std::string(figure_id));
}

util::TextTable profile_table(const std::vector<ScenarioResult>& results) {
  util::TextTable table;
  table.set_columns({"config", "green", "orange", "red", "gray"},
                    {util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight});
  for (const ScenarioResult& r : results) {
    table.add_row({r.config_name,
                   pct(r.outcomes.probability(OperationalState::kGreen)),
                   pct(r.outcomes.probability(OperationalState::kOrange)),
                   pct(r.outcomes.probability(OperationalState::kRed)),
                   pct(r.outcomes.probability(OperationalState::kGray))});
  }
  return table;
}

namespace {
const PaperProfile* find_profile(const std::vector<PaperProfile>& expected,
                                 const std::string& config) {
  for (const PaperProfile& p : expected) {
    if (p.config == config) return &p;
  }
  return nullptr;
}
}  // namespace

util::TextTable comparison_table(const std::vector<ScenarioResult>& results,
                                 const std::vector<PaperProfile>& expected) {
  util::TextTable table;
  table.set_columns({"config", "state", "measured", "paper", "delta"},
                    {util::Align::kLeft, util::Align::kLeft,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight});
  bool first_config = true;
  for (const ScenarioResult& r : results) {
    const PaperProfile* p = find_profile(expected, r.config_name);
    if (p == nullptr) continue;
    const std::array<std::pair<OperationalState, double>, 4> rows = {
        {{OperationalState::kGreen, p->green},
         {OperationalState::kOrange, p->orange},
         {OperationalState::kRed, p->red},
         {OperationalState::kGray, p->gray}}};
    bool first = true;
    for (const auto& [state, paper_value] : rows) {
      const double measured = r.outcomes.probability(state);
      if (first && !first_config) table.add_separator();
      table.add_row({first ? r.config_name : "", std::string(state_name(state)),
                     pct(measured), pct(paper_value),
                     util::format_fixed((measured - paper_value) * 100.0, 1) +
                         " pp"});
      first = false;
    }
    first_config = false;
  }
  return table;
}

double max_abs_delta(const std::vector<ScenarioResult>& results,
                     const std::vector<PaperProfile>& expected) {
  double worst = 0.0;
  for (const ScenarioResult& r : results) {
    const PaperProfile* p = find_profile(expected, r.config_name);
    if (p == nullptr) continue;
    worst = std::max(
        worst,
        std::abs(r.outcomes.probability(OperationalState::kGreen) - p->green));
    worst = std::max(worst,
                     std::abs(r.outcomes.probability(OperationalState::kOrange) -
                              p->orange));
    worst = std::max(
        worst,
        std::abs(r.outcomes.probability(OperationalState::kRed) - p->red));
    worst = std::max(
        worst,
        std::abs(r.outcomes.probability(OperationalState::kGray) - p->gray));
  }
  return worst;
}

void write_profiles_csv(std::ostream& out, std::string_view figure_id,
                        const std::vector<ScenarioResult>& results) {
  util::CsvWriter csv(out);
  csv.header({"figure", "config", "scenario", "state", "probability"});
  for (const ScenarioResult& r : results) {
    for (const OperationalState s :
         {OperationalState::kGreen, OperationalState::kOrange,
          OperationalState::kRed, OperationalState::kGray}) {
      csv.field(figure_id)
          .field(r.config_name)
          .field(threat::scenario_name(r.scenario))
          .field(threat::state_name(s))
          .field(r.outcomes.probability(s));
      csv.end_row();
    }
  }
}

util::TextTable failure_summary_table(
    const std::vector<ScenarioResult>& results) {
  util::TextTable table;
  table.set_columns(
      {"config", "realization", "seed", "attempts", "code", "origin",
       "message"},
      {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
       util::Align::kRight, util::Align::kLeft, util::Align::kLeft,
       util::Align::kLeft});
  for (const ScenarioResult& r : results) {
    for (const runtime::FailureRecord& f : r.failures) {
      table.add_row({r.config_name, std::to_string(f.realization),
                     std::to_string(f.seed), std::to_string(f.attempts),
                     std::string(util::error_code_name(f.code)), f.origin,
                     f.message});
    }
  }
  return table;
}

int analysis_exit_code(const std::vector<ScenarioResult>& results,
                       bool strict) noexcept {
  bool degraded = false;
  for (const ScenarioResult& r : results) {
    if (r.attempted > 0 && r.completed == 0) return 4;  // nothing survived
    degraded = degraded || r.degraded();
  }
  if (degraded && strict) return 3;
  return 0;
}

int sweep_exit_code(const ResumableAnalysis& analysis, bool strict) noexcept {
  if (analysis.interrupted) return 5;
  return analysis_exit_code(analysis.results, strict);
}

}  // namespace ct::core
