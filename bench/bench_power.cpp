// Extension bench (paper §VII future work): operational profiles as a
// function of attacker power. Sweeps the per-attempt success probability
// from 0 (no attacker, Fig. 6) to 1 (the paper's worst case, Fig. 9) using
// the exact binomial mixture — showing how much of the worst-case loss
// materializes against weaker, more realistic adversaries.
#include <iostream>
#include <vector>

#include "core/attacker_power.h"
#include "core/case_study.h"
#include "figure_bench.h"
#include "scada/oahu.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

int main() {
  std::cout << "=== attacker-power sweep (extension of Figs. 6/9) ===\n\n";
  core::CaseStudyOptions options;
  options.realizations = bench::bench_realizations();
  core::CaseStudyRunner runner = core::make_oahu_case_study(options);
  // The power mixture reads whole realizations: run them on the pool.
  std::vector<surge::HurricaneRealization> realizations(options.realizations);
  runner.runtime().pool().parallel_for_each(
      realizations.size(), 1,
      [&](std::size_t i) { realizations[i] = runner.engine().run(i); });

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);

  for (const auto& config : configs) {
    util::TextTable table;
    table.set_columns({"attack success p", "green", "orange", "red", "gray"},
                      {util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});
    for (const double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      threat::AttackerPower power;
      power.intrusion_success = p;
      power.isolation_success = p;
      const core::PowerScenarioResult result =
          core::analyze_with_power(config, power, realizations);
      using threat::OperationalState;
      table.add_row(
          {util::format_fixed(p, 2),
           util::format_percent(
               result.outcomes.probability(OperationalState::kGreen), 1),
           util::format_percent(
               result.outcomes.probability(OperationalState::kOrange), 1),
           util::format_percent(
               result.outcomes.probability(OperationalState::kRed), 1),
           util::format_percent(
               result.outcomes.probability(OperationalState::kGray), 1)});
    }
    std::cout << "configuration \"" << config.name << "\":\n";
    table.render(std::cout);
    std::cout << "\n";
  }
  std::cout << "p=0 row must match fig6; p=1 row must match fig9. "
               "Intrusion-tolerant architectures\ndegrade gracefully; \"2\" "
               "and \"2-2\" lose green mass linearly in p.\n";
  return 0;
}
