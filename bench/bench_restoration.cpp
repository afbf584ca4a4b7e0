// Extension bench: restoration costs behind the colors. The paper reports
// state probabilities; operators budget in hours. Converts each
// configuration x scenario profile into expected downtime, expected
// incorrect-operation hours, and p95 downtime under exponential repair
// time uncertainty.
#include <iostream>

#include "core/case_study.h"
#include "core/restoration.h"
#include "figure_bench.h"
#include "scada/oahu.h"
#include "threat/scenario.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

int main() {
  std::cout << "=== restoration costs (hours) per configuration x scenario "
               "===\n\n";
  core::CaseStudyOptions options;
  options.realizations = bench::bench_realizations();
  core::CaseStudyRunner runner = core::make_oahu_case_study(options);
  const runtime::FailureMasks& masks = *runner.masks();

  const core::RestorationModel model;
  std::cout << "model: cold activation " << model.activation_minutes
            << " min, flood repair " << model.flood_repair_hours
            << " h, isolation duration " << model.isolation_duration_hours
            << " h,\n       compromise detection "
            << model.compromise_detection_hours << " h, cleanup "
            << model.compromise_cleanup_hours << " h\n\n";

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);

  for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
    util::TextTable table;
    table.set_columns({"config", "E[downtime] h", "p95 downtime h",
                       "E[incorrect] h", "P(any downtime)"},
                      {util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});
    for (const auto& config : configs) {
      const core::RestorationResult r = core::analyze_restoration(
          config, scenario, masks, model, /*samples=*/4);
      table.add_row({config.name,
                     util::format_fixed(r.expected_downtime_hours, 2),
                     util::format_fixed(r.p95_downtime_hours, 2),
                     util::format_fixed(r.expected_incorrect_hours, 2),
                     util::format_percent(r.p_any_downtime, 1)});
    }
    std::cout << threat::scenario_name(scenario) << ":\n";
    table.render(std::cout);
    std::cout << "\n";
  }
  std::cout << "expected shape: \"6+6+6\" minimizes downtime in every "
               "scenario; \"2\"/\"2-2\" trade\ndowntime for incorrect-"
               "operation hours once intrusions appear (the worst cell).\n";
  return 0;
}
