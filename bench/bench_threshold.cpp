// Ablation A3: sensitivity to the asset-failure inundation threshold. The
// paper fixes 0.5 m ("the typical height for switches in power plants and
// substations"); this sweep shows how the case-study conclusions move if
// equipment were mounted lower or higher.
//
// Every threshold is a case study over the same storms, borrowing one
// EnsembleRunner (CT_BENCH_JOBS workers): from the second threshold on, the
// storm-stage memo binds the shared shoreline records instead of re-running
// the storms.
#include <iostream>
#include <memory>

#include "core/case_study.h"
#include "figure_bench.h"
#include "runtime/ensemble_runner.h"
#include "scada/oahu.h"
#include "terrain/oahu.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

int main() {
  std::cout << "=== A3: failure-threshold sweep (paper: 0.5 m) ===\n\n";

  const scada::ScadaTopology topo = scada::oahu_topology();
  const std::shared_ptr<const terrain::Terrain> island =
      terrain::make_oahu_terrain();
  runtime::EnsembleOptions runtime_options;
  runtime_options.jobs = bench::bench_jobs();
  runtime::EnsembleRunner shared(runtime_options);
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);

  util::TextTable table;
  table.set_columns({"threshold (m)", "P(honolulu)", "P(waiau)", "P(kahe)",
                     "\"2\" red", "\"6+6+6\" green"},
                    {util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});

  for (const double threshold :
       {0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5}) {
    core::CaseStudyOptions options;
    options.realizations = 500;
    options.realization.inundation.failure_threshold_m = threshold;
    core::CaseStudyRunner runner(topo, island, options, &shared);
    const auto rate = [&](const char* id) {
      return runner.asset_flood_probability(id);
    };
    const auto two = runner.run(configs[0], threat::ThreatScenario::kHurricane);
    const auto triple =
        runner.run(configs[4], threat::ThreatScenario::kHurricane);

    table.add_row(
        {util::format_fixed(threshold, 2),
         util::format_percent(rate(scada::oahu_ids::kHonoluluCc), 1),
         util::format_percent(rate(scada::oahu_ids::kWaiauCc), 1),
         util::format_percent(rate(scada::oahu_ids::kKaheCc), 1),
         util::format_percent(
             two.outcomes.probability(threat::OperationalState::kRed), 1),
         util::format_percent(
             triple.outcomes.probability(threat::OperationalState::kGreen),
             1)});
  }
  table.render(std::cout);
  std::cout << "\nexpected shape: flood probabilities fall monotonically "
               "with the threshold;\nKahe stays dry at every threshold "
               "(elevated site), preserving the siting conclusion.\n";
  return 0;
}
