// Ablation A2: Monte-Carlo convergence — why the paper ran 1000
// realizations. Sweeps the ensemble size and reports the Honolulu flood
// probability with its Wilson 95% interval plus the fig6-profile delta.
#include <iostream>

#include "core/case_study.h"
#include "terrain/oahu.h"
#include "core/report.h"
#include "scada/oahu.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

int main() {
  std::cout << "=== A2: realization-count convergence ===\n\n";

  // One engine; reuse the realization stream (realization i is identical
  // across sweep points by construction, like growing the paper's
  // ensemble).
  const scada::ScadaTopology topo = scada::oahu_topology();
  const surge::RealizationEngine engine(terrain::make_oahu_terrain(),
                                        topo.exposed_assets(), {});
  const std::vector<std::size_t> sweep = {50, 100, 200, 500, 1000, 2000};
  const std::size_t max_n = sweep.back();
  const auto batch = engine.run_batch(max_n);

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;

  util::TextTable table;
  table.set_columns({"N", "P(honolulu flooded)", "wilson 95% CI",
                     "fig6 max delta (pp)"},
                    {util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});

  for (const std::size_t n : sweep) {
    const std::vector<surge::HurricaneRealization> prefix(batch.begin(),
                                                          batch.begin() + n);
    std::size_t failures = 0;
    for (const auto& r : prefix) {
      if (r.asset_failed(scada::oahu_ids::kHonoluluCc)) ++failures;
    }
    const double p = static_cast<double>(failures) / static_cast<double>(n);
    const util::Interval ci = util::wilson_interval(failures, n);

    std::vector<core::ScenarioResult> results;
    for (const scada::Configuration& config : configs) {
      results.push_back(
          pipeline.analyze(config, threat::ThreatScenario::kHurricane, prefix));
    }
    const double delta =
        core::max_abs_delta(results, core::paper_expected("fig6"));

    // Appended piecewise: `"[" + std::string&&` trips a GCC 12 -Wrestrict
    // false positive at -O3.
    std::string interval = "[";
    interval += util::format_percent(ci.lo, 1);
    interval += ", ";
    interval += util::format_percent(ci.hi, 1);
    interval += "]";
    table.add_row({std::to_string(n), util::format_percent(p, 2), interval,
                   util::format_fixed(delta * 100.0, 2)});
  }
  table.render(std::cout);
  std::cout << "\npaper value: 9.5%; the interval should cover it from a few "
               "hundred realizations on,\nand the profile delta should "
               "shrink roughly as 1/sqrt(N).\n";
  return 0;
}
