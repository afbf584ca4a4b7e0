// Ablation A4: discrete-event protocol simulation vs the analytic Table-I
// classifier, with per-configuration event/message costs. This is the
// evidence that the paper's state classification rules follow from
// protocol behaviour rather than being assumed.
//
// Every run in the corpus also executes on the verbatim reference engine
// (sim/reference_des.cpp): the table reports both engines' ms/run, the
// identity column asserts every outcome is field-identical, and the corpus
// totals are merged into BENCH_records.json as "bench_des" rows. The
// corpus is timed once per engine, so those rows have reps 1.
#include <iostream>

#include "core/evaluator.h"
#include "figure_bench.h"
#include "scada/configuration.h"
#include "sim/scada_des.h"
#include "threat/attacker.h"
#include "threat/scenario.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

int main() {
  std::cout << "=== A4: protocol simulation vs analytic classifier ===\n\n";

  sim::DesOptions options;
  options.horizon_s = 900.0;
  options.attack_time_s = 150.0;
  options.settle_window_s = 200.0;
  options.orange_gap_s = 100.0;
  options.pb.activation_delay_s = 180.0;
  options.pb.controller_outage_threshold_s = 15.0;
  options.pb.controller_check_interval_s = 3.0;
  options.bft.activation_delay_s = 180.0;
  options.bft.view_timeout_s = 8.0;

  util::TextTable table;
  table.set_columns({"config", "runs", "agreements", "events/run",
                     "messages/run", "ms/run", "ref ms/run", "identical"},
                    {util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});

  std::uint64_t total_runs = 0;
  std::uint64_t total_events = 0;
  double fast_s = 0.0;
  double reference_s = 0.0;
  bool all_identical = true;
  bool all_agree = true;

  const threat::GreedyWorstCaseAttacker attacker;
  sim::DesArena arena;
  for (const auto& config :
       scada::paper_configurations("primary", "backup", "dc")) {
    const sim::ScadaDes des(config, options);
    const std::size_t n = config.sites.size();
    std::size_t runs = 0;
    std::size_t agreements = 0;
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    bool identical = true;
    double fast_ms = 0.0;
    double reference_ms = 0.0;
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      threat::SystemState base;
      base.intrusions.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        base.site_status.push_back((mask >> i) & 1
                                       ? threat::SiteStatus::kFlooded
                                       : threat::SiteStatus::kUp);
      }
      for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
        const threat::SystemState attacked =
            attacker.attack(config, base, threat::capability_for(scenario));
        sim::DesOutcome outcome;
        fast_ms += 1e3 * bench::time_reps(1, [&] {
                           outcome = des.run(attacked, arena);
                         }).median;
        sim::DesOutcome reference;
        reference_ms += 1e3 * bench::time_reps(1, [&] {
                                reference = des.run_reference(attacked);
                              }).median;
        identical = identical && sim::des_outcomes_identical(outcome,
                                                             reference);
        ++runs;
        events += outcome.events;
        messages += outcome.messages;
        if (outcome.observed == core::evaluate(config, attacked)) {
          ++agreements;
        }
      }
    }
    total_runs += runs;
    total_events += events;
    fast_s += fast_ms / 1000.0;
    reference_s += reference_ms / 1000.0;
    all_identical = all_identical && identical;
    all_agree = all_agree && agreements == runs;
    table.add_row({config.name, std::to_string(runs),
                   std::to_string(agreements),
                   std::to_string(events / runs),
                   std::to_string(messages / runs),
                   util::format_fixed(fast_ms / static_cast<double>(runs), 1),
                   util::format_fixed(
                       reference_ms / static_cast<double>(runs), 1),
                   identical ? "yes" : "NO"});
  }
  table.render(std::cout);
  std::cout << "\nexpected: agreements == runs for every configuration.\n";

  constexpr const char* kBench = "bench_des";
  std::vector<bench::BenchRow> rows = {
      bench::count_row(kBench, "des.runs", total_runs),
      bench::count_row(kBench, "des.events", total_events),
      bench::timing_row(kBench, "des.fast_s", "s", {1, fast_s, 0.0}),
      bench::timing_row(kBench, "des.reference_s", "s",
                        {1, reference_s, 0.0})};
  for (bench::BenchRow& row : rows) row.identical = all_identical;
  bench::write_bench_rows(rows);
  std::cout << "corpus, one timed pass per engine, merged into "
               "BENCH_records.json:\n";
  bench::print_bench_rows(std::cout, rows);
  std::cout << "derived: pooled "
            << static_cast<double>(total_events) / fast_s / 1e6
            << " M ev/s, " << reference_s / fast_s << "x the reference\n";
  return all_identical && all_agree ? 0 : 1;
}
