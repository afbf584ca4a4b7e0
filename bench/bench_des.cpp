// Ablation A4: discrete-event protocol simulation vs the analytic Table-I
// classifier, with per-configuration event/message costs. This is the
// evidence that the paper's state classification rules follow from
// protocol behaviour rather than being assumed.
//
// The corpus (every flood pattern x threat scenario of the paper's
// configurations) runs once on one DesArena, and its totals are merged
// into BENCH_records.json as "bench_des" rows with reps 1. The exit code is
// the Table-I agreement: 1 when any run's observed state differs from the
// evaluator's. That verdict is also the rows' `identical` field.
#include <iostream>

#include "core/evaluator.h"
#include "figure_bench.h"
#include "scada/configuration.h"
#include "sim/scada_des.h"
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
                     "messages/run", "ms/run"},
                    {util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});

  std::uint64_t total_runs = 0;
  std::uint64_t total_events = 0;
  double fast_s = 0.0;
  bool all_agree = true;

  sim::DesArena arena;
  for (const auto& config :
       scada::paper_configurations("primary", "backup", "dc")) {
    const sim::ScadaDes des(config, options);
    std::size_t runs = 0;
    std::size_t agreements = 0;
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    double fast_ms = 0.0;
    for (const bench::FloodScenario& run : bench::flood_scenarios(config)) {
      sim::DesOutcome outcome;
      fast_ms += 1e3 * bench::time_reps(1, [&] {
                         outcome = des.run(run.attacked, arena);
                       }).median;
      ++runs;
      events += outcome.events;
      messages += outcome.messages;
      if (outcome.observed == core::evaluate(config, run.attacked)) {
        ++agreements;
      }
    }
    total_runs += runs;
    total_events += events;
    fast_s += fast_ms / 1000.0;
    all_agree = all_agree && agreements == runs;
    table.add_row({config.name, std::to_string(runs),
                   std::to_string(agreements),
                   std::to_string(events / runs),
                   std::to_string(messages / runs),
                   util::format_fixed(fast_ms / static_cast<double>(runs), 1)});
  }
  table.render(std::cout);
  std::cout << "\nexpected: agreements == runs for every configuration.\n";

  constexpr const char* kBench = "bench_des";
  std::vector<bench::BenchRow> rows = {
      bench::count_row(kBench, "des.runs", total_runs),
      bench::count_row(kBench, "des.events", total_events),
      bench::timing_row(kBench, "des.fast_s", "s", {1, fast_s, 0.0})};
  for (bench::BenchRow& row : rows) row.identical = all_agree;
  bench::write_bench_rows(rows);
  std::cout << "corpus, one timed pass, merged into BENCH_records.json:\n";
  bench::print_bench_rows(std::cout, rows);
  std::cout << "derived: pooled "
            << static_cast<double>(total_events) / fast_s / 1e6
            << " M ev/s\n";
  return all_agree ? 0 : 1;
}
