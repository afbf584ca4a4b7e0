#include "figure_bench.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "core/case_study.h"
#include "core/report.h"
#include "scada/oahu.h"
#include "threat/attacker.h"
#include "util/fsio.h"
#include "util/json_writer.h"
#include "util/strings.h"

namespace ct::bench {

std::uint64_t env_count(const char* name, std::uint64_t fallback,
                        std::uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<std::uint64_t> value = util::parse_u64(env, max);
  if (!value || *value == 0) {
    std::cerr << name << " expects a whole number from 1 to " << max
              << ", got '" << env << "'\n";
    std::exit(2);
  }
  return *value;
}

std::size_t bench_realizations() {
  // 1000 is the paper's ensemble size.
  return env_count("CT_BENCH_REALIZATIONS", 1000,
                   std::numeric_limits<std::size_t>::max());
}

unsigned bench_jobs() {
  return static_cast<unsigned>(
      env_count("CT_BENCH_JOBS", 8, runtime::TaskPool::kMaxJobs));
}

unsigned test_jobs(unsigned fallback) {
  return static_cast<unsigned>(
      env_count("CT_TEST_JOBS", fallback, runtime::TaskPool::kMaxJobs));
}

std::vector<threat::SystemState> reachable_states(
    const scada::Configuration& config) {
  std::vector<threat::SystemState> out;
  const std::size_t n = config.sites.size();
  std::size_t combos = 1;  // per axis: 3 statuses, and 0-2 intrusions
  for (std::size_t i = 0; i < n; ++i) combos *= 3;
  const std::array<threat::SiteStatus, 3> statuses = {
      threat::SiteStatus::kUp, threat::SiteStatus::kFlooded,
      threat::SiteStatus::kIsolated};
  for (std::size_t sc = 0; sc < combos; ++sc) {
    for (std::size_t ic = 0; ic < combos; ++ic) {
      threat::SystemState s;
      std::size_t sr = sc;
      std::size_t ir = ic;
      for (std::size_t i = 0; i < n; ++i) {
        s.site_status.push_back(statuses[sr % 3]);
        s.intrusions.push_back(static_cast<int>(ir % 3));
        sr /= 3;
        ir /= 3;
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<FloodScenario> flood_scenarios(
    const scada::Configuration& config) {
  std::vector<FloodScenario> out;
  const threat::GreedyWorstCaseAttacker attacker;
  const std::size_t n = config.sites.size();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    threat::SystemState base;
    base.intrusions.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      base.site_status.push_back((mask >> i) & 1 ? threat::SiteStatus::kFlooded
                                                 : threat::SiteStatus::kUp);
    }
    for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
      out.push_back({mask, scenario,
                     attacker.attack(config, base,
                                     threat::capability_for(scenario))});
    }
  }
  return out;
}

sim::DesOptions table1_des_options() {
  sim::DesOptions options;
  options.horizon_s = 600.0;
  options.attack_time_s = 120.0;
  options.settle_window_s = 150.0;
  options.orange_gap_s = 70.0;
  options.pb.activation_delay_s = 120.0;
  options.pb.controller_outage_threshold_s = 15.0;
  options.pb.controller_check_interval_s = 3.0;
  options.bft.activation_delay_s = 120.0;
  options.bft.view_timeout_s = 8.0;
  return options;
}

Spread spread_of(std::vector<double> readings) {
  Spread spread;
  spread.reps = readings.size();
  if (readings.empty()) return spread;
  const auto median_of = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  };
  spread.median = median_of(readings);
  for (double& r : readings) r = std::abs(r - spread.median);
  spread.mad = median_of(readings);
  return spread;
}

Spread time_reps(std::size_t reps, const std::function<void()>& body) {
  std::vector<double> readings;
  readings.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body();
    readings.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  return spread_of(std::move(readings));
}

BenchRow timing_row(std::string bench, std::string metric, std::string unit,
                    const Spread& spread, double scale) {
  return {std::move(bench), std::move(metric), std::move(unit), spread.reps,
          spread.median * scale, spread.mad * scale, false};
}

BenchRow count_row(std::string bench, std::string metric,
                   std::uint64_t count) {
  return {std::move(bench), std::move(metric), "count", 1,
          static_cast<double>(count), 0.0, false};
}

// The record file is a JSON object with one row per line, so a write is a
// line-level merge — no JSON parser needed, and `jq` or `json.load` still
// read the whole file.
void write_bench_rows(const std::vector<BenchRow>& rows,
                      const std::string& path) {
  std::set<std::string> replaced;  // "<bench>/" of every bench in `rows`
  for (const BenchRow& row : rows) replaced.insert(row.bench + "/");
  std::vector<std::pair<std::string, std::string>> lines;  // key, line
  if (const std::optional<std::string> text = util::read_file(path)) {
    std::istringstream in(*text);
    std::string line;
    while (std::getline(in, line)) {
      std::string body{util::trim(line)};
      if (body.size() < 2 || body.front() != '"') continue;  // not a row
      if (body.back() == ',') body.pop_back();
      const std::size_t key_end = body.find('"', 1);
      if (key_end == std::string::npos) continue;
      std::string key = body.substr(1, key_end - 1);
      const std::string bench = key.substr(0, key.find('/') + 1);
      if (replaced.count(bench) != 0) continue;
      lines.emplace_back(std::move(key), std::move(body));
    }
  }
  for (const BenchRow& row : rows) {
    if (!std::isfinite(row.median) || !std::isfinite(row.mad)) {
      std::cerr << "warning: " << row.bench << "/" << row.metric
                << " is not finite; row left out of " << path << "\n";
      continue;
    }
    std::string key = row.bench + "/" + row.metric;
    std::ostringstream out;
    out << '"' << util::json_escape(key) << "\": ";
    util::JsonWriter json(out);
    json.begin_object()
        .kv("bench", row.bench)
        .kv("metric", row.metric)
        .kv("unit", row.unit)
        .kv("reps", row.reps)
        .kv("median", row.median)
        .kv("mad", row.mad)
        .kv("identical", row.identical)
        .end_object();
    lines.emplace_back(std::move(key), out.str());
  }
  std::sort(lines.begin(), lines.end());

  std::string file = "{\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    file += lines[i].second + (i + 1 < lines.size() ? ",\n" : "\n");
  }
  file += "}\n";
  if (!util::atomic_write_file(path, file)) {
    std::cerr << "warning: cannot write " << path << "\n";
  }
}

void print_bench_rows(std::ostream& out, const std::vector<BenchRow>& rows) {
  for (const BenchRow& row : rows) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-30s %12.7g %-5s mad %-9.3g reps %zu%s\n",
                  row.metric.c_str(), row.median, row.unit.c_str(), row.mad,
                  row.reps, row.identical ? "" : "  NOT IDENTICAL");
    out << line;
  }
}

namespace {

/// Exact (count-level) equality of two result sets — the determinism
/// contract is bit-identical histograms, not close probabilities.
bool identical_outcomes(const std::vector<core::ScenarioResult>& a,
                        const std::vector<core::ScenarioResult>& b) {
  if (a.size() != b.size()) return false;
  constexpr threat::OperationalState kStates[] = {
      threat::OperationalState::kGreen, threat::OperationalState::kOrange,
      threat::OperationalState::kRed, threat::OperationalState::kGray};
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].outcomes.total() != b[i].outcomes.total()) return false;
    for (const threat::OperationalState s : kStates) {
      if (a[i].outcomes.count(s) != b[i].outcomes.count(s)) return false;
    }
  }
  return true;
}

}  // namespace

int run_figure_bench(const std::string& figure_id,
                     threat::ThreatScenario scenario, Siting siting) {
  const std::size_t realizations = bench_realizations();
  const unsigned jobs = bench_jobs();

  const std::string backup = siting == Siting::kWaiau
                                 ? scada::oahu_ids::kWaiauCc
                                 : scada::oahu_ids::kKaheCc;
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, backup, scada::oahu_ids::kDrFortress);

  std::cout << "=== " << figure_id << ": "
            << threat::scenario_name(scenario) << " (Honolulu + "
            << (siting == Siting::kWaiau ? "Waiau" : "Kahe")
            << " + DRFortress), " << realizations << " realizations ===\n\n";

  // One pass: the five configurations under the scenario, and the
  // realizations its sweep ran (0 when the table was already at hand).
  struct Pass {
    std::vector<core::ScenarioResult> results;
    double seconds = 0.0;
    std::uint64_t swept = 0;
  };
  const auto timed_run = [&](core::CaseStudyRunner& runner) {
    Pass pass;
    pass.seconds = time_reps(1, [&] {
                     core::ResumableAnalysis analysis =
                         runner.run_all_resumable(configs, {scenario}, {});
                     pass.results = std::move(analysis.results);
                     pass.swept = analysis.executed;
                   }).median;
    return pass;
  };

  // Cold serial reference: one worker, cache off — the pre-runtime code
  // path, and the baseline both for the speedup and for bit-identity.
  core::CaseStudyOptions serial_options;
  serial_options.realizations = realizations;
  serial_options.runtime.jobs = 1;
  serial_options.runtime.cache = false;
  core::CaseStudyRunner serial_runner =
      core::make_oahu_case_study(serial_options);
  const Pass serial = timed_run(serial_runner);

  // Cold parallel sweep on a fresh runner (nothing shared with the serial
  // one), then a warm replay on the same runner, a fold over its table.
  core::CaseStudyOptions parallel_options;
  parallel_options.realizations = realizations;
  parallel_options.runtime.jobs = jobs;
  core::CaseStudyRunner parallel_runner =
      core::make_oahu_case_study(parallel_options);
  const Pass parallel = timed_run(parallel_runner);
  const Pass warm = timed_run(parallel_runner);

  const bool identical = identical_outcomes(serial.results, parallel.results) &&
                         identical_outcomes(serial.results, warm.results);

  std::cout << "measured operational profiles:\n";
  core::profile_table(parallel.results).render(std::cout);

  const auto& expected = core::paper_expected(figure_id);
  std::cout << "\nmeasured vs paper:\n";
  core::comparison_table(parallel.results, expected).render(std::cout);

  const double delta = core::max_abs_delta(parallel.results, expected);
  std::cout << "\nmax |measured - paper| = "
            << util::format_fixed(delta * 100.0, 2) << " pp across all "
            << parallel.results.size() * 4 << " cells\n";

  const double speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
  std::cout << "\nruntime: serial " << util::format_fixed(serial.seconds, 2)
            << " s, parallel(" << jobs << ") "
            << util::format_fixed(parallel.seconds, 2) << " s ("
            << util::format_fixed(speedup, 2) << "x), warm replay "
            << util::format_fixed(warm.seconds, 3) << " s, swept "
            << warm.swept << " realization(s)\n"
            << "parallel outcomes "
            << (identical ? "bit-identical to serial"
                          : "DIFFER FROM SERIAL — determinism violation")
            << "\n\n";
  return identical ? 0 : 1;
}

}  // namespace ct::bench
