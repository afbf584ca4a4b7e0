#include "figure_bench.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/case_study.h"
#include "core/report.h"
#include "scada/oahu.h"
#include "util/strings.h"

namespace ct::bench {

std::size_t bench_realizations() {
  if (const char* env = std::getenv("CT_BENCH_REALIZATIONS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 1000;  // the paper's ensemble size
}

unsigned bench_jobs() {
  if (const char* env = std::getenv("CT_BENCH_JOBS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 8;
}

namespace {

std::string record_json(const RuntimeBenchRecord& r) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out << '"' << r.name << "\": {"
      << "\"realizations\": " << r.realizations << ", \"jobs\": " << r.jobs
      << std::setprecision(4) << ", \"serial_s\": " << r.serial_s
      << ", \"parallel_s\": " << r.parallel_s << ", \"warm_s\": " << r.warm_s
      << std::setprecision(3) << ", \"speedup\": " << r.speedup()
      << ", \"identical\": " << (r.identical ? "true" : "false")
      << ", \"cache_lookups\": " << r.cache_lookups
      << ", \"cache_hits\": " << r.cache_hits
      << ", \"warm_hit_rate\": " << r.warm_hit_rate();
  if (r.fault_s > 0.0) {
    out << std::setprecision(4) << ", \"fault_s\": " << r.fault_s
        << ", \"fault_quarantined\": " << r.fault_quarantined
        << ", \"fault_retries\": " << r.fault_retries;
  }
  if (r.resumable_s > 0.0) {
    out << std::setprecision(4) << ", \"resumable_s\": " << r.resumable_s
        << ", \"checkpoint32_s\": " << r.checkpoint32_s
        << ", \"checkpoint_s\": " << r.checkpoint_s
        << ", \"checkpoint512_s\": " << r.checkpoint512_s
        << ", \"checkpoint_overhead\": " << r.checkpoint_overhead()
        << ", \"checkpoint_writes\": " << r.checkpoint_writes;
  }
  out << '}';
  return out.str();
}

std::string record_json(const SurgeBenchRecord& r) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out << '"' << r.name << "\": {"
      << "\"realizations\": " << r.realizations << std::setprecision(4)
      << ", \"reference_ms\": " << r.reference_ms
      << ", \"fast_ms\": " << r.fast_ms
      << ", \"smoothing_ms\": " << r.smoothing_ms
      << ", \"asset_bind_ms\": " << r.asset_bind_ms << std::setprecision(3)
      << ", \"speedup\": " << r.speedup()
      << ", \"active_nodes\": " << r.active_nodes
      << ", \"mesh_nodes\": " << r.mesh_nodes
      << ", \"identical\": " << (r.identical ? "true" : "false") << '}';
  return out.str();
}

std::string record_json(const DesBenchRecord& r) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out << '"' << r.name << "\": {"
      << "\"runs\": " << r.runs
      << ", \"events\": " << r.events << std::setprecision(4)
      << ", \"reference_s\": " << r.reference_s
      << ", \"fast_s\": " << r.fast_s << std::setprecision(0)
      << ", \"reference_events_per_s\": " << r.reference_events_per_s()
      << ", \"fast_events_per_s\": " << r.fast_events_per_s()
      << std::setprecision(3) << ", \"speedup\": " << r.speedup()
      << std::setprecision(4)
      << ", \"quorum_round_ms\": " << r.quorum_round_ms
      << ", \"sweep_reference_s\": " << r.sweep_reference_s
      << ", \"sweep_fast_s\": " << r.sweep_fast_s << std::setprecision(3)
      << ", \"sweep_speedup\": " << r.sweep_speedup()
      << ", \"sweep_runs\": " << r.sweep_runs
      << ", \"identical\": " << (r.identical ? "true" : "false") << '}';
  return out.str();
}

std::string record_json(const ObsBenchRecord& r) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out << '"' << r.name << "\": {" << std::setprecision(2)
      << "\"counter_inc_ns\": " << r.counter_inc_ns
      << ", \"counter_disabled_ns\": " << r.counter_disabled_ns
      << ", \"histogram_observe_ns\": " << r.histogram_observe_ns
      << ", \"span_ns\": " << r.span_ns
      << ", \"span_idle_ns\": " << r.span_idle_ns
      << ", \"des_runs\": " << r.des_runs << std::setprecision(4)
      << ", \"des_obs_off_s\": " << r.des_obs_off_s
      << ", \"des_obs_on_s\": " << r.des_obs_on_s << std::setprecision(3)
      << ", \"des_overhead\": " << r.des_overhead()
      << ", \"identical\": " << (r.identical ? "true" : "false") << '}';
  return out.str();
}

// The bench files are JSON objects with one record per line so every bench
// binary can update its own row with a line-level merge — no JSON parser
// needed, and `jq` still reads the whole file.
void merge_record_line(const std::string& path, const std::string& name,
                       const std::string& json) {
  std::vector<std::pair<std::string, std::string>> rows;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      std::string body{util::trim(line)};
      if (body.empty() || body == "{" || body == "}") continue;
      if (body.back() == ',') body.pop_back();
      if (body.size() < 2 || body.front() != '"') continue;  // not a record
      const std::size_t name_end = body.find('"', 1);
      if (name_end == std::string::npos) continue;
      const std::string row_name = body.substr(1, name_end - 1);
      if (row_name == name) continue;  // superseded by the new record
      rows.emplace_back(row_name, std::move(body));
    }
  }
  rows.emplace_back(name, json);

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << rows[i].second << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "}\n";
}

}  // namespace

void write_runtime_bench_record(const RuntimeBenchRecord& record,
                                const std::string& path) {
  merge_record_line(path, record.name, record_json(record));
}

void write_surge_bench_record(const SurgeBenchRecord& record,
                              const std::string& path) {
  merge_record_line(path, record.name, record_json(record));
}

void write_des_bench_record(const DesBenchRecord& record,
                            const std::string& path) {
  merge_record_line(path, record.name, record_json(record));
}

void write_obs_bench_record(const ObsBenchRecord& record,
                            const std::string& path) {
  merge_record_line(path, record.name, record_json(record));
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

  const auto timed_run = [&](core::CaseStudyRunner& runner) {
    const auto start = std::chrono::steady_clock::now();
    auto results = runner.run_configs(configs, scenario);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return std::pair(std::move(results), seconds);
  };

  // Cold serial reference: one worker, cache off — the pre-runtime code
  // path, and the baseline both for the speedup and for bit-identity.
  core::CaseStudyOptions serial_options;
  serial_options.realizations = realizations;
  serial_options.runtime.jobs = 1;
  serial_options.runtime.cache = false;
  core::CaseStudyRunner serial_runner =
      core::make_oahu_case_study(serial_options);
  const auto [serial_results, serial_s] = timed_run(serial_runner);

  // Cold parallel sweep on a fresh runner (nothing shared with the serial
  // one), then a warm replay on the same runner to measure the cache.
  core::CaseStudyOptions parallel_options;
  parallel_options.realizations = realizations;
  parallel_options.runtime.jobs = jobs;
  core::CaseStudyRunner parallel_runner =
      core::make_oahu_case_study(parallel_options);
  const auto [parallel_results, parallel_s] = timed_run(parallel_runner);
  const auto cold_stats = parallel_runner.runtime().cache_stats();
  const auto [warm_results, warm_s] = timed_run(parallel_runner);

  const bool identical = identical_outcomes(serial_results, parallel_results) &&
                         identical_outcomes(serial_results, warm_results);

  std::cout << "measured operational profiles:\n";
  core::profile_table(parallel_results).render(std::cout);

  const auto& expected = core::paper_expected(figure_id);
  std::cout << "\nmeasured vs paper:\n";
  core::comparison_table(parallel_results, expected).render(std::cout);

  const double delta = core::max_abs_delta(parallel_results, expected);
  std::cout << "\nmax |measured - paper| = "
            << util::format_fixed(delta * 100.0, 2) << " pp across all "
            << parallel_results.size() * 4 << " cells\n";

  // Hit rate of the warm replay alone (the cold pass is all misses by
  // construction, so folding it in would halve the number for no reason).
  const auto stats = parallel_runner.runtime().cache_stats();
  RuntimeBenchRecord record;
  record.name = "bench_" + figure_id;
  record.realizations = realizations;
  record.jobs = jobs;
  record.serial_s = serial_s;
  record.parallel_s = parallel_s;
  record.warm_s = warm_s;
  record.identical = identical;
  record.cache_lookups = stats.lookups - cold_stats.lookups;
  record.cache_hits = stats.hits - cold_stats.hits;
  write_runtime_bench_record(record);

  std::cout << "\nruntime: serial " << util::format_fixed(serial_s, 2)
            << " s, parallel(" << jobs << ") "
            << util::format_fixed(parallel_s, 2) << " s ("
            << util::format_fixed(record.speedup(), 2) << "x), warm replay "
            << util::format_fixed(warm_s, 3) << " s, cache "
            << record.cache_hits << "/" << record.cache_lookups << " hits ("
            << util::format_fixed(record.warm_hit_rate() * 100.0, 1)
            << "%)\n"
            << "parallel outcomes "
            << (identical ? "bit-identical to serial"
                          : "DIFFER FROM SERIAL — determinism violation")
            << "; record appended to BENCH_runtime.json\n\n";
  return identical ? 0 : 1;
}

}  // namespace ct::bench
