// Shared bench code: the driver of the figure-regeneration benches, the
// strict count reader behind the CT_BENCH_* and test environments, the
// Table-I state enumerators, and the one record schema every bench writes.
//
// Each figure bench reproduces one of the paper's evaluation figures
// (operational profiles of the five SCADA architectures under one threat
// scenario and siting), prints measured-vs-paper tables and the worst
// probability delta. It also runs the sweep once serially (--jobs 1, cache
// off) and once on the work-stealing pool, fails when the two outcome
// distributions differ, and prints the timings and the realizations the
// warm replay swept (0: it folds over the runner's table).
//
// Benches that keep a record (bench_micro, bench_des) write BenchRows:
// one measured quantity each, a median and its spread over repeated runs,
// merged into BENCH_records.json.
//
// Realization count defaults to the paper's 1000; set CT_BENCH_REALIZATIONS
// to override (e.g. 200 for a quick pass). CT_BENCH_JOBS sets the parallel
// worker count (default 8, at most runtime::TaskPool::kMaxJobs). Either
// one malformed, signed, zero or too large exits 2.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "scada/configuration.h"
#include "sim/scada_des.h"
#include "threat/scenario.h"
#include "threat/system_state.h"

namespace ct::bench {

/// Strict value of a positive count in the environment variable `name`:
/// unset gives `fallback`; a malformed, signed or zero value, or one above
/// `max`, exits 2.
std::uint64_t env_count(const char* name, std::uint64_t fallback,
                        std::uint64_t max);

/// Which backup control center the siting uses (the paper's two variants).
enum class Siting {
  kWaiau,  ///< Honolulu + Waiau + DRFortress (Figs. 6-9)
  kKahe,   ///< Honolulu + Kahe + DRFortress (Figs. 10-11)
};

/// Number of realizations to run (CT_BENCH_REALIZATIONS or 1000).
std::size_t bench_realizations();

/// Parallel worker count for the runtime measurement (CT_BENCH_JOBS, 1 to
/// runtime::TaskPool::kMaxJobs, or 8).
unsigned bench_jobs();

/// Worker count the tests add to their job matrix (CT_TEST_JOBS, 1 to
/// runtime::TaskPool::kMaxJobs), or `fallback` when unset.
unsigned test_jobs(unsigned fallback);

/// Every system state bench_table1 sweeps for `config`: each site up,
/// flooded or isolated, and 0-2 intrusions per site (3^n x 3^n states).
std::vector<threat::SystemState> reachable_states(
    const scada::Configuration& config);

/// One plan-less DES input of the Table-I cross-check: a flood pattern
/// (bit i set: site i flooded) under a threat scenario, as the paper's
/// greedy worst-case attacker leaves it.
struct FloodScenario {
  std::size_t mask = 0;
  threat::ThreatScenario scenario = threat::ThreatScenario::kHurricane;
  threat::SystemState attacked;
};

/// Every flood pattern of `config`'s sites under every threat scenario,
/// mask-major.
std::vector<FloodScenario> flood_scenarios(const scada::Configuration& config);

/// bench_table1's DES timeline: a 600 s horizon with the attack at 120 s
/// and 120 s cold-backup activation.
sim::DesOptions table1_des_options();

/// Median and MAD (median absolute deviation) over repeated readings.
struct Spread {
  std::size_t reps = 0;
  double median = 0.0;
  double mad = 0.0;
};

/// Spread of `readings` (all zero when there are none).
Spread spread_of(std::vector<double> readings);

/// Runs `body` `reps` times and returns the spread of its wall time, in
/// seconds.
Spread time_reps(std::size_t reps, const std::function<void()>& body);

/// One measured quantity. A timing's median and mad are over `reps` runs;
/// a count (unit "count") has reps 1 and mad 0. `identical` is the verdict
/// of the check that gates the group the row was measured in: a
/// bit-identity check, or bench_des's Table-I agreement.
struct BenchRow {
  std::string bench;   ///< binary that measured it ("bench_micro", ...)
  std::string metric;  ///< "surge.fast_ms", "des.events", ...
  std::string unit;    ///< "ms", "s", "ns", "ratio", "count", ...
  std::size_t reps = 1;
  double median = 0.0;
  double mad = 0.0;
  bool identical = false;
};

/// A timing row: `spread` is in seconds, and `scale` converts it to
/// `unit` (1e3 for ms, 1e3 / calls for ms per call).
BenchRow timing_row(std::string bench, std::string metric, std::string unit,
                    const Spread& spread, double scale = 1.0);

/// A count row: unit "count", reps 1, mad 0.
BenchRow count_row(std::string bench, std::string metric, std::uint64_t count);

/// Merges `rows` into `path`: every earlier row of a bench that `rows`
/// come from is replaced, including rows it no longer emits, and every
/// other bench's rows are kept byte for byte. The file is a JSON object
/// with one row per line, keyed "<bench>/<metric>" and sorted by key. A
/// row with a non-finite median or mad is left out with a warning, as
/// JSON has no inf or nan. An unreadable file is rebuilt.
void write_bench_rows(const std::vector<BenchRow>& rows,
                      const std::string& path = "BENCH_records.json");

/// Prints `rows` one per line: metric, median, unit, mad and reps, and
/// NOT IDENTICAL when the row's group failed its identity check.
void print_bench_rows(std::ostream& out, const std::vector<BenchRow>& rows);

/// Runs the figure bench: returns 0 when the parallel outcome
/// distributions are bit-identical to the serial ones (fidelity to the
/// paper is still reported, not asserted — EXPERIMENTS.md records the
/// deltas), 1 on a determinism violation.
int run_figure_bench(const std::string& figure_id,
                     threat::ThreatScenario scenario, Siting siting);

}  // namespace ct::bench
