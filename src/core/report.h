// Report rendering: turns ScenarioResults into the tables the bench
// binaries print (one per paper figure), and embeds the paper's published
// operational profiles so every bench can show measured-vs-paper deltas.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "util/table.h"

namespace ct::core {

/// One configuration's operational profile as published in the paper
/// (probabilities as fractions).
struct PaperProfile {
  std::string config;
  double green = 0.0;
  double orange = 0.0;
  double red = 0.0;
  double gray = 0.0;
};

/// The paper's published profiles for a figure id: "fig6" .. "fig11".
/// Throws std::invalid_argument for unknown ids.
const std::vector<PaperProfile>& paper_expected(std::string_view figure_id);

/// Renders config x {green, orange, red, gray} probabilities.
util::TextTable profile_table(const std::vector<ScenarioResult>& results);

/// Renders measured vs paper side by side with absolute deltas.
util::TextTable comparison_table(const std::vector<ScenarioResult>& results,
                                 const std::vector<PaperProfile>& expected);

/// Worst absolute probability delta between measured results and the
/// paper's expectation (used by benches to print a single fidelity score).
double max_abs_delta(const std::vector<ScenarioResult>& results,
                     const std::vector<PaperProfile>& expected);

/// Machine-readable CSV: figure, config, state, probability.
void write_profiles_csv(std::ostream& out, std::string_view figure_id,
                        const std::vector<ScenarioResult>& results);

/// Renders the quarantine ledger of degraded results: one row per failed
/// realization (config, realization index, seed, attempts, error code,
/// origin, message). Zero rows when every result completed cleanly.
util::TextTable failure_summary_table(
    const std::vector<ScenarioResult>& results);

/// Exit-code policy of analysis commands (ctctl and any script driving
/// it):
///   0 — success (every result clean; best-effort runs with quarantined
///       realizations but usable partial data also return 0);
///   3 — degraded under --strict: at least one realization quarantined;
///   4 — no data: realizations were attempted but NONE completed, so even
///       best-effort has nothing to report;
///   5 — interrupted but resumable: the sweep was cancelled (SIGINT/
///       SIGTERM) after a final checkpoint flush; rerun with --resume to
///       continue from the saved state.
/// (1 is runtime error, 2 is usage — assigned by the CLI itself.)
int analysis_exit_code(const std::vector<ScenarioResult>& results,
                       bool strict) noexcept;

/// Exit code of a checkpointed sweep: 5 when it was interrupted (the
/// partial results are NOT scored against strict/no-data policy — the
/// sweep is simply unfinished), otherwise analysis_exit_code.
int sweep_exit_code(const ResumableAnalysis& analysis, bool strict) noexcept;

}  // namespace ct::core
