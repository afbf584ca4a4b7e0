// ChaosRunner: sweeps seeded benign fault plans over a SCADA configuration
// and checks two properties against each run of the protocol-level DES:
//
//   * the observed Table-I color equals the analytic evaluator's color —
//     benign faults (crash/restart, flapping, duplication, reordering,
//     clock skew) must not change the paper's classification;
//   * the InvariantMonitor reports no safety or liveness violation.
//
// Any failing plan is greedily shrunk to a minimal reproducer — a plan
// from which no single event (and no message impairment) can be removed
// without the failure disappearing — and recorded with its replayable
// schedule. The same machinery probes detection: an injected f+1
// compromise plan must be caught as a safety violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "sim/fault_injector.h"
#include "sim/scada_des.h"
#include "threat/scenario.h"

namespace ct::core {

/// Timeline tuned for chaos sweeps: the reduced schedule the protocol
/// tests use (every phase — detection, cold activation, settle — still
/// fits), with the liveness invariant armed.
sim::DesOptions chaos_des_options();

struct ChaosOptions {
  /// What the seeded plans stress: kBenign mixes mild crash/flap/skew
  /// windows; kRestartHeavy generates back-to-back crash/restart and
  /// site-bounce windows plus recovery-plane message loss, exercising the
  /// checkpoint / state-transfer / rejoin machinery.
  enum class PlanStyle { kBenign, kRestartHeavy };

  /// Seeded benign plans per configuration.
  int plans = 50;
  std::uint64_t base_seed = 20220627;
  /// Scenarios swept per plan (clean flood mask, worst-case attacker).
  std::vector<threat::ThreatScenario> scenarios{
      threat::ThreatScenario::kHurricane,
      threat::ThreatScenario::kHurricaneIntrusion,
      threat::ThreatScenario::kHurricaneIsolation,
      threat::ThreatScenario::kHurricaneIntrusionIsolation};
  sim::DesOptions des = chaos_des_options();
  PlanStyle plan_style = PlanStyle::kBenign;
  sim::BenignPlanShape shape{};
  sim::RestartPlanShape restart_shape{};
};

/// One confirmed failure: a (plan, scenario) pair whose run misclassified
/// or violated an invariant, with the plan already shrunk.
struct ChaosFinding {
  std::string config_name;
  std::uint64_t plan_seed = 0;
  threat::ThreatScenario scenario{};
  threat::OperationalState expected{};
  threat::OperationalState observed{};
  std::vector<std::string> violations;
  sim::FaultPlan minimal_plan;
  /// Replayable schedule of the minimal plan (FaultPlan::parse_schedule
  /// round-trips it).
  std::string replay_schedule;
};

struct ChaosReport {
  std::string config_name;
  int plans_run = 0;
  int runs = 0;
  std::uint64_t total_drops = 0;
  std::uint64_t total_duplicates = 0;
  /// Successful rejoin catch-ups summed over all runs (restart-heavy
  /// sweeps assert this is non-zero: the machinery actually exercised).
  int total_rejoins = 0;
  std::vector<ChaosFinding> findings;
  /// Plans whose DES run THREW (as opposed to misclassifying): each is
  /// contained as one failed plan — the other plans still sweep — and
  /// recorded here (realization = plan index, seed = options.base_seed).
  std::vector<runtime::FailureRecord> plan_failures;

  bool ok() const noexcept {
    return findings.empty() && plan_failures.empty();
  }
};

class ChaosRunner {
 public:
  explicit ChaosRunner(ChaosOptions options = {});

  /// Sweeps `options.plans` seeded benign plans x `options.scenarios`
  /// over one configuration, serially; any failure is shrunk and reported.
  ChaosReport sweep(const scada::Configuration& config) const;

  /// Runner-routed sweep: plans are simulated (and failing ones shrunk) on
  /// the runtime's work-stealing pool, one plan per task, and the report is
  /// folded in plan order — identical to the serial sweep at any --jobs
  /// value (each plan's RNG is a child of (base_seed, plan index)).
  ChaosReport sweep(const scada::Configuration& config,
                    runtime::EnsembleRunner& runtime) const;

  /// Runner-routed sweep of every configuration, one report each.
  std::vector<ChaosReport> sweep_all(
      const std::vector<scada::Configuration>& configs,
      runtime::EnsembleRunner& runtime) const;

  /// Detection probe: injects an f+1-replica compromise plan (strictly
  /// more intrusions than the architecture tolerates) into an otherwise
  /// clean run and returns the finding — callers assert that the safety
  /// violation IS detected and that the plan shrinks to exactly f+1
  /// compromise events.
  ChaosFinding compromise_probe(const scada::Configuration& config) const;

  /// Greedily shrinks `plan` to a minimal plan that still fails (color
  /// mismatch vs `expected` or any invariant violation) for the given
  /// attacked state. Public so reports/benches can re-shrink by hand.
  sim::FaultPlan shrink(const scada::Configuration& config,
                        const threat::SystemState& attacked,
                        threat::OperationalState expected,
                        const sim::FaultPlan& plan) const;

  const ChaosOptions& options() const noexcept { return options_; }

 private:
  bool fails(const scada::Configuration& config,
             const threat::SystemState& attacked,
             threat::OperationalState expected,
             const sim::FaultPlan& plan) const;

  ChaosReport sweep_impl(const scada::Configuration& config,
                         runtime::TaskPool& pool) const;

  ChaosOptions options_;
};

}  // namespace ct::core
