// ScadaDes: builds a protocol-level discrete-event simulation of any
// scada::Configuration, drives it through a compound-threat timeline
// (flooding at t=0, cyberattack at t=attack), observes the client-visible
// service, and classifies the run into the paper's operational states.
// This validates Table I from protocol behaviour instead of assuming it:
// tests assert ScadaDes's observed color == the analytic evaluator's color
// for every sampled scenario.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scada/configuration.h"
#include "sim/bft.h"
#include "sim/fault_injector.h"
#include "sim/invariants.h"
#include "sim/network.h"
#include "sim/primary_backup.h"
#include "sim/workload.h"
#include "threat/scenario.h"
#include "threat/system_state.h"

namespace ct::sim {

struct DesOptions {
  /// Timeline.
  double horizon_s = 1200.0;
  double attack_time_s = 200.0;
  /// Availability is judged over the final settle window
  /// [horizon - settle_window_s, horizon - 10].
  double settle_window_s = 200.0;
  /// A service gap longer than this marks the run orange (cold-backup
  /// activation takes minutes; hot takeover and view changes take seconds).
  double orange_gap_s = 120.0;

  PbOptions pb{};
  BftOptions bft{};
  NetworkOptions net{};
  double request_interval_s = 2.0;
  double request_timeout_s = 2.0;
  /// Client retransmissions per request (capped-backoff schedule; 0 = the
  /// paper's fire-and-forget polling).
  int request_retransmit_limit = 0;
  bool tracing = false;
  /// Hard cap on simulation events (storm guard; 0 = unlimited).
  std::uint64_t event_limit = 20000000;
  /// Liveness bound for the invariant monitor (0 disables the check).
  /// Safety invariants are always monitored.
  double liveness_gap_s = 0.0;
  /// Recovery allowance padded around injected fault windows before the
  /// liveness check treats a gap as unexplained.
  double liveness_pad_s = 30.0;
};

/// What one simulated run produced.
struct DesOutcome {
  threat::OperationalState observed = threat::OperationalState::kGreen;
  bool safety_violated = false;
  double max_outage_s = 0.0;
  double steady_availability = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  /// True when the run hit the event limit (protocol storm guard).
  bool truncated = false;
  /// Messages dropped by the network, broken down by cause.
  DropCounters drops;
  /// Extra deliveries injected by message duplication.
  std::uint64_t duplicates = 0;
  /// Protocol invariant violations observed by the InvariantMonitor
  /// (empty on a clean run; see sim/invariants.h).
  std::vector<std::string> invariant_violations;
  /// Availability per 60 s bucket over the whole run (-1 = no requests).
  std::vector<double> availability_timeline;
  std::vector<std::string> trace;

  // ---- recovery / state-transfer accounting (summed over replicas) ----
  /// Catch-up transfers that installed state (rejoins that converged).
  int rejoins = 0;
  /// Transfers that exhausted their retry budget (BFT: degraded to
  /// passive; PB: served fail-open from the local log).
  int rejoin_failures = 0;
  /// Extra transfer rounds beyond the first (retry pressure).
  int transfer_retry_rounds = 0;
  /// Slowest successful catch-up across all replicas (s).
  double max_catchup_s = 0.0;
  /// BFT replicas that ended the run degraded to passive.
  int passive_replicas = 0;
  /// Stable checkpoints formed, summed over BFT replicas.
  int stable_checkpoints = 0;

  // ---- wall-clock throughput (measurement only: des_outcomes_identical
  // and the DES goldens leave these two fields out) ----
  double sim_wall_ms = 0.0;
  double events_per_second = 0.0;
};

/// Field-for-field equality over everything the simulation computed: the
/// bit-identity predicate for an arena run vs a fresh one and for
/// observability on vs off. golden_test digests the same fields. The two
/// wall-clock measurement fields (sim_wall_ms, events_per_second) are
/// excluded; everything else, including the full trace and availability
/// timeline, must match exactly.
bool des_outcomes_identical(const DesOutcome& a, const DesOutcome& b);

/// Reusable simulator + network arena. A chaos sweep runs hundreds of
/// plans back-to-back; constructing the engine fresh each time re-pays the
/// event-slab, heap, and message-pool warmup. Passing one DesArena across
/// runs keeps that storage warm, and Simulator::reset()/Network::reset()
/// guarantee each run is observably identical to a fresh construction.
/// An arena is single-threaded: use one per worker (e.g. thread_local).
class DesArena {
 public:
  /// Re-arms the simulator for a fresh run. Call before network().
  Simulator& simulator() {
    sim_.reset();
    return sim_;
  }

  /// Builds (first run) or re-arms (subsequent runs) the network. Must be
  /// called after simulator() reset the event queue — pooled message slots
  /// referenced by pending deliveries are recycled here.
  Network& network(std::vector<int> nodes_per_site, NetworkOptions options) {
    if (net_ == nullptr) {
      net_ = std::make_unique<Network>(sim_, std::move(nodes_per_site),
                                       options);
    } else {
      net_->reset(std::move(nodes_per_site), options);
    }
    return *net_;
  }

  /// Pool occupancy probes for the zero-allocation assertions.
  Simulator::PoolStats simulator_stats() const { return sim_.pool_stats(); }
  Network::PoolStats network_stats() const {
    return net_ != nullptr ? net_->pool_stats() : Network::PoolStats{};
  }

 private:
  Simulator sim_;
  std::unique_ptr<Network> net_;
};

class ScadaDes {
 public:
  explicit ScadaDes(scada::Configuration config, DesOptions options = {});

  /// Simulates the compound threat described by `attacked_state` (aligned
  /// with the configuration's sites): kFlooded sites are down from t=0,
  /// kIsolated sites are cut at attack time, and `intrusions[i]` replicas
  /// at site i are compromised at attack time (lowest node index first —
  /// the initial primary/leader, the worst case).
  DesOutcome run(const threat::SystemState& attacked_state) const;

  /// Simulates the compound threat with a fault plan layered on top: the
  /// plan's events (crash/restart, flapping, skew, compromise) and message
  /// impairments (duplication, reordering) are armed before the run, and
  /// its crash/flap windows are excused from the liveness check.
  DesOutcome run(const threat::SystemState& attacked_state,
                 const FaultPlan& plan) const;

  /// Arena-reuse variants: identical results, but simulator/network
  /// storage is recycled from `arena` instead of constructed per run.
  DesOutcome run(const threat::SystemState& attacked_state,
                 DesArena& arena) const;
  DesOutcome run(const threat::SystemState& attacked_state,
                 const FaultPlan& plan, DesArena& arena) const;

  /// Convenience: derives the attacked state from a flood mask and an
  /// attacker capability via the paper's greedy worst-case attacker, then
  /// simulates it.
  DesOutcome run(const std::vector<bool>& site_flooded,
                 threat::AttackerCapability capability) const;

  const scada::Configuration& config() const noexcept { return config_; }
  const DesOptions& options() const noexcept { return options_; }

 private:
  DesOutcome run_impl(const threat::SystemState& attacked_state,
                      const FaultPlan* plan, DesArena& arena) const;

  scada::Configuration config_;
  DesOptions options_;
};

}  // namespace ct::sim
