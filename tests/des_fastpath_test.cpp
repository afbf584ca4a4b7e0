// The DesArena contract of the DES hot path (slab events, timer wheel,
// zero-copy messaging, flat quorum state): a warm arena runs allocation
// free, and a run on a reused arena equals a run on a fresh engine field
// for field (des_outcomes_identical). What the engine computes is pinned
// by golden_test against tests/des_golden_outputs.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/chaos.h"
#include "scada/configuration.h"
#include "sim/fault_injector.h"
#include "sim/scada_des.h"
#include "threat/attacker.h"
#include "threat/scenario.h"
#include "util/rng.h"

namespace ct::sim {
namespace {

threat::SystemState attacked_state(const scada::Configuration& config,
                                   threat::ThreatScenario scenario) {
  threat::SystemState base;
  base.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  base.intrusions.assign(config.sites.size(), 0);
  return threat::GreedyWorstCaseAttacker{}.attack(
      config, base, threat::capability_for(scenario));
}

// The zero-allocation steady state: once the arena is warmed by one run,
// re-running recycles every event slot and message slot — no slab growth,
// no pool misses, and no EventFn heap-fallback constructions.
TEST(DesFastPath, WarmArenaRunsAllocationFree) {
  const sim::DesOptions options = core::chaos_des_options();
  for (const auto& config :
       scada::paper_configurations("primary", "backup", "dc")) {
    const ScadaDes des(config, options);
    const threat::SystemState attacked = attacked_state(
        config, threat::ThreatScenario::kHurricaneIntrusionIsolation);

    DesArena arena;
    const DesOutcome cold = des.run(attacked, arena);  // warms the pools
    const std::uint64_t heap_before = EventFn::heap_allocations();
    const DesOutcome warm = des.run(attacked, arena);
    EXPECT_TRUE(des_outcomes_identical(cold, warm)) << config.name;

    const Simulator::PoolStats sim_stats = arena.simulator_stats();
    const Network::PoolStats net_stats = arena.network_stats();
    EXPECT_EQ(sim_stats.slab_grows, 0u) << config.name;
    EXPECT_EQ(net_stats.pool_misses, 0u) << config.name;
    EXPECT_EQ(EventFn::heap_allocations() - heap_before, 0u) << config.name;
    EXPECT_GT(net_stats.pool_hits, 0u) << config.name;
  }
}

// Arena reuse across *different* plans (the chaos-sweep pattern) must
// still be observably identical to fresh construction per run.
TEST(DesFastPath, ArenaReuseMatchesFreshConstruction) {
  const sim::DesOptions options = core::chaos_des_options();
  const auto configs = scada::paper_configurations("primary", "backup", "dc");
  const ScadaDes des(configs.back(), options);  // largest: 6+6+6
  std::vector<int> nodes_per_site;
  for (const scada::ControlSite& site : configs.back().sites) {
    nodes_per_site.push_back(site.replicas);
  }

  BenignPlanShape shape;
  shape.window_to_s = std::max(
      shape.window_from_s + 1.0,
      options.horizon_s - options.settle_window_s - 60.0);
  const util::Rng base_rng(7, "chaos");
  DesArena arena;
  for (int p = 0; p < 3; ++p) {
    util::Rng plan_rng =
        base_rng.child("plan", static_cast<std::uint64_t>(p));
    const FaultPlan plan =
        random_benign_plan(shape, nodes_per_site, plan_rng);
    const threat::SystemState attacked = attacked_state(
        configs.back(), threat::ThreatScenario::kHurricaneIntrusionIsolation);
    const DesOutcome pooled = des.run(attacked, plan, arena);
    const DesOutcome fresh = des.run(attacked, plan);
    EXPECT_TRUE(des_outcomes_identical(pooled, fresh)) << "plan " << p;
  }
}

}  // namespace
}  // namespace ct::sim
