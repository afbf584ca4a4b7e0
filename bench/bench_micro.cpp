// Microbenchmarks (google-benchmark) for the framework's hot paths: wind
// sampling, the surge envelope, a full hurricane realization, the analysis
// pipeline, the evaluators, and the ensemble runtime (task-pool dispatch,
// content digests, parallel outcome counting). These bound the cost of
// scaling the methodology (more realizations, finer meshes, larger
// ensembles).
//
// Before running the registered benchmarks, main() times the surge, DES,
// obs and runtime records (e.g. one small end-to-end sweep serially and on
// the pool) and merges them into the BENCH_*.json files, unless the run
// only lists the benchmarks. Only their bit-identity checks set the exit
// code.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string_view>
#include <vector>

#include "core/chaos.h"
#include "core/evaluator.h"
#include "core/pipeline.h"
#include "figure_bench.h"
#include "mesh/coastal_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/ensemble_runner.h"
#include "runtime/task_pool.h"
#include "scada/oahu.h"
#include "service/protocol.h"
#include "sim/scada_des.h"
#include "storm/generator.h"
#include "storm/holland.h"
#include "surge/realization.h"
#include "surge/surge_model.h"
#include "terrain/oahu.h"
#include "threat/attacker.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace ct;

namespace {

const terrain::Terrain& oahu() {
  static const auto terrain = terrain::make_oahu_terrain();
  return *terrain;
}

const surge::RealizationEngine& engine() {
  static const surge::RealizationEngine instance(
      terrain::make_oahu_terrain(), scada::oahu_topology().exposed_assets(),
      surge::RealizationConfig{});
  return instance;
}

runtime::EnsembleOptions runner_options(unsigned jobs, bool cache) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.cache = cache;
  return options;
}

void BM_HollandWindSample(benchmark::State& state) {
  const storm::HollandWindField field;
  storm::VortexParams vortex;
  vortex.central_pressure_pa = 96800.0;
  std::size_t i = 0;
  for (auto _ : state) {
    const geo::Vec2 point{static_cast<double>(i % 100) * 1000.0, 20000.0};
    benchmark::DoNotOptimize(field.sample(vortex, {0, 0}, {0, 6}, point));
    ++i;
  }
}
BENCHMARK(BM_HollandWindSample);

void BM_TerrainElevation(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const geo::Vec2 p{static_cast<double>(i % 200) * 200.0 - 20000.0,
                      static_cast<double>(i % 97) * 300.0 - 15000.0};
    benchmark::DoNotOptimize(oahu().elevation(p));
    ++i;
  }
}
BENCHMARK(BM_TerrainElevation);

void BM_CoastalMeshBuild(benchmark::State& state) {
  mesh::CoastalMeshConfig config;
  config.shore_spacing_m = 4000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::build_coastal_mesh(oahu(), config));
  }
}
BENCHMARK(BM_CoastalMeshBuild)->Unit(benchmark::kMillisecond);

/// One Oahu RealizationEngine construction (coastal mesh, inundation
/// mapper, bindings, harbor shelter rays): the setup every case study, and
/// every served session rebuild, pays.
void BM_EngineBuild(benchmark::State& state) {
  const std::shared_ptr<const terrain::Terrain> terrain =
      terrain::make_oahu_terrain();
  const std::vector<surge::ExposedAsset> assets =
      scada::oahu_topology().exposed_assets();
  for (auto _ : state) {
    const surge::RealizationEngine built(terrain, assets,
                                         surge::RealizationConfig{});
    benchmark::DoNotOptimize(built);
  }
}
BENCHMARK(BM_EngineBuild)->Unit(benchmark::kMicrosecond);

/// The reference full-mesh envelope (SurgeSolver::max_envelope).
void BM_SurgeEnvelope(benchmark::State& state) {
  const auto cm = mesh::build_coastal_mesh(oahu(), mesh::CoastalMeshConfig{});
  const storm::TrackGenerator generator{storm::TrackEnsembleConfig{}};
  const storm::StormTrack track = generator.generate(1, 0);
  const surge::SurgeSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.max_envelope(cm, track, oahu().projection()));
  }
}
BENCHMARK(BM_SurgeEnvelope)->Unit(benchmark::kMillisecond);

/// The production envelope kernel (pruned, active nodes only), round-robin
/// over the first 64 paper tracks because the pruning rate varies per
/// storm. Reports the share of node-steps it evaluated and of tile-steps it
/// bounded, counted over exactly one pass of the 64 tracks outside the
/// timed loop, so two runs read the same counters.
void BM_EnvelopeKernel(benchmark::State& state) {
  const surge::RealizationConfig& config = engine().config();
  const storm::TrackGenerator generator{config.ensemble};
  std::vector<storm::StormTrack> tracks;
  for (std::uint64_t i = 0; i < 64; ++i) {
    tracks.push_back(generator.generate(config.base_seed, i));
  }
  const geo::EnuProjection& proj = engine().terrain().projection();
  const surge::MeshBindings& bindings = engine().bindings();
  mesh::NodeField envelope;
  std::uint64_t steps = 0;
  std::uint64_t evals = 0;
  std::uint64_t bounds = 0;
  for (const storm::StormTrack& track : tracks) {
    const surge::EnvelopeWork work =
        bindings.accumulate_envelope(track, proj, envelope);
    steps += work.node_steps;
    evals += work.node_evals;
    bounds += work.tile_bounds;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    bindings.accumulate_envelope(tracks[i++ % tracks.size()], proj,
                                 envelope);
    benchmark::DoNotOptimize(envelope.data());
    benchmark::ClobberMemory();
  }
  // node_steps = active nodes x in-range steps, so this is tiles x steps.
  const double tile_steps = static_cast<double>(steps) *
                            static_cast<double>(bindings.tiles().size()) /
                            static_cast<double>(bindings.active_nodes().size());
  state.counters["evals_per_step"] =
      steps > 0 ? static_cast<double>(evals) / static_cast<double>(steps)
                : 0.0;
  state.counters["bounds_per_tile_step"] =
      tile_steps > 0.0 ? static_cast<double>(bounds) / tile_steps : 0.0;
}
BENCHMARK(BM_EnvelopeKernel)->Unit(benchmark::kMicrosecond);

void BM_FullRealization(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine().run(i++));
  }
}
BENCHMARK(BM_FullRealization)->Unit(benchmark::kMillisecond);

/// The legacy allocating pipeline — the denominator of the hot-path
/// speedup tracked in BENCH_surge.json.
void BM_FullRealizationReference(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine().run_reference(i++));
  }
}
BENCHMARK(BM_FullRealizationReference)->Unit(benchmark::kMillisecond);

/// In-place shoreline smoothing over the frozen plan (the copy of the
/// source envelope is part of the measured loop but is trivial next to
/// the passes themselves).
void BM_ShorelineSmoothing(benchmark::State& state) {
  const auto& cm = engine().coastal_mesh();
  const auto& bindings = engine().bindings();
  const storm::TrackGenerator generator{engine().config().ensemble};
  const storm::StormTrack track =
      generator.generate(engine().config().base_seed, 0);
  mesh::NodeField envelope;
  bindings.accumulate_envelope(track, engine().terrain().projection(),
                               envelope);
  mesh::NodeField field, scratch;
  for (auto _ : state) {
    field = envelope;
    mesh::shoreline_average_and_extend(cm, bindings.shoreline_plan(), field,
                                       scratch);
    benchmark::DoNotOptimize(field.data());
  }
}
BENCHMARK(BM_ShorelineSmoothing)->Unit(benchmark::kMicrosecond);

/// Asset binding: shoreline WSE -> per-asset impacts through the frozen
/// stencils (station lookup, decay, flood test).
void BM_AssetBind(benchmark::State& state) {
  const auto& bindings = engine().bindings();
  std::vector<double> shore_wse(engine().coastal_mesh().stations.size());
  for (std::size_t i = 0; i < shore_wse.size(); ++i) {
    shore_wse[i] = 0.5 + 0.001 * static_cast<double>(i % 700);
  }
  std::vector<surge::AssetImpact> impacts;
  for (auto _ : state) {
    bindings.impacts_into(shore_wse, impacts);
    benchmark::DoNotOptimize(impacts.data());
  }
}
BENCHMARK(BM_AssetBind)->Unit(benchmark::kMicrosecond);

void BM_PipelineOutcome(benchmark::State& state) {
  const auto realization = engine().run(0);
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.outcome_for(
        configs[i % configs.size()],
        threat::ThreatScenario::kHurricaneIntrusionIsolation, realization));
    ++i;
  }
}
BENCHMARK(BM_PipelineOutcome);

void BM_Evaluator(benchmark::State& state) {
  const auto config = scada::make_config_6_6_6("p", "b", "d");
  threat::SystemState s;
  s.site_status = {threat::SiteStatus::kUp, threat::SiteStatus::kIsolated,
                   threat::SiteStatus::kUp};
  s.intrusions = {1, 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate(config, s));
  }
}
BENCHMARK(BM_Evaluator);

void BM_GreedyAttack666(benchmark::State& state) {
  const auto config = scada::make_config_6_6_6("p", "b", "d");
  threat::SystemState base;
  base.site_status.assign(3, threat::SiteStatus::kUp);
  base.intrusions.assign(3, 0);
  const threat::GreedyWorstCaseAttacker attacker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacker.attack(config, base, {1, 1}));
  }
}
BENCHMARK(BM_GreedyAttack666);

// --- ensemble runtime -------------------------------------------------------

/// Pure dispatch overhead of the work-stealing pool: trivial per-element
/// work, so the numbers are dominated by queueing, stealing, and the batch
/// barrier. Arg = worker threads (1 = the inline serial path).
void BM_TaskPoolDispatch(benchmark::State& state) {
  runtime::TaskPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<std::uint64_t> out(1 << 14);
  for (auto _ : state) {
    pool.parallel_for_each(out.size(), 64, [&](std::size_t i) {
      out[i] = i * 0x9e3779b97f4a7c15ull;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TaskPoolDispatch)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

/// Guarded outcome counting over a pre-generated batch, cache off —
/// isolates the batch path's per-index classification and ascending fold
/// from realization generation. Arg = jobs.
void BM_EnsembleCount(benchmark::State& state) {
  static const runtime::GeneratedBatch batch = [] {
    runtime::EnsembleOptions options = runner_options(1, false);
    options.fault_spec = "none";
    return runtime::EnsembleRunner(options).generate_guarded(engine(), 64);
  }();
  const auto config = scada::make_config_6_6_6(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  runtime::EnsembleRunner runner(
      runner_options(static_cast<unsigned>(state.range(0)), false));
  const auto outcome = [&](const surge::HurricaneRealization& r) {
    return static_cast<int>(pipeline.outcome_for(
        config, threat::ThreatScenario::kHurricaneIntrusionIsolation, r));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner.count_outcomes_guarded([] { return &batch; }, outcome, ""));
  }
}
BENCHMARK(BM_EnsembleCount)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

/// Serving-mode framing overhead: encode + checksum + decode one
/// request-sized and one response-sized frame (a few-KiB analysis report).
/// Bounds what `ctctl --connect` pays over a local run besides the socket.
void BM_WireFrameRoundTrip(benchmark::State& state) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.topology_csv = std::string(static_cast<std::size_t>(state.range(0)),
                                     'x');
  std::uint32_t id = 1;
  for (auto _ : state) {
    const std::string bytes = service::encode_frame(
        service::FrameType::kRequest, id++, service::encode_request(request));
    service::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    service::Frame frame;
    decoder.next(frame);
    benchmark::DoNotOptimize(service::decode_request(frame.payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WireFrameRoundTrip)->Arg(0)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

// --- DES engine -------------------------------------------------------------

/// The busiest protocol configuration (three interleaved BFT sites), so
/// the event loop and message pool dominate the measurement.
const scada::Configuration& des_config() {
  static const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  for (const auto& config : configs) {
    if (config.name == "6+6+6") return config;
  }
  return configs.back();
}

/// Worst-case compound threat (one intrusion + one isolation, no flood):
/// exercises compromise, site isolation, view changes, and recovery.
threat::SystemState des_attacked_state(const scada::Configuration& config) {
  threat::SystemState base;
  base.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  base.intrusions.assign(config.sites.size(), 0);
  return threat::GreedyWorstCaseAttacker{}.attack(config, base, {1, 1});
}

/// Full ScadaDes runs on the pooled engine, one arena across iterations —
/// the steady-state (allocation-free) event loop. items/s == events/s.
void BM_DesEventLoop(benchmark::State& state) {
  const sim::ScadaDes des(des_config(), core::chaos_des_options());
  const threat::SystemState attacked = des_attacked_state(des.config());
  sim::DesArena arena;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const sim::DesOutcome outcome = des.run(attacked, arena);
    events += outcome.events;
    benchmark::DoNotOptimize(outcome.observed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_DesEventLoop)->Unit(benchmark::kMillisecond);

/// The same runs through the verbatim pre-overhaul engine
/// (sim/reference_des.cpp) — the denominator of the >=3x speedup gate.
void BM_DesEventLoopReference(benchmark::State& state) {
  const sim::ScadaDes des(des_config(), core::chaos_des_options());
  const threat::SystemState attacked = des_attacked_state(des.config());
  std::uint64_t events = 0;
  for (auto _ : state) {
    const sim::DesOutcome outcome = des.run_reference(attacked);
    events += outcome.events;
    benchmark::DoNotOptimize(outcome.observed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_DesEventLoopReference)->Unit(benchmark::kMillisecond);

/// One f=1 BFT group driven request -> proposal -> quorum -> execute, a
/// round per iteration: isolates the indexed vote/checkpoint bookkeeping
/// from the rest of the simulation.
void BM_BftQuorumRound(benchmark::State& state) {
  sim::Simulator sim;
  sim::Network net(sim, {4, 1});
  sim::BftOptions options;
  options.f = 1;
  options.k = 0;
  const std::vector<sim::NodeAddr> group = sim::interleaved_group({0}, {4});
  std::vector<std::unique_ptr<sim::BftReplica>> replicas;
  for (std::size_t i = 0; i < group.size(); ++i) {
    replicas.push_back(std::make_unique<sim::BftReplica>(
        sim, net, group[i], group, static_cast<int>(i), options, true));
  }
  for (auto& replica : replicas) replica->start();
  const sim::NodeAddr client{1, 0};
  net.register_handler(client, [](const sim::Message&) {});
  sim::Message request;
  request.type = sim::Message::Type::kRequest;
  request.sender = client;
  for (auto _ : state) {
    ++request.request_id;
    for (const sim::NodeAddr member : group) net.send(client, member, request);
    sim.run_until(sim.now() + 1.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BftQuorumRound)->Unit(benchmark::kMicrosecond);

/// A small but real chaos sweep (seeded benign plans, shrink machinery
/// armed) through the thread-local arena path in core/chaos.cpp.
void BM_ChaosSweep(benchmark::State& state) {
  core::ChaosOptions options;
  options.plans = 2;
  options.scenarios = {threat::ThreatScenario::kHurricaneIntrusion};
  const core::ChaosRunner runner(options);
  const scada::Configuration& config = des_config();
  for (auto _ : state) {
    const core::ChaosReport report = runner.sweep(config);
    benchmark::DoNotOptimize(report.runs);
  }
}
BENCHMARK(BM_ChaosSweep)->Unit(benchmark::kMillisecond);

/// The metrics hot path: one counter increment plus one histogram observe
/// per iteration — two relaxed shard adds when the registry is enabled.
/// Arg(0) runs with the registry disabled (the one-branch early-out).
void BM_MetricsHotPath(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  obs::Counter counter("bench.metrics_hot_path");
  obs::Histogram hist("bench.metrics_hot_path_us");
  std::uint64_t i = 0;
  for (auto _ : state) {
    counter.inc();
    hist.observe(i++ & 0xfff);
  }
  obs::set_enabled(was_enabled);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHotPath)->Arg(0)->Arg(1);

/// Span construct/destroy around a trivial region. Arg(0) is the
/// tracing-off cost every instrumented callsite pays when spans are idle;
/// Arg(1) records into the per-thread ring.
void BM_SpanOverhead(benchmark::State& state) {
  obs::set_trace_enabled(state.range(0) != 0);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    obs::Span span("bench.span_overhead");
    benchmark::DoNotOptimize(sink++);
  }
  obs::set_trace_enabled(false);
  obs::reset_trace_for_test();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanOverhead)->Arg(0)->Arg(1);

/// Times the pooled DES engine against the reference over the same run
/// corpus (plain runs + a chaos-style fault-plan sweep), checking every
/// outcome with des_outcomes_identical. Merged into BENCH_des.json.
bench::DesBenchRecord micro_des_record() {
  const scada::Configuration& config = des_config();
  const sim::DesOptions options = core::chaos_des_options();
  const sim::ScadaDes des(config, options);
  const threat::SystemState attacked = des_attacked_state(config);

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto seconds = [](auto start, auto end) {
    return std::chrono::duration<double>(end - start).count();
  };

  constexpr std::size_t kRuns = 10;
  std::vector<sim::DesOutcome> reference;
  reference.reserve(kRuns);
  const auto ref_start = now();
  for (std::size_t i = 0; i < kRuns; ++i) {
    reference.push_back(des.run_reference(attacked));
  }
  const auto ref_end = now();

  sim::DesArena arena;
  bool identical = true;
  std::uint64_t events = 0;
  const auto fast_start = now();
  for (std::size_t i = 0; i < kRuns; ++i) {
    const sim::DesOutcome fast = des.run(attacked, arena);
    events += fast.events;
    identical = identical && sim::des_outcomes_identical(fast, reference[i]);
  }
  const auto fast_end = now();

  // Quorum round: same microcosm as BM_BftQuorumRound, timed directly.
  double quorum_round_ms = 0.0;
  {
    sim::Simulator qsim;
    sim::Network qnet(qsim, {4, 1});
    sim::BftOptions bft;
    bft.f = 1;
    bft.k = 0;
    const std::vector<sim::NodeAddr> group = sim::interleaved_group({0}, {4});
    std::vector<std::unique_ptr<sim::BftReplica>> replicas;
    for (std::size_t i = 0; i < group.size(); ++i) {
      replicas.push_back(std::make_unique<sim::BftReplica>(
          qsim, qnet, group[i], group, static_cast<int>(i), bft, true));
    }
    for (auto& replica : replicas) replica->start();
    const sim::NodeAddr client{1, 0};
    qnet.register_handler(client, [](const sim::Message&) {});
    sim::Message request;
    request.type = sim::Message::Type::kRequest;
    request.sender = client;
    constexpr std::size_t kRounds = 2000;
    const auto q_start = now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      ++request.request_id;
      for (const sim::NodeAddr member : group) {
        qnet.send(client, member, request);
      }
      qsim.run_until(qsim.now() + 1.0);
    }
    quorum_round_ms = seconds(q_start, now()) * 1000.0 /
                      static_cast<double>(kRounds);
  }

  // Chaos-corpus sweep: the exact plans ChaosRunner would generate
  // (child RNG per plan index), through both engines.
  std::vector<int> nodes_per_site;
  for (const auto& site : config.sites) nodes_per_site.push_back(site.replicas);
  sim::BenignPlanShape shape;
  shape.window_to_s = std::max(shape.window_from_s + 1.0,
                               options.horizon_s - options.settle_window_s -
                                   60.0);
  constexpr std::size_t kPlans = 6;
  const util::Rng base_rng(1, "chaos");
  std::vector<sim::FaultPlan> plans;
  plans.reserve(kPlans);
  for (std::size_t p = 0; p < kPlans; ++p) {
    util::Rng plan_rng = base_rng.child("plan", p);
    plans.push_back(sim::random_benign_plan(shape, nodes_per_site, plan_rng));
  }
  std::vector<sim::DesOutcome> sweep_reference;
  sweep_reference.reserve(kPlans);
  const auto sweep_ref_start = now();
  for (const sim::FaultPlan& plan : plans) {
    sweep_reference.push_back(des.run_reference(attacked, plan));
  }
  const auto sweep_ref_end = now();
  const auto sweep_fast_start = now();
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const sim::DesOutcome fast = des.run(attacked, plans[p], arena);
    identical = identical &&
                sim::des_outcomes_identical(fast, sweep_reference[p]);
  }
  const auto sweep_fast_end = now();

  bench::DesBenchRecord record;
  record.name = "bench_micro";
  record.runs = kRuns;
  record.events = events;
  record.reference_s = seconds(ref_start, ref_end);
  record.fast_s = seconds(fast_start, fast_end);
  record.quorum_round_ms = quorum_round_ms;
  record.sweep_reference_s = seconds(sweep_ref_start, sweep_ref_end);
  record.sweep_fast_s = seconds(sweep_fast_start, sweep_fast_end);
  record.sweep_runs = kPlans;
  record.identical = identical;
  return record;
}

/// Times the ct_obs primitives per-op and the instrumented DES loop with
/// the registry enabled vs disabled — interleaved best-of-N, so scheduler
/// drift hits both variants equally. The enabled-but-idle overhead bound
/// (<2%) is asserted via the exit code in main(). Merged into
/// BENCH_obs.json.
bench::ObsBenchRecord micro_obs_record() {
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto seconds = [](auto start, auto end) {
    return std::chrono::duration<double>(end - start).count();
  };

  bench::ObsBenchRecord record;
  record.name = "bench_micro";

  // Per-op costs of the primitives (single thread, hot shard).
  constexpr std::uint64_t kOps = 2'000'000;
  obs::Counter counter("bench.obs_record_counter");
  obs::Histogram hist("bench.obs_record_hist");
  const auto per_op_ns = [&](auto&& op) {
    const auto start = now();
    for (std::uint64_t i = 0; i < kOps; ++i) op(i);
    return seconds(start, now()) * 1e9 / static_cast<double>(kOps);
  };
  obs::set_enabled(true);
  record.counter_inc_ns = per_op_ns([&](std::uint64_t) { counter.inc(); });
  record.histogram_observe_ns =
      per_op_ns([&](std::uint64_t i) { hist.observe(i & 0xfff); });
  obs::set_enabled(false);
  record.counter_disabled_ns =
      per_op_ns([&](std::uint64_t) { counter.inc(); });
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  record.span_ns = per_op_ns([&](std::uint64_t) {
    obs::Span span("bench.obs_record_span");
  });
  obs::set_trace_enabled(false);
  obs::reset_trace_for_test();
  record.span_idle_ns = per_op_ns([&](std::uint64_t) {
    obs::Span span("bench.obs_record_span");
  });

  // Enabled-but-idle cost on the DES hot loop: same corpus as
  // BM_DesEventLoop, obs on vs off interleaved, best-of-7 per variant.
  const sim::ScadaDes des(des_config(), core::chaos_des_options());
  const threat::SystemState attacked = des_attacked_state(des.config());
  sim::DesArena arena;
  constexpr std::size_t kRuns = 8;
  constexpr int kReps = 7;
  const auto timed_pass = [&]() {
    const auto start = now();
    for (std::size_t i = 0; i < kRuns; ++i) {
      const sim::DesOutcome outcome = des.run(attacked, arena);
      benchmark::DoNotOptimize(outcome.observed);
    }
    return seconds(start, now());
  };
  des.run(attacked, arena);  // warm the arena before timing anything
  double best_off = 0.0;
  double best_on = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::set_enabled(false);
    const double off = timed_pass();
    obs::set_enabled(true);
    const double on = timed_pass();
    best_off = rep == 0 ? off : std::min(best_off, off);
    best_on = rep == 0 ? on : std::min(best_on, on);
  }
  record.des_runs = kRuns;
  record.des_obs_off_s = best_off;
  record.des_obs_on_s = best_on;

  // Determinism: the instrumentation must not perturb outcomes.
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  const sim::DesOutcome on_outcome = des.run(attacked, arena);
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const sim::DesOutcome off_outcome = des.run(attacked, arena);
  record.identical = sim::des_outcomes_identical(on_outcome, off_outcome);
  obs::set_enabled(true);
  obs::reset_trace_for_test();
  return record;
}

/// Times one small sweep (all five paper configurations, one compound
/// scenario) over a pre-generated batch: the serial analyze against the
/// batch path, cold and cache-warm, and merges the record into
/// BENCH_runtime.json.
bench::RuntimeBenchRecord micro_runtime_record() {
  const std::size_t n = std::min<std::size_t>(bench::bench_realizations(), 200);
  const unsigned jobs = bench::bench_jobs();
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusionIsolation;
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;

  runtime::EnsembleOptions serial_options = runner_options(1, false);
  serial_options.fault_spec = "none";
  const runtime::GeneratedBatch batch =
      runtime::EnsembleRunner(serial_options).generate_guarded(engine(), n);

  const auto timed = [&](auto&& analyze) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::ScenarioResult> results;
    for (const auto& config : configs) results.push_back(analyze(config));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return std::pair(std::move(results), seconds);
  };

  const auto [serial_results, serial_s] = timed([&](const auto& config) {
    return pipeline.analyze(config, scenario, batch.realizations);
  });

  runtime::EnsembleRunner pooled(runner_options(jobs, true));
  const std::string digest = pooled.digest_engine_batch(engine(), n);
  const auto batch_path = [&](const auto& config) {
    return pipeline.analyze_lazy(config, scenario, [&] { return &batch; },
                                 pooled, digest);
  };
  const auto [parallel_results, parallel_s] = timed(batch_path);
  const auto cold_stats = pooled.cache_stats();
  const auto [warm_results, warm_s] = timed(batch_path);
  const auto stats = pooled.cache_stats();

  const auto identical = [&](const std::vector<core::ScenarioResult>& other) {
    for (std::size_t i = 0; i < serial_results.size(); ++i) {
      for (const auto s :
           {threat::OperationalState::kGreen, threat::OperationalState::kOrange,
            threat::OperationalState::kRed, threat::OperationalState::kGray}) {
        if (serial_results[i].outcomes.count(s) != other[i].outcomes.count(s)) {
          return false;
        }
      }
    }
    return true;
  };

  // Degraded path: quarantine-and-retry under an injected fault profile,
  // generation included (that is where the faults fire).
  runtime::EnsembleOptions fault_options = runner_options(jobs, false);
  fault_options.fault_spec = "throw:every=17";
  fault_options.max_retries = 1;
  runtime::EnsembleRunner faulty(fault_options);
  const auto fault_start = std::chrono::steady_clock::now();
  const runtime::GeneratedBatch degraded = faulty.generate_guarded(engine(), n);
  std::vector<core::ScenarioResult> fault_results;
  for (const auto& config : configs) {
    fault_results.push_back(pipeline.analyze_lazy(
        config, scenario, [&] { return &degraded; }, faulty, digest));
  }
  const double fault_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - fault_start)
                             .count();

  bench::RuntimeBenchRecord record;
  record.name = "bench_micro";
  record.realizations = n;
  record.jobs = jobs;
  record.serial_s = serial_s;
  record.parallel_s = parallel_s;
  record.warm_s = warm_s;
  record.identical = identical(parallel_results) && identical(warm_results);
  record.cache_lookups = stats.lookups - cold_stats.lookups;
  record.cache_hits = stats.hits - cold_stats.hits;
  record.fault_s = fault_s;
  record.fault_quarantined = degraded.ledger.failures.size();
  record.fault_retries = degraded.ledger.retries;
  for (const core::ScenarioResult& r : fault_results) {
    record.fault_retries += r.retries;
  }

  // Checkpointed runtime (PR 7): the fused run_resumable sweep — the whole
  // (5 configs x 1 scenario) matrix as one multi-series pass, generation
  // included, exactly what `ctctl analyze --checkpoint-dir` runs — with
  // checkpointing off (baseline) and journal-on at three intervals.
  runtime::SweepSpec sweep;
  sweep.digest = "bench-micro-checkpoint";
  sweep.count = n;
  for (const auto& config : configs) sweep.series.push_back(config.name);
  const auto sweep_outcome = [&](std::size_t series,
                                 const surge::HurricaneRealization& r) {
    return static_cast<int>(
        pipeline.outcome_for(configs[series], scenario, r));
  };
  namespace fs = std::filesystem;
  const std::string ckpt_dir =
      (fs::temp_directory_path() / "ct-bench-micro-ckpt").string();
  // Best-of-3 per variant: the sweeps are sub-second, so a single sample
  // is scheduler noise of the same order as the fsync cost being measured.
  const auto timed_sweep = [&](const runtime::CheckpointOptions& ckpt) {
    std::uint64_t writes = 0;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      if (!ckpt.dir.empty()) fs::remove_all(ckpt.dir);
      runtime::EnsembleOptions options = runner_options(jobs, false);
      options.fault_spec = "none";
      runtime::EnsembleRunner sweeper(options);
      const auto start = std::chrono::steady_clock::now();
      const runtime::ResumableReport report =
          sweeper.run_resumable(engine(), sweep, sweep_outcome, ckpt);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      writes = report.checkpoints;
      best = rep == 0 ? seconds : std::min(best, seconds);
    }
    return std::pair(writes, best);
  };
  record.resumable_s = timed_sweep(runtime::CheckpointOptions{}).second;
  const auto at_interval = [&](std::size_t interval) {
    runtime::CheckpointOptions ckpt;
    ckpt.dir = ckpt_dir;
    ckpt.interval = interval;
    ckpt.crash_spec = "none";
    return timed_sweep(ckpt);
  };
  record.checkpoint32_s = at_interval(32).second;
  const auto [default_writes, default_s] = at_interval(128);
  record.checkpoint_s = default_s;
  record.checkpoint_writes = default_writes;
  record.checkpoint512_s = at_interval(512).second;
  fs::remove_all(ckpt_dir);
  return record;
}

/// True when the two realizations agree on every bit the pipeline reads.
bool bit_identical(const surge::HurricaneRealization& a,
                   const surge::HurricaneRealization& b) {
  if (a.index != b.index || a.peak_wind_ms != b.peak_wind_ms ||
      a.max_shoreline_wse_m != b.max_shoreline_wse_m ||
      a.impacts.size() != b.impacts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.impacts.size(); ++i) {
    const auto& x = a.impacts[i];
    const auto& y = b.impacts[i];
    if (x.asset_id != y.asset_id || x.shoreline_station != y.shoreline_station ||
        x.shoreline_wse_m != y.shoreline_wse_m ||
        x.water_level_m != y.water_level_m ||
        x.inundation_depth_m != y.inundation_depth_m || x.failed != y.failed ||
        x.peak_wind_ms != y.peak_wind_ms || x.wind_failed != y.wind_failed) {
      return false;
    }
  }
  return true;
}

/// Times the realization hot path against the legacy pipeline (cold, same
/// indices), checks bit-identity, and isolates the two post-processing
/// kernels. Merged into BENCH_surge.json.
bench::SurgeBenchRecord micro_surge_record() {
  const std::size_t n = std::min<std::size_t>(bench::bench_realizations(), 100);
  const auto& eng = engine();

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto per_call_ms = [](auto start, auto end, std::size_t calls) {
    return std::chrono::duration<double, std::milli>(end - start).count() /
           static_cast<double>(calls);
  };

  std::vector<surge::HurricaneRealization> reference;
  reference.reserve(n);
  const auto ref_start = now();
  for (std::uint64_t i = 0; i < n; ++i) reference.push_back(eng.run_reference(i));
  const auto ref_end = now();

  surge::RealizationScratch scratch;
  bool identical = true;
  const auto fast_start = now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const surge::HurricaneRealization fast = eng.run(i, scratch);
    identical = identical && bit_identical(fast, reference[i]);
  }
  const auto fast_end = now();

  const auto& bindings = eng.bindings();
  const storm::TrackGenerator generator{eng.config().ensemble};
  const storm::StormTrack track = generator.generate(eng.config().base_seed, 0);
  mesh::NodeField envelope;
  bindings.accumulate_envelope(track, eng.terrain().projection(), envelope);

  constexpr std::size_t kKernelReps = 2000;
  mesh::NodeField field, field_scratch;
  const auto smooth_start = now();
  for (std::size_t i = 0; i < kKernelReps; ++i) {
    field = envelope;
    mesh::shoreline_average_and_extend(eng.coastal_mesh(),
                                       bindings.shoreline_plan(), field,
                                       field_scratch);
  }
  const auto smooth_end = now();

  std::vector<double> shore_wse;
  mesh::shoreline_values(eng.coastal_mesh(), field, shore_wse);
  std::vector<surge::AssetImpact> impacts;
  const auto bind_start = now();
  for (std::size_t i = 0; i < kKernelReps; ++i) {
    bindings.impacts_into(shore_wse, impacts);
  }
  const auto bind_end = now();

  bench::SurgeBenchRecord record;
  record.name = "bench_micro";
  record.realizations = n;
  record.reference_ms = per_call_ms(ref_start, ref_end, n);
  record.fast_ms = per_call_ms(fast_start, fast_end, n);
  record.smoothing_ms = per_call_ms(smooth_start, smooth_end, kKernelReps);
  record.asset_bind_ms = per_call_ms(bind_start, bind_end, kKernelReps);
  record.active_nodes = bindings.active_nodes().size();
  record.mesh_nodes = eng.coastal_mesh().mesh.node_count();
  record.identical = identical;
  return record;
}

/// True when the command line only asks for the benchmark list. Checked
/// before benchmark::Initialize, which strips the flags it recognizes.
bool only_lists_tests(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--benchmark_list_tests" ||
        arg == "--benchmark_list_tests=true" ||
        arg == "--benchmark_list_tests=1") {
      return true;
    }
  }
  return false;
}

/// Runs the surge, DES, obs and runtime records, prints them and merges
/// them into the BENCH_*.json files. Returns whether every bit-identity
/// check held; timings are reported, never gated.
bool run_records() {
  const bench::SurgeBenchRecord surge_record = micro_surge_record();
  bench::write_surge_bench_record(surge_record);
  std::cout << "realization hot path (" << surge_record.realizations
            << " cold realizations): reference "
            << util::format_fixed(surge_record.reference_ms, 2)
            << " ms, fast " << util::format_fixed(surge_record.fast_ms, 2)
            << " ms (" << util::format_fixed(surge_record.speedup(), 2)
            << "x), smoothing "
            << util::format_fixed(surge_record.smoothing_ms * 1000.0, 1)
            << " us, asset bind "
            << util::format_fixed(surge_record.asset_bind_ms * 1000.0, 1)
            << " us, active " << surge_record.active_nodes << "/"
            << surge_record.mesh_nodes << " nodes, "
            << (surge_record.identical ? "bit-identical" : "NOT IDENTICAL")
            << "; recorded in BENCH_surge.json\n";

  const bench::DesBenchRecord des_record = micro_des_record();
  bench::write_des_bench_record(des_record);
  std::cout << "DES engine (" << des_record.runs << " runs, "
            << des_record.events << " events): reference "
            << util::format_fixed(des_record.reference_s, 2) << " s ("
            << util::format_fixed(des_record.reference_events_per_s() / 1e6, 2)
            << " M ev/s), pooled "
            << util::format_fixed(des_record.fast_s, 2) << " s ("
            << util::format_fixed(des_record.fast_events_per_s() / 1e6, 2)
            << " M ev/s, " << util::format_fixed(des_record.speedup(), 2)
            << "x), quorum round "
            << util::format_fixed(des_record.quorum_round_ms * 1000.0, 1)
            << " us, plan sweep " << des_record.sweep_runs << " plans "
            << util::format_fixed(des_record.sweep_reference_s, 2) << " -> "
            << util::format_fixed(des_record.sweep_fast_s, 2) << " s ("
            << util::format_fixed(des_record.sweep_speedup(), 2) << "x), "
            << (des_record.identical ? "bit-identical" : "NOT IDENTICAL")
            << "; recorded in BENCH_des.json\n";

  const bench::ObsBenchRecord obs_record = micro_obs_record();
  bench::write_obs_bench_record(obs_record);
  // The target: enabled-but-idle observability costs the DES hot loop <2%.
  // One best-of-7 reading can still land past it on a noisy host, so it is
  // printed and recorded but does not set the exit code.
  const bool obs_cheap = obs_record.des_overhead() < 0.02;
  std::cout << "observability: counter inc "
            << util::format_fixed(obs_record.counter_inc_ns, 1) << " ns ("
            << util::format_fixed(obs_record.counter_disabled_ns, 1)
            << " ns disabled), histogram observe "
            << util::format_fixed(obs_record.histogram_observe_ns, 1)
            << " ns, span " << util::format_fixed(obs_record.span_ns, 1)
            << " ns (" << util::format_fixed(obs_record.span_idle_ns, 1)
            << " ns idle), DES loop " << obs_record.des_runs << " runs "
            << util::format_fixed(obs_record.des_obs_off_s, 4) << " -> "
            << util::format_fixed(obs_record.des_obs_on_s, 4) << " s ("
            << util::format_fixed(obs_record.des_overhead() * 100.0, 2)
            << "% with obs on, bound 2%"
            << (obs_cheap ? "" : ", EXCEEDED") << "), "
            << (obs_record.identical ? "bit-identical" : "NOT IDENTICAL")
            << "; recorded in BENCH_obs.json\n";

  const bench::RuntimeBenchRecord record = micro_runtime_record();
  bench::write_runtime_bench_record(record);
  std::cout << "ensemble sweep (" << record.realizations << " realizations): "
            << "serial " << util::format_fixed(record.serial_s, 2)
            << " s, parallel(" << record.jobs << ") "
            << util::format_fixed(record.parallel_s, 2) << " s ("
            << util::format_fixed(record.speedup(), 2) << "x), warm "
            << util::format_fixed(record.warm_s, 3) << " s, "
            << (record.identical ? "bit-identical" : "NOT IDENTICAL")
            << "; recorded in BENCH_runtime.json\n";
  std::cout << "fault isolation: fault path "
            << util::format_fixed(record.fault_s, 2) << " s with "
            << record.fault_quarantined << " quarantined / "
            << record.fault_retries << " retries\n";
  std::cout << "checkpointing: off "
            << util::format_fixed(record.resumable_s, 2) << " s, interval 32 "
            << util::format_fixed(record.checkpoint32_s, 2)
            << " s, interval 128 " << util::format_fixed(record.checkpoint_s, 2)
            << " s (" << util::format_fixed(record.checkpoint_overhead() * 100.0, 1)
            << "%, " << record.checkpoint_writes
            << " durable writes), interval 512 "
            << util::format_fixed(record.checkpoint512_s, 2) << " s\n";
  return record.identical && surge_record.identical && des_record.identical &&
         obs_record.identical;
}

}  // namespace

int main(int argc, char** argv) {
  const bool listing = only_lists_tests(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool identical = listing || run_records();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return identical ? 0 : 1;
}
