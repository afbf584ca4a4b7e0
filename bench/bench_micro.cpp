// Microbenchmarks (google-benchmark) for the framework's hot paths: wind
// sampling, the surge envelope, a full hurricane realization, the analysis
// pipeline, the evaluators, and the ensemble runtime (task-pool dispatch,
// content digests, the mask fold). These bound the cost of
// scaling the methodology (more realizations, finer meshes, larger
// ensembles).
//
// Before running the registered benchmarks, main() measures four record
// groups (realization hot path, DES engine, observability, checkpointed
// runtime), each timing row a median and MAD over repeated runs, prints
// them and merges them into BENCH_records.json, unless the run only lists
// the benchmarks. Only the groups' bit-identity checks set the exit code.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
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
/// speedup (surge.reference_ms over surge.fast_ms in BENCH_records.json).
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

/// One cell's fold over the mask table of 64 realizations, the table
/// projected onto the configuration's site flood patterns afresh each
/// time: what a cell costs once the sweep's table exists.
void BM_MaskFold(benchmark::State& state) {
  static const runtime::FailureMasks masks = [] {
    runtime::EnsembleOptions options = runner_options(1, false);
    options.fault_spec = "none";
    runtime::SweepSpec spec;
    spec.count = 64;
    return runtime::EnsembleRunner(options)
        .run_resumable(engine(), spec, runtime::CheckpointOptions{})
        .masks;
  }();
  const auto config = scada::make_config_6_6_6(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.fold(
        config, threat::ThreatScenario::kHurricaneIntrusionIsolation, masks,
        core::SitePatterns(config, masks).counts()));
  }
}
BENCHMARK(BM_MaskFold)->Unit(benchmark::kMicrosecond);

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

/// One f=1 BFT group and a client. Each round() drives one request ->
/// proposal -> quorum -> execute, isolating the indexed vote/checkpoint
/// bookkeeping from the rest of the simulation.
struct QuorumGroup {
  QuorumGroup() : net(sim, {4, 1}) {
    sim::BftOptions options;
    options.f = 1;
    options.k = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      replicas.push_back(std::make_unique<sim::BftReplica>(
          sim, net, group[i], group, static_cast<int>(i), options, true));
    }
    for (auto& replica : replicas) replica->start();
    net.register_handler(client, [](const sim::Message&) {});
    request.type = sim::Message::Type::kRequest;
    request.sender = client;
  }
  QuorumGroup(const QuorumGroup&) = delete;
  QuorumGroup& operator=(const QuorumGroup&) = delete;

  void round() {
    ++request.request_id;
    for (const sim::NodeAddr member : group) net.send(client, member, request);
    sim.run_until(sim.now() + 1.0);
  }

  sim::Simulator sim;
  sim::Network net;
  const std::vector<sim::NodeAddr> group = sim::interleaved_group({0}, {4});
  const sim::NodeAddr client{1, 0};
  std::vector<std::unique_ptr<sim::BftReplica>> replicas;
  sim::Message request;
};

void BM_BftQuorumRound(benchmark::State& state) {
  QuorumGroup quorum;
  for (auto _ : state) quorum.round();
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

// --- records ----------------------------------------------------------------

constexpr const char* kBench = "bench_micro";

/// Runs per timed record row: enough for a median and its spread.
constexpr std::size_t kReps = 5;

/// Stamps a group's bit-identity verdict on every one of its rows.
std::vector<bench::BenchRow> with_verdict(std::vector<bench::BenchRow> rows,
                                          bool identical) {
  for (bench::BenchRow& row : rows) row.identical = identical;
  return rows;
}

/// Times the pooled DES engine on one arena over a run corpus (plain runs
/// plus a chaos-style fault-plan sweep), checking every arena run against
/// a fresh-construction run of the same input with des_outcomes_identical
/// (the DesArena contract), and one BFT quorum round.
std::vector<bench::BenchRow> micro_des_rows() {
  const scada::Configuration& config = des_config();
  const sim::DesOptions options = core::chaos_des_options();
  const sim::ScadaDes des(config, options);
  const threat::SystemState attacked = des_attacked_state(config);

  constexpr std::size_t kRuns = 10;
  const sim::DesOutcome fresh = des.run(attacked);
  sim::DesArena arena;
  bool identical = true;
  std::uint64_t events = 0;  // per pass of kRuns runs
  const bench::Spread fast_s = bench::time_reps(kReps, [&] {
    events = 0;
    for (std::size_t i = 0; i < kRuns; ++i) {
      const sim::DesOutcome pooled = des.run(attacked, arena);
      events += pooled.events;
      identical = identical && sim::des_outcomes_identical(pooled, fresh);
    }
  });

  QuorumGroup quorum;
  constexpr std::size_t kRounds = 2000;
  const bench::Spread quorum_s = bench::time_reps(kReps, [&] {
    for (std::size_t round = 0; round < kRounds; ++round) quorum.round();
  });

  // Chaos-corpus sweep: the exact plans ChaosRunner would generate
  // (child RNG per plan index).
  std::vector<int> nodes_per_site;
  for (const auto& site : config.sites) nodes_per_site.push_back(site.replicas);
  sim::BenignPlanShape shape;
  shape.window_to_s = std::max(shape.window_from_s + 1.0,
                               options.horizon_s - options.settle_window_s -
                                   60.0);
  constexpr std::size_t kPlans = 6;
  const util::Rng base_rng(1, "chaos");
  std::vector<sim::FaultPlan> plans;
  std::vector<sim::DesOutcome> sweep_fresh;
  for (std::size_t p = 0; p < kPlans; ++p) {
    util::Rng plan_rng = base_rng.child("plan", p);
    plans.push_back(sim::random_benign_plan(shape, nodes_per_site, plan_rng));
    sweep_fresh.push_back(des.run(attacked, plans.back()));
  }
  const bench::Spread sweep_fast_s = bench::time_reps(kReps, [&] {
    for (std::size_t p = 0; p < plans.size(); ++p) {
      const sim::DesOutcome pooled = des.run(attacked, plans[p], arena);
      identical =
          identical && sim::des_outcomes_identical(pooled, sweep_fresh[p]);
    }
  });

  return with_verdict(
      {bench::count_row(kBench, "des.runs", kRuns),
       bench::count_row(kBench, "des.events", events),
       bench::timing_row(kBench, "des.fast_s", "s", fast_s),
       bench::timing_row(kBench, "des.quorum_round_us", "us", quorum_s,
                         1e6 / static_cast<double>(kRounds)),
       bench::count_row(kBench, "des.sweep_runs", kPlans),
       bench::timing_row(kBench, "des.sweep_fast_s", "s", sweep_fast_s)},
      identical);
}

/// Times the ct_obs primitives per op, and the instrumented DES loop with
/// the registry enabled vs disabled in interleaved pairs (alternating
/// which side runs first), so host drift hits both sides of each pair's
/// ratio. Checks that outcomes are bit-identical with obs on and off.
std::vector<bench::BenchRow> micro_obs_rows() {
  // Per-op costs of the primitives (single thread, hot shard).
  constexpr std::uint64_t kOps = 1'000'000;
  obs::Counter counter("bench.obs_record_counter");
  obs::Histogram hist("bench.obs_record_hist");
  const auto per_op = [&](std::string metric, auto&& op) {
    const bench::Spread spread = bench::time_reps(kReps, [&] {
      for (std::uint64_t i = 0; i < kOps; ++i) op(i);
    });
    return bench::timing_row(kBench, std::move(metric), "ns", spread,
                             1e9 / static_cast<double>(kOps));
  };
  std::vector<bench::BenchRow> rows;
  obs::set_enabled(true);
  rows.push_back(
      per_op("obs.counter_inc_ns", [&](std::uint64_t) { counter.inc(); }));
  rows.push_back(per_op("obs.histogram_observe_ns",
                        [&](std::uint64_t i) { hist.observe(i & 0xfff); }));
  obs::set_enabled(false);
  rows.push_back(per_op("obs.counter_disabled_ns",
                        [&](std::uint64_t) { counter.inc(); }));
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  rows.push_back(per_op("obs.span_ns", [&](std::uint64_t) {
    obs::Span span("bench.obs_record_span");
  }));
  obs::set_trace_enabled(false);
  obs::reset_trace_for_test();
  rows.push_back(per_op("obs.span_idle_ns", [&](std::uint64_t) {
    obs::Span span("bench.obs_record_span");
  }));

  // Enabled-but-idle cost on the DES hot loop: same corpus as
  // BM_DesEventLoop.
  const sim::ScadaDes des(des_config(), core::chaos_des_options());
  const threat::SystemState attacked = des_attacked_state(des.config());
  sim::DesArena arena;
  constexpr std::size_t kRuns = 8;
  constexpr std::size_t kPairs = 15;
  const auto pass_s = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    return bench::time_reps(1, [&] {
             for (std::size_t i = 0; i < kRuns; ++i) {
               const sim::DesOutcome outcome = des.run(attacked, arena);
               benchmark::DoNotOptimize(outcome.observed);
             }
           })
        .median;
  };
  des.run(attacked, arena);  // warm the arena before timing anything
  std::vector<double> off_s, on_s, overhead;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    const double first = pass_s(on_first);
    const double second = pass_s(!on_first);
    off_s.push_back(on_first ? second : first);
    on_s.push_back(on_first ? first : second);
    overhead.push_back(on_s.back() / off_s.back() - 1.0);
  }
  rows.push_back(bench::count_row(kBench, "obs.des_runs", kRuns));
  rows.push_back(bench::timing_row(kBench, "obs.des_off_s", "s",
                                   bench::spread_of(std::move(off_s))));
  rows.push_back(bench::timing_row(kBench, "obs.des_on_s", "s",
                                   bench::spread_of(std::move(on_s))));
  rows.push_back(bench::timing_row(kBench, "obs.des_overhead", "ratio",
                                   bench::spread_of(std::move(overhead))));

  // Determinism: the instrumentation must not perturb outcomes.
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  const sim::DesOutcome on_outcome = des.run(attacked, arena);
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const sim::DesOutcome off_outcome = des.run(attacked, arena);
  obs::set_enabled(true);
  obs::reset_trace_for_test();
  return with_verdict(std::move(rows),
                      sim::des_outcomes_identical(on_outcome, off_outcome));
}

/// Times the degraded path (the mask sweep, quarantining and retrying under
/// an injected fault profile, then the fold of all five paper
/// configurations x one compound scenario) and the run_resumable sweep
/// `ctctl analyze --checkpoint-dir` runs, with checkpointing off and with
/// the journal on at three intervals. Checks that every checkpointed sweep
/// yields the same mask table as the sweep without one.
std::vector<bench::BenchRow> micro_runtime_rows() {
  const std::size_t n = std::min<std::size_t>(bench::bench_realizations(), 200);
  const unsigned jobs = bench::bench_jobs();
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusionIsolation;
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;

  // Faults are a pure function of (index, attempt) and the cache is off,
  // so every rep on one runner does the same work.
  runtime::EnsembleOptions fault_options = runner_options(jobs, false);
  fault_options.fault_spec = "throw:every=17";
  fault_options.max_retries = 1;
  runtime::EnsembleRunner faulty(fault_options);
  runtime::SweepSpec sweep;
  sweep.digest = "bench-micro-checkpoint";
  sweep.count = n;
  std::size_t quarantined = 0;
  std::uint64_t retries = 0;
  const bench::Spread fault_s = bench::time_reps(kReps, [&] {
    const runtime::FailureMasks degraded =
        faulty.run_resumable(engine(), sweep, runtime::CheckpointOptions{})
            .masks;
    quarantined = degraded.ledger.failures.size();
    retries = degraded.ledger.retries;
    for (const auto& config : configs) {
      benchmark::DoNotOptimize(pipeline.fold(
          config, scenario, degraded,
          core::SitePatterns(config, degraded).counts()));
    }
  });

  runtime::EnsembleOptions sweep_options = runner_options(jobs, false);
  sweep_options.fault_spec = "none";
  runtime::EnsembleRunner sweeper(sweep_options);
  namespace fs = std::filesystem;
  const std::string ckpt_dir =
      (fs::temp_directory_path() / "ct-bench-micro-ckpt").string();
  fs::remove_all(ckpt_dir);  // a finished sweep removes its own journal
  // Interval 0 is checkpointing off, the baseline. The journal's cost is
  // fsync-bound, so it shrinks as the interval grows. The four variants
  // take turns within each rep, so host drift hits them all alike. The
  // registry is on, so checkpoint.flush_us sums the durable writes' time.
  constexpr std::size_t kIntervals[] = {0, 32, 128, 512};
  std::vector<double> readings[std::size(kIntervals)];
  std::vector<double> flush_readings;  // write time at the default interval
  std::uint64_t writes = 0;  // durable writes at the default interval
  const auto flush_us = [] {
    const obs::MetricsSnapshot snapshot = obs::capture_metrics();
    const obs::MetricValue* m = snapshot.find("checkpoint.flush_us");
    return m == nullptr ? std::uint64_t{0} : m->sum;
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  std::optional<runtime::FailureMasks> baseline;
  bool identical = true;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t v = 0; v < std::size(kIntervals); ++v) {
      runtime::CheckpointOptions ckpt;
      if (kIntervals[v] != 0) {
        ckpt.dir = ckpt_dir;
        ckpt.interval = kIntervals[v];
        ckpt.crash_spec = "none";
      }
      runtime::ResumableReport report;
      const std::uint64_t flushed_before = flush_us();
      readings[v].push_back(bench::time_reps(1, [&] {
                              report = sweeper.run_resumable(engine(), sweep,
                                                             ckpt);
                            }).median);
      if (kIntervals[v] == 128) {
        writes = report.checkpoints;
        flush_readings.push_back(
            static_cast<double>(flush_us() - flushed_before) * 1e-6);
      }
      const runtime::FailureMasks& masks = report.masks;
      if (!baseline) baseline = masks;
      identical = identical && masks.indices == baseline->indices &&
                  masks.bits == baseline->bits &&
                  masks.ledger.failures.size() ==
                      baseline->ledger.failures.size();
    }
  }
  obs::set_enabled(was_enabled);
  fs::remove_all(ckpt_dir);

  std::vector<bench::BenchRow> rows = {
      bench::count_row(kBench, "runtime.realizations", n),
      bench::count_row(kBench, "runtime.jobs", jobs),
      bench::timing_row(kBench, "runtime.fault_s", "s", fault_s),
      bench::count_row(kBench, "runtime.fault_quarantined", quarantined),
      bench::count_row(kBench, "runtime.fault_retries", retries)};
  for (std::size_t v = 0; v < std::size(kIntervals); ++v) {
    rows.push_back(bench::timing_row(
        kBench,
        kIntervals[v] == 0
            ? "runtime.checkpoint_off_s"
            : "runtime.checkpoint" + std::to_string(kIntervals[v]) + "_s",
        "s", bench::spread_of(std::move(readings[v]))));
  }
  rows.push_back(bench::timing_row(kBench, "runtime.checkpoint128_flush_s",
                                   "s",
                                   bench::spread_of(std::move(flush_readings))));
  rows.push_back(
      bench::count_row(kBench, "runtime.checkpoint128_writes", writes));
  return with_verdict(std::move(rows), identical);
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

/// Times the realization hot path against the legacy pipeline over the
/// same cold indices, checking bit-identity on every pass, and isolates
/// the two post-processing kernels.
std::vector<bench::BenchRow> micro_surge_rows() {
  // The legacy pipeline costs ~25 ms a realization, so 5 reps of 50 keep
  // the record phase short; fastpath_test checks all 1000 paper indices.
  const std::size_t n = std::min<std::size_t>(bench::bench_realizations(), 50);
  const auto& eng = engine();

  std::vector<surge::HurricaneRealization> reference;
  const bench::Spread reference_s = bench::time_reps(kReps, [&] {
    reference.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      reference.push_back(eng.run_reference(i));
    }
  });
  surge::RealizationScratch scratch;
  bool identical = true;
  const bench::Spread fast_s = bench::time_reps(kReps, [&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      const surge::HurricaneRealization fast = eng.run(i, scratch);
      identical = identical && bit_identical(fast, reference[i]);
    }
  });

  const auto& bindings = eng.bindings();
  const storm::TrackGenerator generator{eng.config().ensemble};
  const storm::StormTrack track = generator.generate(eng.config().base_seed, 0);
  mesh::NodeField envelope;
  bindings.accumulate_envelope(track, eng.terrain().projection(), envelope);

  constexpr std::size_t kKernelCalls = 2000;
  mesh::NodeField field, field_scratch;
  const bench::Spread smoothing_s = bench::time_reps(kReps, [&] {
    for (std::size_t i = 0; i < kKernelCalls; ++i) {
      field = envelope;
      mesh::shoreline_average_and_extend(eng.coastal_mesh(),
                                         bindings.shoreline_plan(), field,
                                         field_scratch);
    }
  });
  std::vector<double> shore_wse;
  mesh::shoreline_values(eng.coastal_mesh(), field, shore_wse);
  std::vector<surge::AssetImpact> impacts;
  const bench::Spread bind_s = bench::time_reps(kReps, [&] {
    for (std::size_t i = 0; i < kKernelCalls; ++i) {
      bindings.impacts_into(shore_wse, impacts);
    }
  });

  const double ms_per_realization = 1e3 / static_cast<double>(n);
  const double us_per_call = 1e6 / static_cast<double>(kKernelCalls);
  return with_verdict(
      {bench::count_row(kBench, "surge.realizations", n),
       bench::timing_row(kBench, "surge.reference_ms", "ms", reference_s,
                         ms_per_realization),
       bench::timing_row(kBench, "surge.fast_ms", "ms", fast_s,
                         ms_per_realization),
       bench::timing_row(kBench, "surge.smoothing_us", "us", smoothing_s,
                         us_per_call),
       bench::timing_row(kBench, "surge.asset_bind_us", "us", bind_s,
                         us_per_call),
       bench::count_row(kBench, "surge.active_nodes",
                        bindings.active_nodes().size()),
       bench::count_row(kBench, "surge.mesh_nodes",
                        eng.coastal_mesh().mesh.node_count())},
      identical);
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

/// Measures the surge, DES, obs and runtime groups, prints their rows and
/// merges them into BENCH_records.json. Returns whether every group's
/// bit-identity check held; timings are reported, never gated.
bool run_records() {
  std::vector<bench::BenchRow> rows;
  for (auto group : {micro_surge_rows, micro_des_rows, micro_obs_rows,
                     micro_runtime_rows}) {
    std::vector<bench::BenchRow> group_rows = group();
    rows.insert(rows.end(), group_rows.begin(), group_rows.end());
  }
  bench::write_bench_rows(rows);
  std::cout << "bench_micro rows, merged into BENCH_records.json:\n";
  bench::print_bench_rows(std::cout, rows);

  // Derived ratios are quotients of the stored medians. The obs target
  // (enabled-but-idle observability costs the DES hot loop < 2%) and the
  // checkpoint budget (its durable writes take < 3% of the sweep) are
  // printed only, as timing noise can carry a reading past them.
  const auto median = [&](std::string_view metric) {
    for (const bench::BenchRow& row : rows) {
      if (row.metric == metric) return row.median;
    }
    return 0.0;
  };
  const double obs_overhead = median("obs.des_overhead");
  const double flush_share = median("runtime.checkpoint128_flush_s") /
                             median("runtime.checkpoint128_s");
  std::cout << "derived: surge speedup "
            << median("surge.reference_ms") / median("surge.fast_ms")
            << "x, checkpoint overhead at interval 128 "
            << 100.0 * (median("runtime.checkpoint128_s") /
                            median("runtime.checkpoint_off_s") -
                        1.0)
            << "%, checkpoint writes at interval 128 " << 100.0 * flush_share
            << "% of the sweep (budget < 3%"
            << (flush_share < 0.03 ? "" : ", EXCEEDED")
            << "), obs overhead " << 100.0 * obs_overhead << "% (target < 2%"
            << (obs_overhead < 0.02 ? "" : ", EXCEEDED") << ")\n";

  bool identical = true;
  for (const bench::BenchRow& row : rows) identical = identical && row.identical;
  return identical;
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
