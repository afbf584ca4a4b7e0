// Shared driver for the figure-regeneration benches: each bench binary
// reproduces one of the paper's evaluation figures (operational profiles
// of the five SCADA architectures under one threat scenario and siting),
// prints measured-vs-paper tables, and reports the worst probability
// delta.
//
// Since the ensemble runtime landed, every figure bench also measures the
// runtime itself: the sweep runs once serially (--jobs 1, cache off) and
// once on the work-stealing pool, asserts the two outcome distributions
// are bit-identical, replays the sweep warm to measure the result-cache
// hit rate, and appends the numbers to BENCH_runtime.json so the perf
// trajectory is tracked per commit.
//
// Realization count defaults to the paper's 1000; set CT_BENCH_REALIZATIONS
// to override (e.g. 200 for a quick pass). CT_BENCH_JOBS sets the parallel
// worker count (default 8).
#pragma once

#include <cstdint>
#include <string>

#include "threat/scenario.h"

namespace ct::bench {

/// Which backup control center the siting uses (the paper's two variants).
enum class Siting {
  kWaiau,  ///< Honolulu + Waiau + DRFortress (Figs. 6-9)
  kKahe,   ///< Honolulu + Kahe + DRFortress (Figs. 10-11)
};

/// Number of realizations to run (CT_BENCH_REALIZATIONS or 1000).
std::size_t bench_realizations();

/// Parallel worker count for the runtime measurement (CT_BENCH_JOBS or 8).
unsigned bench_jobs();

/// One serial-vs-parallel runtime measurement, recorded per bench binary.
struct RuntimeBenchRecord {
  std::string name;            ///< bench binary name ("bench_fig6", ...)
  std::size_t realizations = 0;
  unsigned jobs = 0;           ///< parallel worker count
  double serial_s = 0.0;       ///< cold sweep, --jobs 1, cache off
  double parallel_s = 0.0;     ///< cold sweep on the pool
  double warm_s = 0.0;         ///< repeated sweep served from the cache
  bool identical = false;      ///< parallel outcomes bit-identical to serial
  std::uint64_t cache_lookups = 0;  ///< result-cache lookups, warm pass only
  std::uint64_t cache_hits = 0;     ///< result-cache hits, warm pass only

  // Fault-isolated runtime: the same sweep under an injected fault
  // profile (degraded path, generation and quarantine accounting included).
  double fault_s = 0.0;  ///< guarded sweep incl. generation, faults injected
  std::size_t fault_quarantined = 0;  ///< realizations quarantined
  std::uint64_t fault_retries = 0;    ///< retry attempts spent

  // Checkpointed runtime (PR 7): the same fused sweep through
  // run_resumable with checkpointing off (baseline) and with the journal
  // on at three intervals; overhead is fsync-bound, so it shrinks as the
  // interval grows.
  double resumable_s = 0.0;      ///< run_resumable, checkpointing off
  double checkpoint32_s = 0.0;   ///< journal on, --checkpoint-interval 32
  double checkpoint_s = 0.0;     ///< journal on, default interval (128)
  double checkpoint512_s = 0.0;  ///< journal on, --checkpoint-interval 512
  std::uint64_t checkpoint_writes = 0;  ///< durable writes, default interval

  double speedup() const noexcept {
    return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  }
  double warm_hit_rate() const noexcept {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
  /// Durability cost at the default checkpoint interval relative to the
  /// same sweep with checkpointing off (acceptance bound: <= 3%).
  double checkpoint_overhead() const noexcept {
    return resumable_s > 0.0 && checkpoint_s > 0.0
               ? checkpoint_s / resumable_s - 1.0
               : 0.0;
  }
};

/// Merges the record into `path` (default BENCH_runtime.json in the cwd):
/// one JSON object keyed by record name, one record per line, existing
/// records for other benches preserved. An unreadable file is rebuilt.
void write_runtime_bench_record(const RuntimeBenchRecord& record,
                                const std::string& path = "BENCH_runtime.json");

/// Realization hot-path timings, recorded by bench_micro: the legacy
/// allocating pipeline vs the MeshBindings fast path, plus the two
/// post-processing kernels the fast path made allocation-free.
struct SurgeBenchRecord {
  std::string name;              ///< record key ("bench_micro")
  std::size_t realizations = 0;  ///< cold realizations timed per variant
  double reference_ms = 0.0;     ///< legacy pipeline, per realization
  double fast_ms = 0.0;          ///< MeshBindings hot path, per realization
  double smoothing_ms = 0.0;     ///< in-place shoreline smoothing, per call
  double asset_bind_ms = 0.0;    ///< stencil impacts_into, per call
  std::size_t active_nodes = 0;  ///< influence-set size the fast path visits
  std::size_t mesh_nodes = 0;    ///< total mesh nodes the legacy path visits
  bool identical = false;        ///< fast path bit-identical to reference

  double speedup() const noexcept {
    return fast_ms > 0.0 ? reference_ms / fast_ms : 0.0;
  }
};

/// Same line-merge format as write_runtime_bench_record, separate file so
/// the hot-path trajectory is tracked independently of sweep runtimes.
void write_surge_bench_record(const SurgeBenchRecord& record,
                              const std::string& path = "BENCH_surge.json");

/// DES engine throughput: the pooled hot path (slab events, message
/// freelist, indexed quorum state) vs the verbatim reference engine in
/// sim/reference_des.cpp, over the same run corpus. Recorded by
/// bench_micro ("bench_micro": event loop + quorum round + chaos-style
/// sweep) and bench_des ("bench_des": the A4 flood-mask corpus).
struct DesBenchRecord {
  std::string name;                ///< record key
  std::uint64_t runs = 0;          ///< simulated runs timed per engine
  std::uint64_t events = 0;        ///< events processed per engine pass
  double reference_s = 0.0;        ///< run corpus wall time, reference
  double fast_s = 0.0;             ///< run corpus wall time, pooled engine
  double quorum_round_ms = 0.0;    ///< BFT request->quorum->execute round
  double sweep_reference_s = 0.0;  ///< fault-plan sweep, reference engine
  double sweep_fast_s = 0.0;       ///< fault-plan sweep, pooled + arena
  std::uint64_t sweep_runs = 0;
  bool identical = false;          ///< every outcome field-identical

  double reference_events_per_s() const noexcept {
    return reference_s > 0.0 ? static_cast<double>(events) / reference_s : 0.0;
  }
  double fast_events_per_s() const noexcept {
    return fast_s > 0.0 ? static_cast<double>(events) / fast_s : 0.0;
  }
  /// Events/sec ratio, pooled over reference (acceptance bound: >= 3x).
  double speedup() const noexcept {
    return reference_events_per_s() > 0.0 && fast_events_per_s() > 0.0
               ? fast_events_per_s() / reference_events_per_s()
               : 0.0;
  }
  double sweep_speedup() const noexcept {
    return sweep_fast_s > 0.0 && sweep_reference_s > 0.0
               ? sweep_reference_s / sweep_fast_s
               : 0.0;
  }
};

/// Same line-merge format, separate BENCH_des.json file tracking the DES
/// engine's throughput trajectory.
void write_des_bench_record(const DesBenchRecord& record,
                            const std::string& path = "BENCH_des.json");

/// Observability overhead (PR 10): per-op cost of the ct_obs primitives
/// and the enabled-vs-disabled cost of the instrumented DES hot loop.
/// Recorded by bench_micro, which prints the <2% enabled-but-idle target
/// but does not gate on this timing.
struct ObsBenchRecord {
  std::string name;                  ///< record key ("bench_micro")
  double counter_inc_ns = 0.0;       ///< Counter::inc, registry enabled
  double counter_disabled_ns = 0.0;  ///< Counter::inc, registry disabled
  double histogram_observe_ns = 0.0; ///< Histogram::observe, enabled
  double span_ns = 0.0;              ///< Span ctor+dtor, tracing enabled
  double span_idle_ns = 0.0;         ///< Span ctor+dtor, tracing off
  std::uint64_t des_runs = 0;        ///< DES runs timed per variant
  double des_obs_off_s = 0.0;        ///< instrumented loop, CT_OBS off
  double des_obs_on_s = 0.0;         ///< instrumented loop, CT_OBS on
  bool identical = false;            ///< outcomes bit-identical on vs off

  /// Enabled-but-idle cost of the instrumentation on the DES hot loop
  /// (0.02 = 2% slower; the acceptance bound).
  double des_overhead() const noexcept {
    return des_obs_off_s > 0.0 && des_obs_on_s > 0.0
               ? des_obs_on_s / des_obs_off_s - 1.0
               : 0.0;
  }
};

/// Same line-merge format, separate BENCH_obs.json file tracking the
/// observability overhead trajectory.
void write_obs_bench_record(const ObsBenchRecord& record,
                            const std::string& path = "BENCH_obs.json");

/// Runs the figure bench: returns 0 when the parallel outcome
/// distributions are bit-identical to the serial ones (fidelity to the
/// paper is still reported, not asserted — EXPERIMENTS.md records the
/// deltas), 1 on a determinism violation.
int run_figure_bench(const std::string& figure_id,
                     threat::ThreatScenario scenario, Siting siting);

}  // namespace ct::bench
