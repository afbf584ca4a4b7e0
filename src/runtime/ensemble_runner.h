// EnsembleRunner — the shared execution engine every Monte Carlo sweep in
// the repo routes through (core/pipeline, core/case_study, core/siting,
// core/restoration, core/chaos, the figure benches, ctctl).
//
// It combines the work-stealing TaskPool with the content-addressed
// ResultStore. Its one path over realizations is the sweep: run_resumable
// runs each realization once and keeps its flood mask (FailureMasks,
// checkpoint.h), which every command folds over in core (DESIGN.md §9).
// Runtime sits BELOW core: it sees realizations and their masks only, no
// configuration, scenario or analysis pipeline, which keeps the dependency
// graph acyclic. The table is bit-identical at any --jobs value
// (realization i is a pure function of (base_seed, i), and each mask lands
// at its index). The result cache holds whole tables under the sweep's
// identity, derived from digest_engine_batch (result_store.h).
//
// Fault isolation: a failing realization is retried with the SAME seed (a
// retry either heals a transient fault or reproduces a deterministic one),
// then quarantined into a FailureRecord; core::ScenarioResult::mass_bound
// bounds how much probability mass the quarantined samples could move
// (Clopper-Pearson).
//
// Storm-stage memo (DESIGN.md §9): an engine whose stage came from
// storm_stage() keeps each storm's shoreline records in the store's memory
// LRU from its first realization on, and every engine on that storm side
// (another sea-level offset, threshold, asset list, ...) binds them, so a
// what-if over the same storms runs only the bind stage. An engine on a
// private stage (a case study that owns its runtime) keeps nothing;
// options.cache = false bypasses the memo.
//
// Shared storm stages (DESIGN.md §10): storm_stage() hands engines that
// share a storm side one surge::StormStage (mesh, envelope precompute,
// harbor rays), held only while some engine holds it, so a served session
// on the runner builds only its asset stencils.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/checkpoint.h"
#include "runtime/fault_profile.h"
#include "runtime/result_store.h"
#include "runtime/task_pool.h"
#include "surge/realization.h"
#include "util/error.h"

namespace ct::runtime {

struct EnsembleOptions {
  /// Worker threads: 0 = hardware concurrency, 1 = strictly serial.
  unsigned jobs = 0;
  /// In-memory result cache.
  bool cache = true;
  /// On-disk result cache (under cache_dir / CT_CACHE_DIR / ~/.cache/ct).
  bool disk_cache = false;
  std::string cache_dir;
  std::size_t memory_entries = 4096;
  /// Retries of a failed realization (same seed) before quarantine.
  unsigned max_retries = 2;
  /// Cooperative per-attempt watchdog deadline; 0 = no watchdog.
  std::chrono::milliseconds task_timeout{0};
  /// Fault-injection spec: "" defers to the CT_FAULT environment variable,
  /// "none" is explicitly off (ignores the environment), anything else is
  /// parsed by RuntimeFaultProfile::parse.
  std::string fault_spec;
};

// FailureRecord / FailureLedger live in runtime/checkpoint.h (the journal
// persists them), re-exported here for every existing consumer.

/// TaskFailure -> FailureRecord, preferring the exception's own provenance
/// (a ct::Error knows its realization and seed) over the fallbacks.
FailureRecord make_failure_record(const TaskFailure& failure,
                                  std::uint64_t fallback_realization,
                                  std::uint64_t fallback_seed);

/// 64-bit words per flood mask of `engine`: ceil(exposed assets / 64).
std::size_t mask_words(const surge::RealizationEngine& engine) noexcept;

/// How a sweep went: what the checkpoint layer did, and if it was cut.
struct SweepStats {
  ResumeInfo resume;          ///< how the prior state was used
  bool interrupted = false;   ///< cancelled before completion; state saved
  std::uint64_t restored = 0;  ///< indices restored from the checkpoint
  std::uint64_t executed = 0;  ///< indices actually computed by THIS run
  std::uint64_t checkpoints = 0;  ///< durable writes performed by this run
};

/// Output of run_resumable: the mask table, partial when interrupted.
struct ResumableReport : SweepStats {
  FailureMasks masks;
};

class EnsembleRunner {
 public:
  explicit EnsembleRunner(EnsembleOptions options = {});

  /// Crash-consistent sweep: runs realizations [0, spec.count) in slices
  /// of ckpt.interval, each under the options' watchdog and retry policy
  /// with CT_FAULT injected, keeps each survivor's flood mask, and
  /// journals every completed slice when ckpt.dir is set (checkpoint.h).
  /// With ckpt.resume, only the indices the journal lacks run; the table
  /// is bit-identical at any --jobs value to an uninterrupted run's.
  /// `interrupt` stops the sweep at the next slice boundary (SIGINT,
  /// SIGTERM, deadlines), leaving interrupted=true and a partial table.
  /// spec.words is set from the engine (mask_words).
  ResumableReport run_resumable(const surge::RealizationEngine& engine,
                                SweepSpec spec, const CheckpointOptions& ckpt,
                                CancellationToken* interrupt = nullptr);

  /// The storm stage for `config`'s storm side over `terrain`: the live
  /// stage of the same storm_stage_key if an engine still holds one, else a
  /// new one. The runner keeps only a weak reference, so a stage lives as
  /// long as the engines built on it. Engines on it use the storm memo.
  std::shared_ptr<const surge::StormStage> storm_stage(
      std::shared_ptr<const terrain::Terrain> terrain,
      const surge::RealizationConfig& config);

  /// Cheap identity digest for an engine-generated set: the engine's storm
  /// and bind digests and the count determine the content, so hashing them
  /// is equivalent to hashing the output — without generating it first.
  /// With count > 0 it also mixes in realization 0 (through the memo).
  std::string digest_engine_batch(const surge::RealizationEngine& engine,
                                  std::size_t count);

  TaskPool& pool() noexcept { return pool_; }
  ResultStore& store() noexcept { return store_; }
  const EnsembleOptions& options() const noexcept { return options_; }
  ResultStore::Stats cache_stats() const { return store_.stats(); }

 private:
  /// `engine`'s storm digest when the memo serves it (the cache is on and
  /// its stage is the live stage storm_stage() handed out), "" otherwise.
  std::string memo_storm(const surge::RealizationEngine& engine);
  /// Realization `index` of `engine`: engine.run() when `storm` is "",
  /// else the memoized shoreline record (computed and kept on a miss)
  /// bound by `engine`. Bit-identical either way.
  surge::HurricaneRealization realize(const surge::RealizationEngine& engine,
                                      const std::string& storm,
                                      std::uint64_t index);
  /// One isolated attempt at realization `index`: the fault profile's throw
  /// and delay rules, realize(), the nan rule through the production NaN
  /// guard, then a watchdog poll.
  surge::HurricaneRealization realize_guarded(
      const surge::RealizationEngine& engine, const std::string& storm,
      std::uint64_t index, unsigned attempt, const CancellationToken& token);

  EnsembleOptions options_;
  RuntimeFaultProfile fault_;  // must init before store_ (cache-write rule)
  TaskPool pool_;
  ResultStore store_;

  /// Per storm side storm_stage() was asked for (keyed by
  /// StormStage::key()): the stage it handed out, live while an engine
  /// holds it.
  std::mutex stages_mutex_;
  std::unordered_map<std::string, std::weak_ptr<const surge::StormStage>>
      stages_;
};

}  // namespace ct::runtime
