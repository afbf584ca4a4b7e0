// EnsembleRunner — the shared execution engine every Monte Carlo sweep in
// the repo routes through (core/pipeline, core/case_study, core/siting,
// core/restoration, core/chaos, the figure benches, ctctl).
//
// It combines the work-stealing TaskPool with the content-addressed
// ResultStore, and offers one path per access pattern:
//
//  * the batch path: generate_guarded materializes the ensemble once, and
//    count_outcomes_guarded classifies it for one (configuration,
//    scenario) cell at a time — for callers that ask cell by cell of one
//    ensemble (siting, run_configs, downtime's cost folds);
//  * the sweep: run_resumable generates each realization once, classifies
//    it into every cell, and checkpoints — `analyze` on the CLI and the
//    server.
//
// Both are bit-identical to the serial loop at any --jobs value
// (realization i is a pure function of (base_seed, i), and per-index
// results fold in ascending index order), and both address the result
// cache with the same job keys: a (topology, configuration, scenario,
// engine batch, attacker) digest, so warm `ctctl analyze` reruns and the
// fig6-fig11 benches sharing one hurricane ensemble skip the work.
//
// Layering: runtime sits BELOW core (it sees configurations, scenarios and
// realizations, but not the analysis pipeline); core passes the per-
// realization outcome as a callable. This keeps the dependency graph
// acyclic while letting every core module share one pool and one cache.
// Fault isolation: both paths run each realization inside
// TaskPool::for_each_isolated — a failing realization is retried
// deterministically with the SAME seed (realization i is a pure function of
// (base_seed, i), so a retry either heals a transient fault or reproduces a
// deterministic one), then quarantined into a FailureRecord. The surviving
// samples still produce the partial distribution, bit-identical at any
// --jobs value, and EnsembleReport bounds how much probability mass the
// quarantined samples could move (Clopper-Pearson).
//
// Storm-stage memo (DESIGN.md §9): every realization the runner produces
// goes through one helper. Once a second engine with a different bind
// digest (another sea-level offset, threshold, asset list, ...) has asked
// for a storm digest, the helper keeps that storm's shoreline records in
// the store's memory LRU and binds them for whichever engine asks, so a
// what-if over the same storms runs only the bind stage. A runner that
// serves one engine stores nothing; options.cache = false bypasses it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/fault_profile.h"
#include "runtime/result_store.h"
#include "runtime/task_pool.h"
#include "scada/configuration.h"
#include "surge/realization.h"
#include "threat/scenario.h"
#include "util/error.h"
#include "util/stats.h"

namespace ct::runtime {

struct EnsembleOptions {
  /// Worker threads: 0 = hardware concurrency, 1 = strictly serial.
  unsigned jobs = 0;
  /// Realizations per task; chunk boundaries are thread-count independent.
  std::size_t chunk = 16;
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

/// An outcome histogram as the runtime sees it (core converts to its
/// OutcomeDistribution).
struct EnsembleCounts {
  std::array<std::uint64_t, 4> counts{};
  std::uint64_t total = 0;
  bool from_cache = false;
};

// FailureRecord / FailureLedger live in runtime/checkpoint.h (the journal
// persists them), re-exported here for every existing consumer.

/// TaskFailure -> FailureRecord, preferring the exception's own provenance
/// (a ct::Error knows its realization and seed) over the fallbacks.
FailureRecord make_failure_record(const TaskFailure& failure,
                                  std::uint64_t fallback_realization,
                                  std::uint64_t fallback_seed);

/// Output of generate_guarded: the surviving realizations (ascending index
/// order, quarantined slots removed) plus the failure ledger.
struct GeneratedBatch {
  std::vector<surge::HurricaneRealization> realizations;
  FailureLedger ledger;
  std::size_t attempted = 0;
  /// The engine's base seed: the provenance a count over this batch gives
  /// the realizations its classifier fails on.
  std::uint64_t seed = 0;
  bool complete() const noexcept { return ledger.failures.empty(); }
};

/// Outcome of a guarded analysis: the partial histogram over surviving
/// realizations plus the quarantine ledger and enough accounting to bound
/// what the quarantined mass could have changed.
struct EnsembleReport {
  EnsembleCounts counts;                ///< partial distribution (survivors)
  std::vector<FailureRecord> failures;  ///< generation + counting, by index
  std::uint64_t retries = 0;
  std::size_t attempted = 0;  ///< realizations the caller asked for
  std::size_t completed = 0;  ///< attempted - failures.size()

  std::size_t quarantined() const noexcept { return failures.size(); }
  bool degraded() const noexcept { return !failures.empty(); }

  /// Conservative bounds on the TRUE probability of outcome `bucket` had
  /// every quarantined realization completed: a Clopper-Pearson interval
  /// on (count, completed) widened by the quarantined mass — the
  /// quarantined samples might all have landed in this bucket (upper) or
  /// none of them (lower). Exact-method coverage >= `confidence`.
  util::Interval mass_bound(std::size_t bucket,
                            double confidence = 0.95) const noexcept;
};

/// Output of run_resumable: one EnsembleReport per sweep series, plus how
/// the checkpoint layer behaved.
struct ResumableReport {
  std::vector<EnsembleReport> series;  ///< one per SweepSpec::series entry
  ResumeInfo resume;                   ///< how the prior state was used
  bool interrupted = false;   ///< cancelled before completion; state saved
  std::uint64_t restored = 0;  ///< indices restored from the checkpoint
  std::uint64_t executed = 0;  ///< indices actually computed by THIS run
  std::uint64_t checkpoints = 0;  ///< durable writes performed by this run

  bool complete() const noexcept { return !interrupted; }
};

class EnsembleRunner {
 public:
  explicit EnsembleRunner(EnsembleOptions options = {});

  /// Classifies one realization into an outcome bucket [0, 4).
  using OutcomeFn = std::function<int(const surge::HurricaneRealization&)>;
  /// Classifies one realization into a bucket [0, 4) PER SERIES: called
  /// once per (series, realization) pair; `series` indexes
  /// SweepSpec::series. run_resumable generates each realization exactly
  /// once and classifies it into every series — this is what lets a
  /// (configurations x scenarios) sweep matrix share one ensemble pass.
  using MultiOutcomeFn =
      std::function<int(std::size_t series, const surge::HurricaneRealization&)>;
  /// Produces the guarded batch to count (only called on a cache miss). It
  /// returns a pointer to a batch that outlives the count — typically a
  /// member the caller generated once — so a temporary cannot bind to it.
  using BatchFn = std::function<const GeneratedBatch*()>;

  /// Fault-isolated generation of realizations [0, count): each one runs
  /// under per-task exception capture with the options' watchdog/retry
  /// policy, the active fault profile injected around the engine call.
  /// Survivors come back in ascending index order; with an empty ledger the
  /// batch is bit-identical to the engine's serial run_batch at any jobs
  /// value.
  GeneratedBatch generate_guarded(const surge::RealizationEngine& engine,
                                  std::size_t count);

  /// Guarded counting over one batch for one cell. A cache hit under `key`
  /// never calls `batch`; a miss counts the batch it returns and merges its
  /// ledger into the report. Each outcome evaluation is isolated (a
  /// throwing classifier quarantines one sample, not the sweep), and the
  /// fold over per-index buckets runs in ascending index order,
  /// bit-identical at any jobs value. Results are stored under `key` ONLY
  /// when nothing failed — a partial distribution must never masquerade as
  /// the full one on the next warm run. Pass "" to bypass the cache.
  EnsembleReport count_outcomes_guarded(const BatchFn& batch,
                                        const OutcomeFn& outcome,
                                        const std::string& key);

  /// Crash-consistent sweep: generates realizations [0, spec.count) in
  /// slices of ckpt.interval, classifies each survivor into every series
  /// via `outcome`, and journals every completed slice (see checkpoint.h).
  /// With ckpt.resume set, prior journal/snapshot state is validated and
  /// replayed first and only the MISSING indices run; the merged result is
  /// bit-identical at any --jobs value to an uninterrupted run. Fault
  /// semantics match the guarded entry points (same CT_FAULT injection,
  /// same retry-then-quarantine policy; a quarantined index is quarantined
  /// in ALL series). `interrupt` (optional) stops the sweep at the next
  /// slice boundary after a final checkpoint flush — the SIGINT/SIGTERM
  /// path; the report then has interrupted=true and partial counts. An
  /// empty ckpt.dir degrades to a plain non-durable sweep.
  ResumableReport run_resumable(const surge::RealizationEngine& engine,
                                const SweepSpec& spec,
                                const MultiOutcomeFn& outcome,
                                const CheckpointOptions& ckpt,
                                CancellationToken* interrupt = nullptr);

  /// The active fault-injection profile (empty unless CT_FAULT or
  /// options.fault_spec configured one).
  const RuntimeFaultProfile& fault_profile() const noexcept { return fault_; }

  // --- content addressing -------------------------------------------------

  /// Cache key of one (configuration, scenario, attacker, engine batch)
  /// evaluation. `realization_set_digest` comes from digest_engine_batch;
  /// `attacker_tag` names the attack algorithm ("greedy", "exhaustive",
  /// ...).
  static std::string job_key(const scada::Configuration& config,
                             threat::ThreatScenario scenario,
                             std::string_view attacker_tag,
                             std::string_view realization_set_digest);

  /// Cheap identity digest for an engine-generated set: the engine's storm
  /// and bind digests and the count determine the content, so hashing them
  /// is equivalent to hashing the output — without generating it first.
  /// With count > 0 it also mixes in realization 0 (through the memo).
  std::string digest_engine_batch(const surge::RealizationEngine& engine,
                                  std::size_t count);

  /// The full distribution stored under `key`, as a clean report with
  /// from_cache set; nullopt on a miss, with the cache off, or for "".
  std::optional<EnsembleReport> cached_report(const std::string& key);
  /// Stores `report`'s histogram under `key` unless the cache is off, the
  /// key is "" or a realization was quarantined.
  void cache_report(const std::string& key, const EnsembleReport& report);

  TaskPool& pool() noexcept { return pool_; }
  ResultStore& store() noexcept { return store_; }
  const EnsembleOptions& options() const noexcept { return options_; }
  ResultStore::Stats cache_stats() const { return store_.stats(); }

 private:
  /// Registers `engine` with the memo's admission rule and returns its
  /// storm digest when this call should use the memo, "" otherwise.
  std::string memo_storm(const surge::RealizationEngine& engine);
  /// Realization `index` of `engine`: engine.run() when `storm` is "",
  /// else the memoized shoreline record (computed and kept on a miss)
  /// bound by `engine`. Bit-identical either way.
  surge::HurricaneRealization realize(const surge::RealizationEngine& engine,
                                      const std::string& storm,
                                      std::uint64_t index);
  /// One isolated attempt at realization `index`: the fault profile's throw
  /// and delay rules, realize(), the nan rule through the production NaN
  /// guard, then a watchdog poll tagged `origin`. Both paths run it, so
  /// they quarantine the same indices.
  surge::HurricaneRealization realize_guarded(
      const surge::RealizationEngine& engine, const std::string& storm,
      std::uint64_t index, unsigned attempt, const CancellationToken& token,
      std::string_view origin);

  EnsembleOptions options_;
  RuntimeFaultProfile fault_;  // must init before store_ (cache-write rule)
  TaskPool pool_;
  ResultStore store_;

  /// Per storm digest: the first bind digest that asked for it, and whether
  /// one with a different bind digest has asked since (records are kept
  /// only then). One entry per storm digest the runner has seen.
  struct MemoAdmission {
    std::string first_bind;
    bool shared = false;
  };
  std::mutex memo_mutex_;
  std::unordered_map<std::string, MemoAdmission> memo_admission_;
};

}  // namespace ct::runtime
