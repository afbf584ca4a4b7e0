#include "runtime/ensemble_runner.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/digest.h"

namespace ct::runtime {

namespace {

/// Sweep telemetry: per-slice latency plus the quarantine/retry counters
/// the fault-isolation machinery folds in.
struct EnsembleMetrics {
  obs::Histogram slice_us{"ensemble.slice_us"};
  obs::Counter quarantined{"ensemble.quarantined"};
  obs::Counter retries{"ensemble.retries"};
};

EnsembleMetrics& ensemble_metrics() {
  static EnsembleMetrics m;
  return m;
}

/// Folds an isolated run's quarantine/retry tallies into the registry and
/// marks each as an instant trace event. Called after outcome assembly —
/// pure observation, never part of the computed result.
void fold_guard_result(const IsolatedRunResult& run) {
  EnsembleMetrics& m = ensemble_metrics();
  if (run.retries > 0) {
    m.retries.inc(run.retries);
    obs::trace_instant("ensemble.retry");
  }
  if (!run.failures.empty()) {
    m.quarantined.inc(run.failures.size());
    for (std::size_t i = 0; i < run.failures.size(); ++i) {
      obs::trace_instant("ensemble.quarantine");
    }
  }
}

ResultStoreOptions store_options(const EnsembleOptions& o,
                                 const RuntimeFaultProfile& fault) {
  ResultStoreOptions s;
  s.memory_entries = o.memory_entries;
  s.disk = o.cache && o.disk_cache;
  s.disk_dir = o.cache_dir;
  s.inject_write_failure = fault.cache_write_failure;
  return s;
}

RuntimeFaultProfile resolve_fault(const std::string& spec) {
  return spec.empty() ? RuntimeFaultProfile::from_env()
                      : RuntimeFaultProfile::parse(spec);
}

/// The options' watchdog and retry policy for for_each_isolated.
TaskOptions isolation_policy(const EnsembleOptions& o) {
  TaskOptions t;
  t.timeout = o.task_timeout;
  t.max_retries = o.max_retries;
  return t;
}

/// Realizations per task: one realization (storm + surge solve) is the
/// expensive unit, so two per task suffice.
constexpr std::size_t kRealizationsPerTask = 2;

void sort_by_realization(std::vector<FailureRecord>& failures) {
  std::sort(failures.begin(), failures.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              return a.realization < b.realization;
            });
}

/// Cooperative stall for the delay rule: sleeps in small slices so the
/// watchdog deadline is honored mid-stall, exactly like a long kernel
/// polling between work units.
void cooperative_delay(std::chrono::milliseconds total,
                       const CancellationToken& token) {
  using namespace std::chrono;
  const steady_clock::time_point until = steady_clock::now() + total;
  while (steady_clock::now() < until) {
    token.poll("fault-delay");
    std::this_thread::sleep_for(milliseconds(1));
  }
  token.poll("fault-delay");
}

}  // namespace

FailureRecord make_failure_record(const TaskFailure& failure,
                                  std::uint64_t fallback_realization,
                                  std::uint64_t fallback_seed) {
  FailureRecord record;
  record.realization = fallback_realization;
  record.seed = fallback_seed;
  record.attempts = failure.attempts;
  record.code = util::classify_exception(failure.error);
  record.message = util::describe_exception(failure.error);
  try {
    if (failure.error) std::rethrow_exception(failure.error);
  } catch (const util::Error& e) {
    record.origin = e.origin();
    record.message = e.message();
    if (e.has_provenance()) {
      record.realization = e.realization();
      record.seed = e.seed();
    }
  } catch (...) {
    // Foreign exception: keep the normalized what() and fallbacks.
  }
  return record;
}

namespace {

void digest_realization(util::Digest& d,
                        const surge::HurricaneRealization& r) {
  d.u64(r.index).f64(r.peak_wind_ms).f64(r.max_shoreline_wse_m);
  d.u64(r.impacts.size());
  for (const surge::AssetImpact& impact : r.impacts) {
    d.str(impact.asset_id)
        .boolean(impact.failed)
        .f64(impact.inundation_depth_m)
        .boolean(impact.wind_failed);
  }
}

}  // namespace

std::size_t mask_words(const surge::RealizationEngine& engine) noexcept {
  return (engine.assets().size() + 63) / 64;
}

EnsembleRunner::EnsembleRunner(EnsembleOptions options)
    : options_(std::move(options)), fault_(resolve_fault(options_.fault_spec)),
      pool_(options_.jobs), store_(store_options(options_, fault_)) {}

ResumableReport EnsembleRunner::run_resumable(
    const surge::RealizationEngine& engine, SweepSpec spec,
    const CheckpointOptions& ckpt, CancellationToken* interrupt) {
  ResumableReport report;
  const std::size_t words = mask_words(engine);
  spec.words = words;
  SweepProgress progress;
  progress.masks.words = words;

  // The journal is optional and soft: an empty dir means a plain sweep,
  // and any durable-write failure downgrades to one mid-flight.
  std::optional<SweepJournal> journal;
  bool journal_on = false;
  if (!ckpt.dir.empty()) {
    journal.emplace(ckpt, spec);
    if (ckpt.resume) report.resume = journal->load(progress);
    const bool cold = report.resume.status != ResumeStatus::kResumed;
    journal_on = journal->begin(progress, cold);
  }
  report.restored = progress.completed();

  const std::uint64_t seed = engine.config().base_seed;
  const std::string storm = memo_storm(engine);
  const std::uint64_t interval =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(ckpt.interval));

  // Walk the MISSING set in ascending slices of `interval` realizations.
  // Each slice runs in parallel, its masks land at their indices, and it
  // is journaled as one record. Interruption is honored at slice
  // boundaries only: the previous slice's record is already fsync'd, so
  // there is nothing left to flush.
  for (const auto& [gap_begin, gap_end] : progress.missing(spec.count)) {
    for (std::uint64_t b = gap_begin; b < gap_end && !report.interrupted;
         b += interval) {
      if (interrupt != nullptr && interrupt->cancelled()) {
        report.interrupted = true;
        break;
      }
      const std::uint64_t e = std::min<std::uint64_t>(b + interval, gap_end);
      const std::size_t n = static_cast<std::size_t>(e - b);

      obs::Span slice_span("ensemble.slice");
      obs::ScopedTimer slice_timer(ensemble_metrics().slice_us);
      std::vector<std::uint64_t> bits(n * words, 0);
      IsolatedRunResult run = pool_.for_each_isolated(
          n, kRealizationsPerTask,
          [&](std::size_t k, unsigned attempt,
              const CancellationToken& token) {
            const surge::HurricaneRealization r =
                realize_guarded(engine, storm, b + k, attempt, token);
            std::uint64_t* mask = bits.data() + k * words;
            for (std::size_t a = 0; a < r.impacts.size(); ++a) {
              if (r.impacts[a].failed) {
                mask[a / 64] |= std::uint64_t{1} << (a % 64);
              }
            }
          },
          isolation_policy(options_));
      fold_guard_result(run);

      FailureMasks slice;
      slice.words = words;
      slice.ledger.retries = run.retries;
      std::vector<bool> failed(n, false);
      for (const TaskFailure& f : run.failures) {
        failed[f.index] = true;
        slice.ledger.failures.push_back(make_failure_record(
            f, b + static_cast<std::uint64_t>(f.index), seed));
      }
      sort_by_realization(slice.ledger.failures);
      for (std::size_t k = 0; k < n; ++k) {
        if (failed[k]) continue;
        slice.indices.push_back(b + k);
        slice.bits.insert(slice.bits.end(), bits.begin() + k * words,
                          bits.begin() + (k + 1) * words);
      }

      progress.merge_range(b, e);
      progress.masks.splice(slice.indices, slice.bits);
      FailureLedger& ledger = progress.masks.ledger;
      ledger.failures.insert(ledger.failures.end(),
                             slice.ledger.failures.begin(),
                             slice.ledger.failures.end());
      ledger.retries += run.retries;
      report.executed += n;

      if (journal_on) journal_on = journal->append(b, e, slice, progress);

      if (ckpt.on_progress) {
        SweepProgressEvent event;
        event.done = progress.completed();
        event.total = spec.count;
        event.quarantined = ledger.failures.size();
        event.retries = ledger.retries;
        ckpt.on_progress(event);
      }
    }
    if (report.interrupted) break;
  }

  if (journal) {
    if (!report.interrupted && journal_on) {
      journal->finish();
    } else {
      // Leave the files for the next --resume.
      journal->close();
    }
    report.checkpoints = journal->writes();
  }

  // Restored failures live inside `done` ranges, which interleave with the
  // gaps this run filled — re-sort so the ledger is ascending.
  sort_by_realization(progress.masks.ledger.failures);
  report.masks = std::move(progress.masks);
  report.masks.attempted = static_cast<std::size_t>(progress.completed());
  report.masks.assets = engine.bindings().asset_index();
  return report;
}

std::string EnsembleRunner::digest_engine_batch(
    const surge::RealizationEngine& engine, std::size_t count) {
  util::Digest d;
  d.str("ct-engine-batch").u64(count);
  d.str(engine.storm_digest()).str(engine.bind_digest());
  engine.bindings().digest_stencils_into(d);
  // Defense in depth against a RealizationConfig field missing from the
  // stage digests: the first realization's full content responds to most
  // knobs.
  if (count > 0) digest_realization(d, realize(engine, memo_storm(engine), 0));
  return d.hex();
}

std::shared_ptr<const surge::StormStage> EnsembleRunner::storm_stage(
    std::shared_ptr<const terrain::Terrain> terrain,
    const surge::RealizationConfig& config) {
  const std::string key = surge::storm_stage_key(*terrain, config).hex();
  {
    std::lock_guard<std::mutex> lock(stages_mutex_);
    if (auto live = stages_[key].lock()) return live;
  }
  // Built outside the lock; of two concurrent builds the first kept wins.
  auto stage =
      std::make_shared<const surge::StormStage>(std::move(terrain), config);
  std::lock_guard<std::mutex> lock(stages_mutex_);
  std::weak_ptr<const surge::StormStage>& slot = stages_[key];
  if (auto live = slot.lock()) return live;
  slot = stage;
  return stage;
}

std::string EnsembleRunner::memo_storm(const surge::RealizationEngine& engine) {
  if (!options_.cache) return {};
  const surge::StormStage& stage = engine.stage();
  const std::string& key = stage.key();  // outside the lock: a digest
  std::lock_guard<std::mutex> lock(stages_mutex_);
  const auto it = stages_.find(key);
  if (it == stages_.end() || it->second.lock().get() != &stage) return {};
  return engine.storm_digest();
}

surge::HurricaneRealization EnsembleRunner::realize(
    const surge::RealizationEngine& engine, const std::string& storm,
    std::uint64_t index) {
  if (storm.empty()) return engine.run(index);
  const std::string key = storm + "#" + std::to_string(index);
  std::shared_ptr<const surge::ShorelineRecord> record =
      store_.lookup_shoreline(key);
  if (!record) {
    record = std::make_shared<const surge::ShorelineRecord>(
        engine.storm(index));
    store_.store_shoreline(key, record);
  }
  return engine.bind(index, *record);
}

surge::HurricaneRealization EnsembleRunner::realize_guarded(
    const surge::RealizationEngine& engine, const std::string& storm,
    std::uint64_t index, unsigned attempt, const CancellationToken& token) {
  const std::uint64_t seed = engine.config().base_seed;
  if (fault_.throw_rule.fires(index, attempt)) {
    throw util::Error(util::ErrorCode::kFaultInjected, "fault-injection",
                      "injected realization failure", index, seed);
  }
  if (fault_.delay_rule.fires(index, attempt)) {
    cooperative_delay(fault_.delay, token);
  }
  surge::HurricaneRealization r = realize(engine, storm, index);
  if (fault_.nan_rule.fires(index, attempt)) {
    // Poison the surge output, then run the SAME guard production data
    // passes through — the injection proves the guard trips.
    r.max_shoreline_wse_m = std::numeric_limits<double>::quiet_NaN();
    surge::validate_realization(r, seed);
  }
  token.poll("ensemble-resumable");
  return r;
}

}  // namespace ct::runtime
