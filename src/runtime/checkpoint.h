// Crash-consistent checkpoint/resume for ensemble sweeps.
//
// A sweep (realizations [0, count), one flood mask each) is made
// preemption-safe by two files under the checkpoint directory, both keyed
// by the sweep's content digest (the engine-batch digest: no cell, no
// attacker), so a checkpoint taken under different knobs can never be
// resumed, and one taken for any cell set resumes another. Both hold util
// sealed frames (util/wire.h):
//
//  * `<digest>.jrnl` — an append-only journal: a header frame, then one
//    record frame (tag = sequence number) per checkpoint interval, holding
//    a completed index range, the flood masks of its survivors and the
//    quarantine records inside it; fsync'd before the sweep moves on.
//    Each record starts with the header frame's payload digest, so a
//    record from another journal or epoch never applies.
//  * `<digest>.snap` — one frame, a periodic atomic snapshot compacting
//    the journal (completed ranges, every survivor's mask, the whole
//    failure ledger). After it is published the journal is reset with a
//    bumped epoch; a journal whose epoch predates the snapshot is ignored.
//
// Crash model and the atomicity argument (DESIGN.md §12): the process may
// die at ANY instant (`_exit`, OOM kill, power loss). Because records are
// appended sequentially and sealed, a crash can only ever produce a TORN
// TAIL — an incomplete final frame, or a bad one with no valid frame after
// it — which replay silently drops (that range is simply recomputed). Any
// OTHER anomaly (a bad frame with a valid frame after it, a sequence or
// binding mismatch, an overlapping range) cannot be produced by a crash,
// only by corruption or tampering, and is reported as a typed
// kCheckpointCorrupt event followed by a cold start — a checkpoint is an
// accelerator, never a correctness dependency.
//
// Replayed masks land at their indices, so a resumed sweep's table is
// bit-identical at any --jobs value to an uninterrupted one.
//
// Deterministic process-death injection: every durable write (journal
// record, snapshot publish, journal reset) is a numbered crash SITE; the
// CT_CRASH profile (see fault_profile.h) kills the process before / mid-
// write (torn) / after a chosen site through util's crash hook, which is
// how the self-exec crash harness proves every instant is recoverable.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/fault_profile.h"
#include "util/error.h"

namespace ct::util {
class WireReader;
class WireWriter;
}  // namespace ct::util

namespace ct::runtime {

/// One quarantined realization: everything needed to aggregate, report,
/// deterministically replay — and, via the journal, survive a process
/// death (a resumed sweep must not re-count a quarantined index).
struct FailureRecord {
  std::uint64_t realization = 0;  ///< Monte-Carlo index (replay handle)
  std::uint64_t seed = 0;         ///< ensemble base seed (0 when unknown)
  unsigned attempts = 0;          ///< attempts consumed (1 + retries)
  util::ErrorCode code = util::ErrorCode::kUnknown;
  std::string origin;             ///< failing component ("surge", ...)
  std::string message;            ///< last attempt's what()
};

/// Failure accounting of a sweep.
struct FailureLedger {
  std::vector<FailureRecord> failures;  ///< sorted by realization index
  std::uint64_t retries = 0;            ///< extra attempts (healed + exhausted)
};

/// The sweep's product (DESIGN.md §9): one flood mask per surviving
/// realization plus the quarantine ledger. Bit `a` of a mask is
/// `impacts[a].failed` of the engine's asset `a`, 64 assets to a word: all
/// that analyze, downtime and siting read of a realization.
struct FailureMasks {
  /// 64-bit words per mask: ceil(exposed assets / 64).
  std::size_t words = 0;
  /// Survivors' realization indices, ascending.
  std::vector<std::uint64_t> indices;
  /// `words` words per survivor, in `indices` order.
  std::vector<std::uint64_t> bits;
  FailureLedger ledger;
  /// Realizations the table covers: survivors plus quarantined.
  std::size_t attempted = 0;
  /// Asset id -> bit, first id wins (the engine's surge::AssetIndex).
  using AssetIndex = std::unordered_map<std::string, std::uint32_t>;
  std::shared_ptr<const AssetIndex> assets;

  std::size_t size() const noexcept { return indices.size(); }
  /// Survivor `k`'s mask.
  std::span<const std::uint64_t> mask(std::size_t k) const noexcept {
    return {bits.data() + k * words, words};
  }
  /// True when survivor `k`'s mask has bit `b` set.
  bool test(std::size_t k, std::size_t b) const noexcept {
    return (bits[k * words + b / 64] >> (b % 64)) & 1u;
  }
  /// Inserts a run of survivors, ascending, that falls between two
  /// neighbouring indices of the table; false (table unchanged) otherwise.
  bool splice(std::span<const std::uint64_t> run_indices,
              std::span<const std::uint64_t> run_bits);
};

/// Progress of a sweep as observed at a slice boundary; handed to
/// CheckpointOptions::on_progress so a caller (the ct_service streaming
/// path, a progress bar) can follow a long sweep without touching its
/// determinism — observation only, the sweep never reads anything back.
struct SweepProgressEvent {
  std::uint64_t done = 0;         ///< indices completed so far (incl. restored)
  std::uint64_t total = 0;        ///< indices the sweep was asked for
  std::uint64_t quarantined = 0;  ///< failures recorded so far
  std::uint64_t retries = 0;      ///< retry attempts spent so far
};

/// Knobs of the checkpoint layer. An empty `dir` disables checkpointing
/// entirely (the sweep still runs, nothing durable is written).
struct CheckpointOptions {
  std::string dir;
  /// Realizations per journal record (the at-most-this-much-work-is-lost
  /// bound); slice boundaries are derived from the MISSING set, so a
  /// resumed run may legally use a different interval.
  std::size_t interval = 128;
  /// Journal records between snapshot compactions (bounds replay length).
  std::size_t snapshot_every = 16;
  /// Attempt to resume from existing checkpoint state.
  bool resume = false;
  /// Crash-injection spec: "" defers to the CT_CRASH environment variable,
  /// "none" is explicitly off, anything else is CrashProfile::parse'd.
  std::string crash_spec;
  /// Optional observer called after every completed slice (durable or
  /// not: it fires with an empty `dir` too, where the sweep still walks
  /// `interval`-sized slices). Runs on the sweep thread between slices —
  /// keep it cheap, and never let it throw.
  std::function<void(const SweepProgressEvent&)> on_progress;
};

/// Identity of a resumable sweep: the content digest binding the journal
/// to its inputs, the realization count and the words per mask.
struct SweepSpec {
  std::string digest;
  std::size_t count = 0;
  std::size_t words = 0;
};

/// Merged sweep state: what a checkpoint persists and a resume restores.
struct SweepProgress {
  /// Completed [begin, end) index ranges — disjoint, ascending, coalesced.
  /// Quarantined indices count as completed (attempted, recorded in the
  /// ledger), so a resume never re-runs them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> done;
  /// Survivors' masks, ascending, and the ledger (failures ascending once
  /// loaded or finished).
  FailureMasks masks;

  /// Total indices covered by `done`.
  std::uint64_t completed() const noexcept;
  /// Merges [begin, end); false (state unchanged) on overlap with `done`
  /// — a crash cannot produce overlap, so the caller treats it as
  /// corruption.
  bool merge_range(std::uint64_t begin, std::uint64_t end);
  /// The complement of `done` within [0, count): the indices a resumed
  /// sweep still needs to schedule, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing(
      std::uint64_t count) const;
};

/// The one mask-table encoding: completed ranges, retries, quarantined
/// indices, then the masks of the ranges' other indices (the survivors), in
/// index order. A journal record holds its slice in it, a snapshot the
/// merged state, and a result-cache record a whole clean table
/// (result_store.h).
void put_state(util::WireWriter& w,
               const std::vector<std::pair<std::uint64_t, std::uint64_t>>& done,
               const FailureMasks& masks);

/// Folds the rest of `r`, written by put_state, into `progress` (whose
/// masks.words says how wide a mask is). False on a range past `count` or
/// overlapping one already done, or when the failures do not name distinct
/// indices of the ranges.
bool fold_state(util::WireReader& r, std::uint64_t count,
                SweepProgress& progress);

/// How a resume attempt went.
enum class ResumeStatus {
  kColdStart,  ///< nothing usable on disk (or resume not requested)
  kResumed,    ///< snapshot/journal validated and replayed
  kStale,      ///< digest/count/words/format mismatch; cold start
  kCorrupt,    ///< interior corruption (typed kCheckpointCorrupt); cold start
};

/// Stable name ("cold-start", "resumed", ...) for logs and reports.
std::string_view resume_status_name(ResumeStatus status) noexcept;

struct ResumeInfo {
  ResumeStatus status = ResumeStatus::kColdStart;
  std::string detail;       ///< operator-facing reason (logged)
  std::uint64_t restored = 0;  ///< indices restored from the checkpoint
  bool torn_tail_dropped = false;  ///< a torn final record was discarded
};

/// The durable side of a resumable sweep. NOT thread-safe: all journal
/// calls happen on the sweep's calling thread, in slice order (which is
/// also what makes the crash-site counter deterministic).
class SweepJournal {
 public:
  /// On-disk format version; bump on any layout or checksum change.
  static constexpr int kFormatVersion = 3;

  SweepJournal(CheckpointOptions options, SweepSpec spec);
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Validates and replays snapshot + journal into `progress` (which must
  /// arrive empty). Never throws: staleness and corruption are reported in
  /// the ResumeInfo (and logged as structured events) and leave `progress`
  /// empty for a cold start.
  ResumeInfo load(SweepProgress& progress);

  /// Opens the journal for appending. `cold` discards any previous state
  /// and publishes a fresh header; after a successful load(), pass the
  /// replayed progress and cold=false to append after the existing
  /// records. Returns false when the directory/file cannot be prepared
  /// (checkpointing is then off for this run — soft, like the cache).
  bool begin(const SweepProgress& progress, bool cold);

  /// Appends one completed-slice record (the survivors' masks and the
  /// failures of [begin, end)) and fsyncs it; every `snapshot_every`
  /// records compacts `full` (the merged state INCLUDING this slice) into
  /// an atomic snapshot and resets the journal. Soft-fails like begin().
  bool append(std::uint64_t begin, std::uint64_t end,
              const FailureMasks& slice, const SweepProgress& full);

  /// Sweep fully completed: removes both files. The table now lives in
  /// the caller's memo and, when it is clean and the cache is on, in the
  /// result cache (result_store.h), not in the checkpoint.
  void finish();

  /// Closes the journal fd without removing files (interrupted sweep: the
  /// state stays on disk for the next --resume). Called by the destructor.
  void close();

  std::string journal_path() const;
  std::string snapshot_path() const;

  /// Durable writes performed by THIS run (journal records + snapshots +
  /// journal resets) — the denominator of checkpoint-overhead accounting.
  std::uint64_t writes() const noexcept { return writes_; }

 private:
  bool publish_snapshot(const SweepProgress& full);
  /// Rewrites the journal to just a header at `epoch_` (atomic publish),
  /// then reopens it for appending.
  bool reset_journal();
  /// File name of both files, without extension.
  std::string file_stem() const;

  CheckpointOptions options_;
  SweepSpec spec_;
  CrashProfile crash_;
  int fd_ = -1;             ///< journal fd (O_APPEND) while open
  std::uint64_t epoch_ = 0; ///< snapshot epoch the journal is relative to
  std::uint32_t next_seq_ = 1;  ///< frame tag of the next record
  std::array<std::uint64_t, 2> binding_{};  ///< header frame's payload digest
  std::uint64_t records_since_snapshot_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace ct::runtime
