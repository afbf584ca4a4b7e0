// Content-addressed result cache for ensemble analyses (DESIGN.md §9).
//
// Its one product is the flood-mask table (FailureMasks, checkpoint.h) of a
// complete, clean sweep, keyed like the sweep's journal: H("ct-sweep",
// engine-batch digest), which names the storms, the bind side (offset,
// threshold, fragility, the exposed assets and their order) and the
// realization count. No configuration, scenario or attacker enters the key:
// every analyze cell, downtime and siting folds over the same table, and a
// hit can only ever return the table the sweep would have produced.
// Two layers:
//
//  * in-memory LRU (bounded entries, thread-safe) holding each table as a
//    shared object, so a hit from another session decodes nothing, and
//  * an optional on-disk layer (one record per key: a util sealed frame
//    holding the key, the realization and word counts, and the table in
//    the journal snapshot's state codec; default ~/.cache/ct/, override
//    with CT_CACHE_DIR or options), shared across processes so a new
//    process folds over the table instead of re-running the storms.
//
// Disk records are corruption-tolerant by construction: anything but one
// complete, valid frame of this version whose key, counts and payload agree
// with the lookup and with each other makes the lookup a miss (counted in
// stats), never an error; the next store() rewrites the record. Bumping
// kFormatVersion invalidates every old entry.
//
// The memory LRU also holds the storm-stage memo: shoreline records the
// EnsembleRunner keeps per (storm digest, realization index). They share
// the memory_entries bound with the tables, never reach the disk layer,
// and are counted under memo_* rather than lookups/hits.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/checkpoint.h"

namespace ct::surge {
struct ShorelineRecord;
}  // namespace ct::surge

namespace ct::runtime {

struct ResultStoreOptions {
  /// Max in-memory entries before LRU eviction.
  std::size_t memory_entries = 4096;
  /// Enable the on-disk layer.
  bool disk = false;
  /// Disk directory; empty picks CT_CACHE_DIR, else ~/.cache/ct.
  std::string disk_dir;
  /// Fault injection (RuntimeFaultProfile `cache-write`): every disk write
  /// fails as if the filesystem did (ENOSPC-style), exercising the
  /// soft-failure fallback path without needing a full device.
  bool inject_write_failure = false;
};

class ResultStore {
 public:
  /// On-disk format version; bump on any change to the record layout OR to
  /// the digest/key derivation (old entries must not alias new ones).
  static constexpr int kFormatVersion = 4;

  explicit ResultStore(ResultStoreOptions options = {});

  /// The table of the sweep `spec` names, stored under spec.digest: memory
  /// first, then disk (a disk hit is promoted into memory); nullptr on a
  /// miss. A disk record must hold a complete, clean table of spec.count
  /// realizations at spec.words words per mask. Records do not hold the
  /// asset index, so `assets` is attached to a table read from disk.
  std::shared_ptr<const FailureMasks> lookup(
      const SweepSpec& spec,
      std::shared_ptr<const FailureMasks::AssetIndex> assets);
  /// Inserts/refreshes both layers with `table` under spec.digest, with an
  /// empty ledger (a hit reports 0 retries), when it is complete (spec.count
  /// > 0 realizations of spec.words words) and clean (nothing quarantined);
  /// anything else would poison every warm rerun, so it is not stored. A
  /// disk write failure (ENOSPC, read-only mount, permission flip, injected
  /// fault) is a SOFT failure: it is counted in stats and logged, the
  /// memory layer keeps the table, and after kMaxConsecutiveWriteFailures
  /// in a row the disk layer turns itself off for the rest of the process
  /// — the cache is an accelerator, never a correctness dependency.
  void store(const SweepSpec& spec, const FailureMasks& table);

  /// The storm-stage memo: memory only, counted in memo_lookups/memo_hits.
  std::shared_ptr<const surge::ShorelineRecord> lookup_shoreline(
      const std::string& key);
  /// Inserts a shoreline record into the memory LRU (never to disk).
  void store_shoreline(const std::string& key,
                       std::shared_ptr<const surge::ShorelineRecord> record);

  /// Disk writes failing in a row before the layer self-disables.
  static constexpr unsigned kMaxConsecutiveWriteFailures = 3;

  /// Per-store counter snapshot. Counters are plain relaxed atomics (no
  /// mutex on the increment path); every increment is also folded into the
  /// process-wide metrics registry ("cache.*" counters), which is what
  /// `ctctl stats --metrics` and the service kMetrics reply surface.
  struct Stats {
    std::uint64_t lookups = 0;      ///< table lookups
    std::uint64_t hits = 0;         ///< memory + disk
    std::uint64_t disk_hits = 0;
    std::uint64_t corrupt_discarded = 0;
    std::uint64_t write_failures = 0;  ///< soft disk-write failures
    std::uint64_t memo_lookups = 0;    ///< shoreline-record lookups
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_stores = 0;
    double hit_rate() const noexcept {
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };
  Stats stats() const;

  const ResultStoreOptions& options() const noexcept { return options_; }
  /// Resolved disk directory ("" when the disk layer is off).
  const std::string& disk_dir() const noexcept { return disk_dir_; }
  /// True while the disk layer is still writing (false when configured off
  /// or self-disabled after repeated write failures).
  bool disk_active() const noexcept {
    return disk_enabled_.load(std::memory_order_acquire);
  }

  /// CT_CACHE_DIR, else $XDG_CACHE_HOME/ct, else $HOME/.cache/ct, else "".
  static std::string default_cache_dir();

 private:
  std::string record_path(const std::string& key) const;
  std::shared_ptr<const FailureMasks> read_disk(
      const SweepSpec& spec,
      std::shared_ptr<const FailureMasks::AssetIndex> assets);
  /// Returns false on any write failure (directory, open, flush, rename,
  /// or injected); never throws.
  bool write_disk(const SweepSpec& spec, const FailureMasks& table);
  void touch_locked(const std::string& key,
                    std::shared_ptr<const FailureMasks> table,
                    std::shared_ptr<const surge::ShorelineRecord> shoreline);
  /// Removes half-written "*.tmp" files a crashed process left behind in
  /// the fan-out directories (they never renamed, so they are garbage).
  void gc_leftover_tmp_files();

  ResultStoreOptions options_;
  std::string disk_dir_;
  std::atomic<bool> disk_enabled_{false};
  std::atomic<unsigned> consecutive_write_failures_{0};

  mutable std::mutex mutex_;
  // LRU: list front = most recent; map points into the list.
  struct Entry {
    std::string key;
    /// Exactly one is set: a table, or a memo entry's shoreline record.
    std::shared_ptr<const FailureMasks> table;
    std::shared_ptr<const surge::ShorelineRecord> shoreline;
  };
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;

  // Counters live outside mutex_: increments are relaxed atomic adds
  // mirrored into the metrics registry at the same call sites.
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> corrupt_discarded_{0};
  std::atomic<std::uint64_t> write_failures_{0};
  std::atomic<std::uint64_t> memo_lookups_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_stores_{0};
};

}  // namespace ct::runtime
