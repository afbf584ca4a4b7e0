#include "runtime/result_store.h"

#include <cstdlib>
#include <filesystem>
#include <optional>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/log.h"
#include "util/wire.h"

namespace ct::runtime {

namespace fs = std::filesystem;

namespace {

/// Process-wide cache counters (every ResultStore instance folds in) plus
/// the lookup-latency profiling hook.
struct CacheMetrics {
  obs::Counter lookups{"cache.lookups"};
  obs::Counter hits{"cache.hits"};
  obs::Counter disk_hits{"cache.disk_hits"};
  obs::Counter corrupt_discarded{"cache.corrupt_discarded"};
  obs::Counter write_failures{"cache.write_failures"};
  obs::Histogram lookup_us{"cache.lookup_us"};
  obs::Counter memo_lookups{"memo.lookups"};
  obs::Counter memo_hits{"memo.hits"};
  obs::Counter memo_stores{"memo.stores"};
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

/// Frame magic of a disk record ("CTRS" little-endian) and its one type.
constexpr std::uint32_t kRecordMagic = 0x53525443u;
constexpr std::uint8_t kTableRecord = 1;

bool key_is_safe(const std::string& key) {
  if (key.empty() || key.size() > 128) return false;
  for (const char c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;  // keys are digest hex; anything else stays out
  }
  return true;
}

}  // namespace

std::string ResultStore::default_cache_dir() {
  if (const char* env = std::getenv("CT_CACHE_DIR"); env && *env) return env;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg) {
    return std::string(xdg) + "/ct";
  }
  if (const char* home = std::getenv("HOME"); home && *home) {
    return std::string(home) + "/.cache/ct";
  }
  return {};
}

ResultStore::ResultStore(ResultStoreOptions options)
    : options_(std::move(options)) {
  if (options_.memory_entries == 0) options_.memory_entries = 1;
  if (options_.disk) {
    disk_dir_ = options_.disk_dir.empty() ? default_cache_dir()
                                          : options_.disk_dir;
    if (!disk_dir_.empty()) {
      std::error_code ec;
      fs::create_directories(disk_dir_, ec);
      if (ec) {
        CT_LOG(kWarn, "runtime") << "result cache: cannot create "
                                 << disk_dir_ << " (" << ec.message()
                                 << "); disk layer disabled";
        disk_dir_.clear();
      }
    }
    disk_enabled_.store(!disk_dir_.empty(), std::memory_order_release);
    if (!disk_dir_.empty()) gc_leftover_tmp_files();
  }
}

void ResultStore::gc_leftover_tmp_files() {
  // A crash between tmp-write and rename leaves a half-written "*.tmp" in
  // a fan-out directory. It never renamed, so it is garbage by
  // construction: readers already ignore it (only ".ctr" paths are ever
  // opened); collect it here so crashes cannot accumulate dead files.
  std::error_code ec;
  std::size_t removed = 0;
  for (fs::directory_iterator dir(disk_dir_, ec);
       !ec && dir != fs::directory_iterator(); dir.increment(ec)) {
    if (dir->is_directory(ec)) removed += util::remove_tmp_files(dir->path());
  }
  if (removed > 0) {
    CT_LOG(kInfo, "runtime")
        << "result cache: collected " << removed
        << " half-written tmp file(s) left by a crashed process";
  }
}

std::string ResultStore::record_path(const std::string& key) const {
  // Two-level fan-out keeps directories small at production entry counts.
  return disk_dir_ + "/" + key.substr(0, 2) + "/" + key + ".ctr";
}

std::shared_ptr<const FailureMasks> ResultStore::lookup(
    const SweepSpec& spec,
    std::shared_ptr<const FailureMasks::AssetIndex> assets) {
  CacheMetrics& m = cache_metrics();
  obs::ScopedTimer timer(m.lookup_us);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  m.lookups.inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(spec.digest);
    if (it != index_.end() && it->second->table) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      m.hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->table;
    }
  }
  if (!disk_active() || !key_is_safe(spec.digest)) return nullptr;
  std::shared_ptr<const FailureMasks> table =
      read_disk(spec, std::move(assets));
  if (!table) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  m.hits.inc();
  m.disk_hits.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  touch_locked(spec.digest, table, nullptr);
  return table;
}

void ResultStore::store(const SweepSpec& spec, const FailureMasks& table) {
  if (table.words != spec.words || table.attempted != spec.count ||
      table.size() != spec.count || spec.count == 0) {
    return;  // partial, quarantined or empty: nothing a rerun could use
  }
  auto clean = std::make_shared<FailureMasks>(table);
  clean->ledger = {};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    touch_locked(spec.digest, clean, nullptr);
  }
  if (!disk_active() || !key_is_safe(spec.digest)) return;
  if (write_disk(spec, *clean)) {
    consecutive_write_failures_.store(0, std::memory_order_relaxed);
    return;
  }
  // Soft failure: the memory layer already holds the table, so this run
  // loses nothing — only future processes lose the warm start.
  write_failures_.fetch_add(1, std::memory_order_relaxed);
  cache_metrics().write_failures.inc();
  const unsigned in_a_row =
      consecutive_write_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  CT_LOG(kWarn, "runtime") << "result cache: disk write failed for "
                           << spec.digest << " (" << in_a_row
                           << " consecutive); "
                           << "continuing memory-only for this entry";
  if (in_a_row >= kMaxConsecutiveWriteFailures && disk_active()) {
    disk_enabled_.store(false, std::memory_order_release);
    CT_LOG(kWarn, "runtime")
        << "result cache: " << kMaxConsecutiveWriteFailures
        << " consecutive disk write failures; disk layer disabled "
        << "(memory-only from here on)";
  }
}

std::shared_ptr<const surge::ShorelineRecord> ResultStore::lookup_shoreline(
    const std::string& key) {
  CacheMetrics& m = cache_metrics();
  memo_lookups_.fetch_add(1, std::memory_order_relaxed);
  m.memo_lookups.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || !it->second->shoreline) return nullptr;
  memo_hits_.fetch_add(1, std::memory_order_relaxed);
  m.memo_hits.inc();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->shoreline;
}

void ResultStore::store_shoreline(
    const std::string& key,
    std::shared_ptr<const surge::ShorelineRecord> record) {
  memo_stores_.fetch_add(1, std::memory_order_relaxed);
  cache_metrics().memo_stores.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  touch_locked(key, nullptr, std::move(record));
}

void ResultStore::touch_locked(
    const std::string& key, std::shared_ptr<const FailureMasks> table,
    std::shared_ptr<const surge::ShorelineRecord> shoreline) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->table = std::move(table);
    it->second->shoreline = std::move(shoreline);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(table), std::move(shoreline)});
  index_[key] = lru_.begin();
  while (lru_.size() > options_.memory_entries) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

std::shared_ptr<const FailureMasks> ResultStore::read_disk(
    const SweepSpec& spec,
    std::shared_ptr<const FailureMasks::AssetIndex> assets) {
  const std::optional<std::string> bytes =
      util::read_file(record_path(spec.digest));
  if (!bytes) return nullptr;  // plain miss: never cached here

  // Anything but one whole frame of this version holding this key, the
  // engine's counts and one complete, clean table is a counted miss the
  // next store() rewrites.
  const util::OpenedFrame frame = util::open_frame(*bytes, 0, kRecordMagic);
  if (frame.status == util::FrameStatus::kComplete &&
      frame.size == bytes->size() && frame.fields.type == kTableRecord &&
      frame.fields.version == kFormatVersion) {
    try {
      util::WireReader r(frame.payload);
      SweepProgress state;
      state.masks.words = spec.words;
      if (r.str() == spec.digest && r.u64() == spec.count &&
          r.u64() == spec.words && fold_state(r, spec.count, state) &&
          state.completed() == spec.count && state.masks.ledger.retries == 0 &&
          state.masks.ledger.failures.empty()) {
        state.masks.attempted = spec.count;
        state.masks.assets = std::move(assets);
        return std::make_shared<const FailureMasks>(std::move(state.masks));
      }
    } catch (const util::Error&) {
      // Falls through to the counted miss.
    }
  }
  corrupt_discarded_.fetch_add(1, std::memory_order_relaxed);
  cache_metrics().corrupt_discarded.inc();
  return nullptr;
}

bool ResultStore::write_disk(const SweepSpec& spec, const FailureMasks& table) {
  if (options_.inject_write_failure) return false;  // simulated ENOSPC
  std::error_code ec;
  const fs::path path = record_path(spec.digest);
  fs::create_directories(path.parent_path(), ec);
  if (ec) return false;

  util::WireWriter w;
  w.str(spec.digest).u64(spec.count).u64(spec.words);
  put_state(w, {{0, spec.count}}, table);
  // A concurrent reader sees either the old record or the complete new one,
  // and a crash mid-write leaves only a .tmp (collected at the next start).
  return util::atomic_write_file(
      path.string(),
      util::seal_frame({kRecordMagic, kFormatVersion, kTableRecord, 0},
                       w.bytes()));
}

ResultStore::Stats ResultStore::stats() const {
  Stats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.corrupt_discarded = corrupt_discarded_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  s.memo_lookups = memo_lookups_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.memo_stores = memo_stores_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ct::runtime
