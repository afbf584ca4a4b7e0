#include "runtime/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "obs/metrics.h"
#include "util/digest.h"
#include "util/fsio.h"
#include "util/log.h"
#include "util/wire.h"

namespace ct::runtime {

namespace fs = std::filesystem;

namespace {

/// Durable-write telemetry: fsync'd-write latency, write count and total
/// bytes, folded at the single site every checkpoint write funnels through.
struct CheckpointMetrics {
  obs::Histogram flush_us{"checkpoint.flush_us"};
  obs::Counter flushes{"checkpoint.flushes"};
  obs::Counter journal_bytes{"checkpoint.journal_bytes"};
};

CheckpointMetrics& checkpoint_metrics() {
  static CheckpointMetrics m;
  return m;
}

// --- crash-site accounting --------------------------------------------------

/// Process-wide durable-write counter. Flushes happen on the sweep thread
/// in slice order, so for a given workload the Nth site is always the same
/// instant — which is what makes CT_CRASH reproducible.
std::atomic<std::uint64_t> g_crash_sites{0};

/// Numbers the next durable write as a crash site and returns the hook
/// that ends the process where the CT_CRASH profile says (none when the
/// profile is off): no unwinding, no stream flushing, no atexit — the same
/// observable behavior as an OOM kill or power loss.
util::CrashHook crash_site(const CrashProfile& crash) {
  const std::uint64_t site =
      g_crash_sites.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!crash.enabled()) return {};
  return [&crash, site](util::WriteStage stage) {
    static constexpr CrashPoint kPoint[] = {
        CrashPoint::kBeforeWrite, CrashPoint::kTornWrite,
        CrashPoint::kAfterWrite};
    if (crash.fires(kPoint[static_cast<int>(stage)], site)) {
      ::_exit(CrashProfile::kExitCode);
    }
  };
}

/// Meters one durable write of `bytes`, which `write` performs: a
/// published header or snapshot, or an appended journal record.
template <typename Write>
bool metered_write(std::string_view bytes, const Write& write) {
  CheckpointMetrics& m = checkpoint_metrics();
  obs::ScopedTimer timer(m.flush_us);
  m.flushes.inc();
  m.journal_bytes.inc(bytes.size());
  return write();
}

/// Durable atomic publish of a snapshot or a fresh journal header.
bool publish(const std::string& path, const std::string& contents,
             const CrashProfile& crash) {
  return metered_write(contents, [&] {
    return util::atomic_write_file(path, contents, crash_site(crash));
  });
}

// --- frames -----------------------------------------------------------------

/// Frame magic of both checkpoint files ("CTCK" little-endian) and the
/// three frame types: the journal header, one journal record, a snapshot.
constexpr std::uint32_t kMagic = 0x4b435443u;
enum CheckpointFrame : std::uint8_t { kHeader = 1, kRecord = 2, kSnapshot = 3 };

util::FrameFields fields(CheckpointFrame type, std::uint32_t tag = 0) {
  return {kMagic, SweepJournal::kFormatVersion, type, tag};
}

/// The payload prefix of every journal header and snapshot of `spec`.
std::string encode_spec(const SweepSpec& spec) {
  util::WireWriter w;
  w.str(spec.digest).u64(spec.count).u64(spec.words);
  return w.take();
}

/// Folds journal record `seq` into `progress`; false when it does not
/// apply. The tag orders records, and the leading header digest binds each
/// one to its journal and epoch, so a spliced, reordered or replayed
/// record never applies.
bool replay_record(const util::OpenedFrame& record, std::uint32_t seq,
                   const std::array<std::uint64_t, 2>& binding,
                   std::uint64_t count, SweepProgress& progress) {
  if (record.fields.type != kRecord ||
      record.fields.version != SweepJournal::kFormatVersion ||
      record.fields.tag != seq) {
    return false;
  }
  try {
    util::WireReader r(record.payload);
    return r.u64() == binding[0] && r.u64() == binding[1] &&
           fold_state(r, count, progress);
  } catch (const util::Error&) {
    return false;
  }
}

}  // namespace

// --- FailureMasks -----------------------------------------------------------

bool FailureMasks::splice(std::span<const std::uint64_t> run_indices,
                          std::span<const std::uint64_t> run_bits) {
  if (run_indices.empty()) return true;
  const auto at =
      std::lower_bound(indices.begin(), indices.end(), run_indices.front());
  if (at != indices.end() && *at <= run_indices.back()) return false;
  const std::size_t k = static_cast<std::size_t>(at - indices.begin());
  indices.insert(at, run_indices.begin(), run_indices.end());
  bits.insert(bits.begin() + static_cast<std::ptrdiff_t>(k * words),
              run_bits.begin(), run_bits.end());
  return true;
}

// --- SweepProgress ----------------------------------------------------------

std::uint64_t SweepProgress::completed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [b, e] : done) n += e - b;
  return n;
}

bool SweepProgress::merge_range(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return false;
  auto it = std::lower_bound(
      done.begin(), done.end(), begin,
      [](const auto& range, std::uint64_t v) { return range.first < v; });
  // Overlap (touching does NOT count: [0,512)+[512,544) is the normal
  // shape of consecutive slices) with the predecessor or successor?
  if (it != done.begin() && std::prev(it)->second > begin) return false;
  if (it != done.end() && it->first < end) return false;
  it = done.insert(it, {begin, end});
  // Coalesce with exact-adjacent neighbors to keep `done` minimal.
  if (const auto next = std::next(it);
      next != done.end() && next->first == it->second) {
    it->second = next->second;
    done.erase(next);
  }
  if (it != done.begin()) {
    const auto prev = std::prev(it);
    if (prev->second == it->first) {
      prev->second = it->second;
      done.erase(it);
    }
  }
  return true;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SweepProgress::missing(
    std::uint64_t count) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cursor = 0;
  for (const auto& [b, e] : done) {
    if (b >= count) break;
    if (cursor < b) out.emplace_back(cursor, std::min(b, count));
    cursor = std::max(cursor, e);
  }
  if (cursor < count) out.emplace_back(cursor, count);
  return out;
}

// --- the state codec ---------------------------------------------------------

void put_state(util::WireWriter& w,
               const std::vector<std::pair<std::uint64_t, std::uint64_t>>& done,
               const FailureMasks& masks) {
  w.u64(done.size());
  for (const auto& [b, e] : done) w.u64(b).u64(e);
  w.u64(masks.ledger.retries);
  w.u64(masks.ledger.failures.size());
  for (const FailureRecord& f : masks.ledger.failures) {
    w.u64(f.realization).u64(f.seed).u32(f.attempts);
    w.i32(static_cast<std::int32_t>(f.code)).str(f.origin).str(f.message);
  }
  for (const std::uint64_t word : masks.bits) w.u64(word);
}

bool fold_state(util::WireReader& r, std::uint64_t count,
                SweepProgress& progress) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  std::uint64_t covered = 0;
  for (std::uint64_t n = r.u64(); n > 0; --n) {
    const std::uint64_t b = r.u64();
    const std::uint64_t e = r.u64();
    if (e > count || !progress.merge_range(b, e)) return false;
    ranges.emplace_back(b, e);
    covered += e - b;
  }
  FailureLedger& ledger = progress.masks.ledger;
  ledger.retries += r.u64();
  std::vector<std::uint64_t> quarantined;
  for (std::uint64_t n = r.u64(); n > 0; --n) {
    FailureRecord f;
    f.realization = r.u64();
    f.seed = r.u64();
    f.attempts = r.u32();
    f.code = static_cast<util::ErrorCode>(r.i32());
    f.origin = r.str();
    f.message = r.str();
    quarantined.push_back(f.realization);
    ledger.failures.push_back(std::move(f));
  }
  std::sort(quarantined.begin(), quarantined.end());
  std::vector<std::uint64_t> indices;
  std::vector<std::uint64_t> bits;
  for (const auto& [b, e] : ranges) {
    for (std::uint64_t i = b; i < e; ++i) {
      if (std::binary_search(quarantined.begin(), quarantined.end(), i)) {
        continue;
      }
      indices.push_back(i);
      for (std::size_t w = 0; w < progress.masks.words; ++w) {
        bits.push_back(r.u64());
      }
    }
  }
  r.require_end();
  return indices.size() + quarantined.size() == covered &&
         progress.masks.splice(indices, bits);
}

std::string_view resume_status_name(ResumeStatus status) noexcept {
  switch (status) {
    case ResumeStatus::kColdStart: return "cold-start";
    case ResumeStatus::kResumed: return "resumed";
    case ResumeStatus::kStale: return "stale";
    case ResumeStatus::kCorrupt: return "corrupt";
  }
  return "cold-start";
}

// --- SweepJournal -----------------------------------------------------------

SweepJournal::SweepJournal(CheckpointOptions options, SweepSpec spec)
    : options_(std::move(options)), spec_(std::move(spec)),
      crash_(options_.crash_spec.empty()
                 ? CrashProfile::from_env()
                 : CrashProfile::parse(options_.crash_spec)) {
  if (options_.interval == 0) options_.interval = 1;
  if (options_.snapshot_every == 0) options_.snapshot_every = 1;
}

SweepJournal::~SweepJournal() { close(); }

void SweepJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string SweepJournal::journal_path() const {
  return options_.dir + "/" + file_stem() + ".jrnl";
}

std::string SweepJournal::snapshot_path() const {
  return options_.dir + "/" + file_stem() + ".snap";
}

std::string SweepJournal::file_stem() const {
  util::Digest d;
  d.str("ct-sweep-file").str(spec_.digest);
  return d.hex();
}

ResumeInfo SweepJournal::load(SweepProgress& progress) {
  ResumeInfo info;
  progress = SweepProgress{};
  progress.masks.words = spec_.words;
  // A crash mid-publish leaves only a ".tmp"; it never renamed, so it is
  // garbage by construction — ignore and collect it.
  if (const std::size_t removed =
          util::remove_tmp_files(options_.dir, file_stem() + ".")) {
    CT_LOG(kInfo, "checkpoint")
        << "event=checkpoint_gc removed=" << removed
        << " reason=half-written-tmp-from-crash";
  }

  const auto cold_start = [&](ResumeStatus status, std::string detail) {
    progress = SweepProgress{};
    progress.masks.words = spec_.words;
    info = ResumeInfo{};
    info.status = status;
    info.detail = std::move(detail);
    return info;
  };
  const auto corrupt = [&](const std::string& file, std::string_view why) {
    CT_LOG(kError, "checkpoint")
        << "event=checkpoint_corrupt file=" << file << " reason=\"" << why
        << "\" action=cold-start";
    return cold_start(ResumeStatus::kCorrupt,
                      util::Error(util::ErrorCode::kCheckpointCorrupt,
                                  "checkpoint",
                                  std::string(why) + " (" + file + ")")
                          .what());
  };
  const auto stale = [&](const std::string& file, std::string_view why) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_stale file=" << file << " reason=\"" << why
        << "\" action=cold-start";
    return cold_start(ResumeStatus::kStale, std::string(why));
  };

  // --- snapshot: exactly one frame ------------------------------------------
  const std::string spec = encode_spec(spec_);
  std::uint64_t snap_epoch = 0;
  if (const std::optional<std::string> bytes = util::read_file(snapshot_path())) {
    const util::OpenedFrame frame = util::open_frame(*bytes, 0, kMagic);
    if (frame.status != util::FrameStatus::kComplete ||
        frame.size != bytes->size() || frame.fields.type != kSnapshot) {
      return corrupt(snapshot_path(), frame.status == util::FrameStatus::kBad
                                          ? frame.reason
                                          : "not one whole snapshot frame");
    }
    if (frame.fields.version != kFormatVersion) {
      return stale(snapshot_path(), "snapshot format version mismatch");
    }
    if (!frame.payload.starts_with(spec)) {
      return stale(snapshot_path(),
                   "snapshot was taken under different sweep inputs");
    }
    try {
      util::WireReader r(frame.payload.substr(spec.size()));
      snap_epoch = r.u64();
      if (!fold_state(r, spec_.count, progress)) {
        return corrupt(snapshot_path(), "invalid range or mask index");
      }
    } catch (const util::Error& e) {
      return corrupt(snapshot_path(), e.message());
    }
  }

  // --- journal: a header frame, then one frame per record -------------------
  if (const std::optional<std::string> bytes = util::read_file(journal_path())) {
    const util::OpenedFrame header = util::open_frame(*bytes, 0, kMagic);
    if (header.status == util::FrameStatus::kIncomplete) {
      // A journal header is published atomically, so a short file can only
      // be external damage — but with no records at stake, a quiet cold
      // journal (keeping any snapshot state) is both safe and forgiving.
      CT_LOG(kWarn, "checkpoint")
          << "event=checkpoint_replay file=" << journal_path()
          << " note=truncated-header records=0";
    } else {
      if (header.status == util::FrameStatus::kBad ||
          header.fields.type != kHeader) {
        return corrupt(journal_path(), "malformed journal header");
      }
      if (header.fields.version != kFormatVersion) {
        return stale(journal_path(), "journal format version mismatch");
      }
      if (!header.payload.starts_with(spec)) {
        return stale(journal_path(),
                     "journal was written under different sweep inputs");
      }
      std::uint64_t jrnl_epoch = 0;
      try {
        util::WireReader r(header.payload.substr(spec.size()));
        jrnl_epoch = r.u64();
        r.require_end();
      } catch (const util::Error&) {
        return corrupt(journal_path(), "malformed journal header");
      }
      if (jrnl_epoch > snap_epoch) {
        // The journal claims a snapshot that does not exist (deleted or
        // rolled back): its records are deltas on unknown state.
        return corrupt(journal_path(),
                       "journal epoch is ahead of the snapshot");
      }
      if (jrnl_epoch == snap_epoch) {
        const auto binding = util::payload_digest(header.payload);
        std::uint32_t seq = 1;
        for (std::size_t at = header.size; at < bytes->size(); ++seq) {
          const util::OpenedFrame record = util::open_frame(*bytes, at, kMagic);
          if (record.status != util::FrameStatus::kComplete) {
            if (record.status == util::FrameStatus::kBad &&
                util::find_frame(*bytes, at + 1, kMagic) != std::string::npos) {
              return corrupt(journal_path(),
                             "interior journal record is corrupt");
            }
            // Torn tail: the crash interrupted the final append. The
            // record never committed; its range simply gets recomputed.
            info.torn_tail_dropped = true;
            CT_LOG(kInfo, "checkpoint")
                << "event=checkpoint_replay file=" << journal_path()
                << " note=torn-tail-dropped at_record=" << seq;
            break;
          }
          if (!replay_record(record, seq, binding, spec_.count, progress)) {
            return corrupt(journal_path(),
                           "journal record sequence/range violation");
          }
          at += record.size;
        }
      } else {
        CT_LOG(kInfo, "checkpoint")
            << "event=checkpoint_replay file=" << journal_path()
            << " note=pre-snapshot-journal-ignored epoch=" << jrnl_epoch
            << " snapshot_epoch=" << snap_epoch;
      }
    }
  }

  std::vector<FailureRecord>& failures = progress.masks.ledger.failures;
  std::sort(failures.begin(), failures.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              return a.realization < b.realization;
            });
  epoch_ = snap_epoch;
  info.restored = progress.completed();
  info.status =
      info.restored > 0 ? ResumeStatus::kResumed : ResumeStatus::kColdStart;
  if (info.status == ResumeStatus::kResumed) {
    CT_LOG(kInfo, "checkpoint")
        << "event=checkpoint_replay status=resumed restored=" << info.restored
        << "/" << spec_.count << " failures=" << failures.size()
        << " epoch=" << snap_epoch
        << " torn_tail=" << (info.torn_tail_dropped ? 1 : 0);
  }
  return info;
}

bool SweepJournal::begin(const SweepProgress& progress, bool cold) {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    CT_LOG(kWarn, "checkpoint") << "event=checkpoint_disabled dir="
                                << options_.dir << " reason=" << ec.message();
    return false;
  }
  if (cold) {
    epoch_ = 0;
    fs::remove(snapshot_path(), ec);
    return reset_journal();
  }
  // Warm start: compact everything we just replayed into one fresh
  // snapshot, then reset the journal — the resumed run never appends after
  // foreign records, and replay length stays bounded by snapshot_every.
  if (!publish_snapshot(progress)) return false;
  return reset_journal();
}

bool SweepJournal::append(std::uint64_t begin, std::uint64_t end,
                          const FailureMasks& slice,
                          const SweepProgress& full) {
  if (fd_ < 0) return false;
  util::WireWriter w;
  w.u64(binding_[0]).u64(binding_[1]);
  put_state(w, {{begin, end}}, slice);
  const std::string record =
      util::seal_frame(fields(kRecord, next_seq_), w.bytes());
  if (!metered_write(record, [&] {
        return util::durable_append(fd_, record, crash_site(crash_));
      })) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_disabled file=" << journal_path()
        << " reason=append-write-failed";
    close();
    return false;
  }
  ++writes_;
  CT_LOG(kInfo, "checkpoint")
      << "event=checkpoint_write kind=record seq=" << next_seq_ << " range=["
      << begin << ',' << end << ") bytes=" << record.size()
      << " completed=" << full.completed() << "/" << spec_.count;
  ++next_seq_;
  if (++records_since_snapshot_ >= options_.snapshot_every) {
    if (!publish_snapshot(full) || !reset_journal()) return false;
  }
  return true;
}

bool SweepJournal::publish_snapshot(const SweepProgress& full) {
  const std::uint64_t epoch = epoch_ + 1;
  util::WireWriter w;
  w.u64(epoch);
  put_state(w, full.done, full.masks);
  if (!publish(snapshot_path(),
               util::seal_frame(fields(kSnapshot), encode_spec(spec_) + w.take()),
               crash_)) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_disabled file=" << snapshot_path()
        << " reason=snapshot-publish-failed";
    close();
    return false;
  }
  epoch_ = epoch;
  ++writes_;
  CT_LOG(kInfo, "checkpoint")
      << "event=checkpoint_write kind=snapshot epoch=" << epoch
      << " completed=" << full.completed() << "/" << spec_.count
      << " failures=" << full.masks.ledger.failures.size();
  return true;
}

bool SweepJournal::reset_journal() {
  close();
  next_seq_ = 1;
  records_since_snapshot_ = 0;
  util::WireWriter w;
  w.u64(epoch_);
  const std::string header = encode_spec(spec_) + w.take();
  binding_ = util::payload_digest(header);
  if (!publish(journal_path(), util::seal_frame(fields(kHeader), header),
               crash_)) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_disabled file=" << journal_path()
        << " reason=header-publish-failed";
    return false;
  }
  ++writes_;
  fd_ = ::open(journal_path().c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_disabled file=" << journal_path()
        << " reason=cannot-reopen-journal";
    return false;
  }
  CT_LOG(kInfo, "checkpoint")
      << "event=checkpoint_write kind=journal-reset epoch=" << epoch_;
  return true;
}

void SweepJournal::finish() {
  close();
  std::error_code ec;
  fs::remove(journal_path(), ec);
  fs::remove(snapshot_path(), ec);
  util::fsync_parent_dir(journal_path());
  CT_LOG(kInfo, "checkpoint")
      << "event=checkpoint_finish digest=" << spec_.digest
      << " writes=" << writes_;
}

}  // namespace ct::runtime
