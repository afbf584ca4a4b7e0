// Crash-consistency tests for the sweep checkpoint layer (PR 7):
//
//  * SweepProgress range algebra (merge, coalesce, overlap, missing);
//  * journal round-trips, torn-tail drop, interior-corruption detection,
//    stale-digest refusal, snapshot compaction, tmp-file GC;
//  * run_resumable's ledger against the fault rules, interrupt + resume
//    bit-identity across --jobs, resume under CT_FAULT (quarantined
//    indices must not be re-counted), knob-change cold start;
//  * the self-exec crash matrix: a child process is killed by CT_CRASH at
//    EVERY checkpoint site (before / torn / after), relaunched with
//    resume, and must reproduce the uninterrupted run exactly.
//
// This binary supplies its own main(): when invoked with --crash-child it
// runs the harness workload instead of gtest (the child is this same
// executable re-exec'd via /proc/self/exe).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "figure_bench.h"
#include "obs/metrics.h"
#include "runtime/checkpoint.h"
#include "runtime/ensemble_runner.h"
#include "runtime/fault_profile.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "surge/realization.h"
#include "terrain/oahu.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/wire.h"

namespace ct {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 20220627;

surge::RealizationEngine make_engine(std::uint64_t seed = kSeed) {
  surge::RealizationConfig config;
  config.base_seed = seed;
  return surge::RealizationEngine(terrain::make_oahu_terrain(),
                                  scada::oahu_topology().exposed_assets(),
                                  config);
}

runtime::EnsembleOptions make_options(unsigned jobs,
                                      const std::string& fault = "none") {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.cache = false;
  options.fault_spec = fault;  // "none", not "": ignore ambient CT_FAULT
  return options;
}

runtime::CheckpointOptions make_ckpt(const std::string& dir,
                                     std::size_t interval = 8,
                                     std::size_t snapshot_every = 16) {
  runtime::CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval = interval;
  ckpt.snapshot_every = snapshot_every;
  ckpt.crash_spec = "none";  // in-process tests must never _exit
  return ckpt;
}

/// Scratch directory per test, wiped on construction.
std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("ct-checkpoint-test-" + name)).string();
  fs::remove_all(dir);
  return dir;
}

runtime::SweepSpec unit_spec(std::string digest = "unit-digest") {
  runtime::SweepSpec spec;
  spec.digest = std::move(digest);
  spec.count = 100;
  spec.words = 2;
  return spec;
}

/// Empty progress of a unit_spec() sweep.
runtime::SweepProgress unit_progress() {
  runtime::SweepProgress p;
  p.masks.words = 2;
  return p;
}

/// Fabricates the deterministic masks of slice [begin, end) (two words per
/// index, so every bit position is in play), quarantines the indices of
/// `failures`, and folds the slice into `progress` the way run_resumable
/// does. Returns the slice, as the journal appends it.
runtime::FailureMasks fold_slice(
    runtime::SweepProgress& progress, std::uint64_t begin, std::uint64_t end,
    const std::vector<runtime::FailureRecord>& failures = {},
    std::uint64_t retries = 0) {
  runtime::FailureMasks slice;
  slice.words = 2;
  slice.ledger.failures = failures;
  slice.ledger.retries = retries;
  for (std::uint64_t i = begin; i < end; ++i) {
    if (std::any_of(failures.begin(), failures.end(),
                    [i](const auto& f) { return f.realization == i; })) {
      continue;
    }
    slice.indices.push_back(i);
    slice.bits.push_back(i * 0x9e3779b97f4a7c15ull);
    slice.bits.push_back(~i);
  }
  EXPECT_TRUE(progress.merge_range(begin, end));
  EXPECT_TRUE(progress.masks.splice(slice.indices, slice.bits));
  runtime::FailureLedger& ledger = progress.masks.ledger;
  ledger.failures.insert(ledger.failures.end(), failures.begin(),
                         failures.end());
  ledger.retries += retries;
  return slice;
}

/// Every field of every failure record.
void expect_failures_eq(const std::vector<runtime::FailureRecord>& a,
                        const std::vector<runtime::FailureRecord>& b,
                        const std::string& context = "") {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].realization, b[i].realization) << context;
    EXPECT_EQ(a[i].seed, b[i].seed) << context;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << context;
    EXPECT_EQ(a[i].code, b[i].code) << context;
    EXPECT_EQ(a[i].origin, b[i].origin) << context;
    EXPECT_EQ(a[i].message, b[i].message) << context;
  }
}

/// Two mask tables, survivor for survivor, with their ledgers.
void expect_masks_eq(const runtime::FailureMasks& a,
                     const runtime::FailureMasks& b,
                     const std::string& context = "") {
  EXPECT_EQ(a.words, b.words) << context;
  EXPECT_EQ(a.indices, b.indices) << context;
  EXPECT_EQ(a.bits, b.bits) << context;
  expect_failures_eq(a.ledger.failures, b.ledger.failures, context);
  EXPECT_EQ(a.ledger.retries, b.ledger.retries) << context;
}

void expect_progress_eq(const runtime::SweepProgress& a,
                        const runtime::SweepProgress& b) {
  EXPECT_EQ(a.done, b.done);
  expect_masks_eq(a.masks, b.masks);
}

/// The quarantine record slice [10, 20) of the journal tests carries:
/// hostile content the framing must survive.
runtime::FailureRecord hostile_failure() {
  runtime::FailureRecord f;
  f.realization = 13;
  f.seed = kSeed;
  f.attempts = 3;
  f.code = util::ErrorCode::kFaultInjected;
  f.origin = "fault injection";
  f.message = std::string("bad\nmessage with spaces, 100% chaos and a ") +
              '\0' + " byte";
  return f;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// Offsets of the complete frames a checkpoint file starts with, walked
/// one after another (its magic is the first four bytes).
std::vector<std::size_t> frame_offsets(const std::string& bytes) {
  std::vector<std::size_t> offsets;
  if (bytes.size() < 4) return offsets;
  const std::uint32_t magic = util::WireReader(bytes.substr(0, 4)).u32();
  for (std::size_t at = 0;;) {
    const util::OpenedFrame frame = util::open_frame(bytes, at, magic);
    if (frame.status != util::FrameStatus::kComplete) return offsets;
    offsets.push_back(at);
    at += frame.size;
  }
}

// --- SweepProgress ----------------------------------------------------------

TEST(SweepProgressTest, MergeCoalesceOverlapAndMissing) {
  runtime::SweepProgress p;
  EXPECT_TRUE(p.merge_range(0, 10));
  EXPECT_TRUE(p.merge_range(20, 30));
  EXPECT_EQ(p.done.size(), 2u);
  // Touching ranges coalesce (consecutive slices), from either side.
  EXPECT_TRUE(p.merge_range(10, 15));
  EXPECT_EQ(p.done.size(), 2u);
  EXPECT_EQ(p.done[0], (std::pair<std::uint64_t, std::uint64_t>{0, 15}));
  EXPECT_TRUE(p.merge_range(15, 20));  // bridges both neighbors
  EXPECT_EQ(p.done.size(), 1u);
  EXPECT_EQ(p.done[0], (std::pair<std::uint64_t, std::uint64_t>{0, 30}));
  EXPECT_EQ(p.completed(), 30u);
  // Overlap is refused with the state unchanged.
  EXPECT_FALSE(p.merge_range(29, 31));
  EXPECT_FALSE(p.merge_range(0, 1));
  EXPECT_FALSE(p.merge_range(5, 5));  // empty
  EXPECT_EQ(p.done.size(), 1u);
  // The complement drives resume scheduling.
  EXPECT_TRUE(p.merge_range(40, 50));
  const auto missing = p.missing(60);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], (std::pair<std::uint64_t, std::uint64_t>{30, 40}));
  EXPECT_EQ(missing[1], (std::pair<std::uint64_t, std::uint64_t>{50, 60}));
  EXPECT_TRUE(runtime::SweepProgress{}.missing(0).empty());
}

TEST(FailureMasksTest, SpliceKeepsIndicesAscendingAndRefusesOverlap) {
  runtime::FailureMasks m;
  m.words = 1;
  const std::vector<std::uint64_t> high = {20, 21};
  const std::vector<std::uint64_t> low = {3, 5};
  const std::vector<std::uint64_t> mid = {10};
  EXPECT_TRUE(m.splice(high, std::vector<std::uint64_t>{0xa, 0xb}));
  EXPECT_TRUE(m.splice(low, std::vector<std::uint64_t>{0x1, 0x2}));
  EXPECT_TRUE(m.splice(mid, std::vector<std::uint64_t>{0x3}));
  EXPECT_EQ(m.indices, (std::vector<std::uint64_t>{3, 5, 10, 20, 21}));
  EXPECT_EQ(m.bits, (std::vector<std::uint64_t>{0x1, 0x2, 0x3, 0xa, 0xb}));
  // A run that straddles an existing index, or repeats one, is refused.
  const std::vector<std::uint64_t> straddle = {9, 11};
  EXPECT_FALSE(m.splice(straddle, std::vector<std::uint64_t>{0, 0}));
  const std::vector<std::uint64_t> repeat = {21};
  EXPECT_FALSE(m.splice(repeat, std::vector<std::uint64_t>{0}));
  EXPECT_EQ(m.size(), 5u);
  // No asset index: every site reads as not flooded.
  EXPECT_EQ(core::SitePatterns(scada::make_config_2("sub-honolulu"), m).of(0),
            0u);
}

// --- CrashProfile grammar ---------------------------------------------------

TEST(CrashProfileTest, ParseGrammar) {
  EXPECT_FALSE(runtime::CrashProfile::parse("").enabled());
  EXPECT_FALSE(runtime::CrashProfile::parse("none").enabled());
  EXPECT_FALSE(runtime::CrashProfile::parse("off").enabled());
  const runtime::CrashProfile torn = runtime::CrashProfile::parse("torn:at=3");
  EXPECT_TRUE(torn.enabled());
  EXPECT_EQ(torn.point, runtime::CrashPoint::kTornWrite);
  EXPECT_EQ(torn.at, 3u);
  EXPECT_TRUE(torn.fires(runtime::CrashPoint::kTornWrite, 3));
  EXPECT_FALSE(torn.fires(runtime::CrashPoint::kTornWrite, 2));
  EXPECT_FALSE(torn.fires(runtime::CrashPoint::kBeforeWrite, 3));
  EXPECT_EQ(runtime::CrashProfile::parse("before:at=1").point,
            runtime::CrashPoint::kBeforeWrite);
  EXPECT_EQ(runtime::CrashProfile::parse("after:at=9").point,
            runtime::CrashPoint::kAfterWrite);
  EXPECT_THROW(runtime::CrashProfile::parse("explode:at=1"), util::Error);
  EXPECT_THROW(runtime::CrashProfile::parse("torn"), util::Error);
  EXPECT_THROW(runtime::CrashProfile::parse("torn:at=0"), util::Error);
  EXPECT_THROW(runtime::CrashProfile::parse("torn:every=3"), util::Error);
}

// --- journal unit tests -----------------------------------------------------

TEST(SweepJournalTest, RoundTripRestoresEverything) {
  const std::string dir = scratch_dir("roundtrip");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p = unit_progress();
  {
    runtime::SweepJournal j(make_ckpt(dir, 10, 100), spec);
    ASSERT_TRUE(j.begin(p, true));
    for (const auto& [b, e] : {std::pair<std::uint64_t, std::uint64_t>{0, 10},
                               {10, 20},
                               {20, 30}}) {
      // Slice 2 carries a quarantine record with hostile content: the
      // framing must survive newlines, spaces and percent signs.
      const runtime::FailureMasks slice =
          b == 10 ? fold_slice(p, b, e, {hostile_failure()}, 2)
                  : fold_slice(p, b, e);
      ASSERT_TRUE(j.append(b, e, slice, p));
    }
    j.close();  // interrupted, not finished: files stay
  }
  runtime::SweepJournal j2(make_ckpt(dir, 10, 100), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_EQ(info.restored, 30u);
  EXPECT_FALSE(info.torn_tail_dropped);
  EXPECT_EQ(restored.masks.size(), 29u);
  expect_progress_eq(restored, p);
}

TEST(SweepJournalTest, TornTailIsDroppedSilently) {
  const std::string dir = scratch_dir("torn");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p = unit_progress();
  std::string journal_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10, 100), spec);
    ASSERT_TRUE(j.begin(p, true));
    for (std::uint64_t b = 0; b < 30; b += 10) {
      ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), p));
    }
    journal_path = j.journal_path();
  }
  // Chop the final record mid-checksum: the only shape a crash can leave.
  std::string contents = read_file(journal_path);
  ASSERT_GT(contents.size(), 10u);
  contents.resize(contents.size() - 10);
  write_file(journal_path, contents);

  runtime::SweepJournal j2(make_ckpt(dir, 10, 100), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_TRUE(info.torn_tail_dropped);
  EXPECT_EQ(info.restored, 20u);  // records 1-2 kept, torn record 3 dropped
  ASSERT_EQ(restored.done.size(), 1u);
  EXPECT_EQ(restored.done[0],
            (std::pair<std::uint64_t, std::uint64_t>{0, 20}));
  EXPECT_EQ(restored.masks.size(), 20u);
}

TEST(SweepJournalTest, InteriorBitFlipIsTypedCorruptionAndColdStarts) {
  const std::string dir = scratch_dir("bitflip");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p = unit_progress();
  std::string journal_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10, 100), spec);
    ASSERT_TRUE(j.begin(p, true));
    for (std::uint64_t b = 0; b < 30; b += 10) {
      ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), p));
    }
    journal_path = j.journal_path();
  }
  // Flip one byte inside the FIRST record's payload. Complete valid
  // records follow, so this cannot be a torn tail — it must be reported
  // as corruption (kCheckpointCorrupt), not silently replayed or dropped.
  std::string contents = read_file(journal_path);
  const std::vector<std::size_t> frames = frame_offsets(contents);
  ASSERT_EQ(frames.size(), 4u);  // header + 3 records
  contents[frames[1] + util::kFrameHeaderSize + 20] ^= 0x01;
  write_file(journal_path, contents);

  runtime::SweepJournal j2(make_ckpt(dir, 10, 100), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kCorrupt);
  EXPECT_NE(info.detail.find("checkpoint-corrupt"), std::string::npos)
      << info.detail;
  EXPECT_EQ(info.restored, 0u);  // cold start: nothing salvaged
  EXPECT_EQ(restored.completed(), 0u);
  EXPECT_EQ(restored.masks.size(), 0u);
}

TEST(SweepJournalTest, DifferentDigestOrWordsIsStaleNotCorrupt) {
  const std::string dir = scratch_dir("stale");
  runtime::SweepProgress p = unit_progress();
  {
    runtime::SweepJournal j(make_ckpt(dir), unit_spec("digest-one"));
    ASSERT_TRUE(j.begin(p, true));
    ASSERT_TRUE(j.append(0, 10, fold_slice(p, 0, 10), p));
  }
  {
    // Same directory, different sweep digest (changed knobs).
    runtime::SweepJournal j(make_ckpt(dir), unit_spec("digest-two"));
    runtime::SweepProgress restored;
    // Different digest => different file name => plain cold start.
    EXPECT_EQ(j.load(restored).status, runtime::ResumeStatus::kColdStart);
  }
  {
    // Same digest but another mask width: the header refuses it.
    runtime::SweepSpec spec = unit_spec("digest-one");
    spec.words = 3;
    runtime::SweepJournal j(make_ckpt(dir), spec);
    runtime::SweepProgress restored;
    const runtime::ResumeInfo info = j.load(restored);
    EXPECT_EQ(info.status, runtime::ResumeStatus::kStale);
    EXPECT_EQ(restored.completed(), 0u);
  }
}

/// Rewrites the first frame of the file at `path` with format version 2,
/// its payload unchanged and resealed.
void reseal_as_format_two(const std::string& path) {
  const std::string bytes = read_file(path);
  const std::uint32_t magic = util::WireReader(bytes.substr(0, 4)).u32();
  const util::OpenedFrame frame = util::open_frame(bytes, 0, magic);
  ASSERT_EQ(frame.status, util::FrameStatus::kComplete);
  util::FrameFields fields = frame.fields;
  fields.version = 2;
  write_file(path, util::seal_frame(fields, frame.payload) +
                       bytes.substr(frame.size));
}

/// A journal or snapshot of format 2 (per-cell counts, before the mask
/// table) reads as stale: a cold start, never a replay.
TEST(SweepJournalTest, FormatTwoCheckpointReadsAsStale) {
  for (const bool snapshot : {false, true}) {
    const std::string dir =
        scratch_dir(snapshot ? "format2-snap" : "format2-jrnl");
    runtime::SweepProgress p = unit_progress();
    std::string path;
    {
      runtime::SweepJournal j(make_ckpt(dir, 10, snapshot ? 1 : 100),
                              unit_spec());
      ASSERT_TRUE(j.begin(p, true));
      ASSERT_TRUE(j.append(0, 10, fold_slice(p, 0, 10), p));
      path = snapshot ? j.snapshot_path() : j.journal_path();
    }
    ASSERT_TRUE(fs::exists(path));
    reseal_as_format_two(path);
    runtime::SweepJournal j(make_ckpt(dir), unit_spec());
    runtime::SweepProgress restored;
    const runtime::ResumeInfo info = j.load(restored);
    EXPECT_EQ(info.status, runtime::ResumeStatus::kStale) << path;
    EXPECT_EQ(restored.completed(), 0u);
  }
}

TEST(SweepJournalTest, SnapshotCompactionBoundsReplayAndRestoresAll) {
  const std::string dir = scratch_dir("compact");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p = unit_progress();
  std::string journal_path, snapshot_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10, /*snapshot_every=*/2), spec);
    ASSERT_TRUE(j.begin(p, true));
    for (std::uint64_t b = 0; b < 50; b += 10) {
      ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), p));
    }
    journal_path = j.journal_path();
    snapshot_path = j.snapshot_path();
  }
  // 5 records, compaction every 2: snapshots after records 2 and 4, so the
  // journal holds ONLY the one record since — replay length is bounded.
  EXPECT_TRUE(fs::exists(snapshot_path));
  // The header frame, then one record frame.
  EXPECT_EQ(frame_offsets(read_file(journal_path)).size(), 2u);

  runtime::SweepJournal j2(make_ckpt(dir, 10, 2), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_EQ(info.restored, 50u);
  expect_progress_eq(restored, p);
}

TEST(SweepJournalTest, HalfWrittenSnapshotTmpIsIgnoredAndCollected) {
  const std::string dir = scratch_dir("snaptmp");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p = unit_progress();
  std::string snapshot_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10, 100), spec);
    ASSERT_TRUE(j.begin(p, true));
    ASSERT_TRUE(j.append(0, 10, fold_slice(p, 0, 10), p));
    snapshot_path = j.snapshot_path();
  }
  // A crash mid-snapshot leaves a half-written tmp that never renamed.
  write_file(snapshot_path + ".tmp", "ctsnapshot 1 100 2 1 0 0");

  runtime::SweepJournal j2(make_ckpt(dir, 10, 100), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_EQ(info.restored, 10u);
  EXPECT_FALSE(fs::exists(snapshot_path + ".tmp"));  // GC'd
}

TEST(SweepJournalTest, JournalAheadOfMissingSnapshotIsCorrupt) {
  const std::string dir = scratch_dir("epoch");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p = unit_progress();
  std::string snapshot_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10, /*snapshot_every=*/1), spec);
    ASSERT_TRUE(j.begin(p, true));
    ASSERT_TRUE(j.append(0, 10, fold_slice(p, 0, 10), p));
    ASSERT_TRUE(j.append(10, 20, fold_slice(p, 10, 20), p));
    snapshot_path = j.snapshot_path();
  }
  // The journal's records are deltas on top of the snapshot; with the
  // snapshot gone they describe unknown state and must not be replayed.
  ASSERT_TRUE(fs::exists(snapshot_path));
  fs::remove(snapshot_path);

  runtime::SweepJournal j2(make_ckpt(dir, 10, 1), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kCorrupt);
  EXPECT_EQ(restored.completed(), 0u);
}

// --- corruption matrix ------------------------------------------------------

/// Journals three 10-index slices, the second carrying a quarantine record
/// with hostile content. Returns the merged progress after 0, 1, 2 and 3
/// records.
std::vector<runtime::SweepProgress> journal_three_records(
    const std::string& dir, std::size_t snapshot_every) {
  runtime::SweepProgress p = unit_progress();
  std::vector<runtime::SweepProgress> prefixes = {p};
  runtime::SweepJournal j(make_ckpt(dir, 10, snapshot_every), unit_spec());
  EXPECT_TRUE(j.begin(p, true));
  for (std::uint64_t b = 0; b < 30; b += 10) {
    const runtime::FailureMasks slice =
        b == 10 ? fold_slice(p, b, b + 10, {hostile_failure()}, 2)
                : fold_slice(p, b, b + 10);
    EXPECT_TRUE(j.append(b, b + 10, slice, p));
    prefixes.push_back(p);
  }
  return prefixes;
}

/// Every truncation, every byte flip (one list per frame) and one
/// trailing byte of `bytes`.
struct Mutations {
  std::vector<std::string> truncated;
  std::vector<std::vector<std::string>> flipped;  ///< per frame
  std::string trailing;
};

Mutations mutate(const std::string& bytes,
                 const std::vector<std::size_t>& frames) {
  Mutations m;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    m.truncated.push_back(bytes.substr(0, n));
  }
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const std::size_t end = f + 1 < frames.size() ? frames[f + 1] : bytes.size();
    m.flipped.emplace_back();
    for (std::size_t i = frames[f]; i < end; ++i) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x5a);
      m.flipped.back().push_back(std::move(flipped));
    }
  }
  m.trailing = bytes + "x";
  return m;
}

runtime::ResumeInfo load_from(const std::string& dir,
                              runtime::SweepProgress& restored) {
  runtime::SweepJournal j(make_ckpt(dir, 10, 100), unit_spec());
  return j.load(restored);
}

TEST(SweepJournalTest, EveryJournalMutationKeepsAPrefixOrIsCorrupt) {
  const std::string dir = scratch_dir("matrix-journal");
  const std::vector<runtime::SweepProgress> prefixes =
      journal_three_records(dir, 100);
  const std::string path =
      runtime::SweepJournal(make_ckpt(dir), unit_spec()).journal_path();
  const std::string good = read_file(path);
  const std::vector<std::size_t> frames = frame_offsets(good);
  ASSERT_EQ(frames.size(), 4u);  // header + 3 records
  const Mutations m = mutate(good, frames);

  // Truncations and a trailing byte are what a crash can leave: a prefix
  // of the records (the whole ones before the cut) comes back.
  const auto expect_prefix = [&](const std::string& bytes, std::size_t kept,
                                 const std::string& context) {
    write_file(path, bytes);
    runtime::SweepProgress restored;
    const runtime::ResumeInfo info = load_from(dir, restored);
    EXPECT_EQ(info.status, kept > 0 ? runtime::ResumeStatus::kResumed
                                    : runtime::ResumeStatus::kColdStart)
        << context;
    EXPECT_EQ(info.restored, 10u * kept) << context;
    expect_progress_eq(restored, prefixes[kept]);
  };
  for (std::size_t n = 0; n < m.truncated.size(); ++n) {
    std::size_t kept = 0;
    while (kept < 3 && (kept + 2 < frames.size() ? frames[kept + 2]
                                                 : good.size()) <= n) {
      ++kept;
    }
    expect_prefix(m.truncated[n], kept, "truncated to " + std::to_string(n));
  }
  expect_prefix(m.trailing, 3, "trailing byte");

  // A flip in the header or a non-final record has a valid frame after
  // it, so no crash made it: corrupt, nothing restored.
  for (std::size_t f = 0; f + 1 < frames.size(); ++f) {
    for (std::size_t i = 0; i < m.flipped[f].size(); ++i) {
      write_file(path, m.flipped[f][i]);
      runtime::SweepProgress restored;
      const runtime::ResumeInfo info = load_from(dir, restored);
      EXPECT_EQ(info.status, runtime::ResumeStatus::kCorrupt)
          << "frame " << f << " byte " << i;
      EXPECT_EQ(info.restored, 0u);
      EXPECT_EQ(restored.completed(), 0u);
    }
  }
  // A flip in the final record is a torn tail: dropped, two restored.
  for (std::size_t i = 0; i < m.flipped.back().size(); ++i) {
    write_file(path, m.flipped.back()[i]);
    runtime::SweepProgress restored;
    const runtime::ResumeInfo info = load_from(dir, restored);
    EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed) << "byte " << i;
    EXPECT_TRUE(info.torn_tail_dropped) << "byte " << i;
    expect_progress_eq(restored, prefixes[2]);
  }
}

TEST(SweepJournalTest, SplicedReorderedOrReplayedRecordNeverApplies) {
  const std::string dir = scratch_dir("splice");
  journal_three_records(dir, 100);
  const std::string path =
      runtime::SweepJournal(make_ckpt(dir), unit_spec()).journal_path();
  const std::string good = read_file(path);
  const std::vector<std::size_t> f = frame_offsets(good);
  ASSERT_EQ(f.size(), 4u);
  const auto frame = [&](std::size_t i) {
    const std::size_t end = i + 1 < f.size() ? f[i + 1] : good.size();
    return good.substr(f[i], end - f[i]);
  };
  // A journal of the same sweep one epoch later: its record is sequence 1
  // of a different header.
  const std::string later_dir = scratch_dir("splice-later");
  journal_three_records(later_dir, 2);
  const std::string later = read_file(
      runtime::SweepJournal(make_ckpt(later_dir), unit_spec()).journal_path());
  const std::vector<std::size_t> lf = frame_offsets(later);
  ASSERT_EQ(lf.size(), 2u);

  for (const std::string& bytes :
       {frame(0) + frame(2) + frame(1) + frame(3),    // reordered
        frame(0) + frame(1) + frame(1) + frame(2),    // replayed
        frame(0) + later.substr(lf[1])}) {            // spliced
    write_file(path, bytes);
    runtime::SweepProgress restored;
    const runtime::ResumeInfo info = load_from(dir, restored);
    EXPECT_EQ(info.status, runtime::ResumeStatus::kCorrupt);
    EXPECT_EQ(restored.completed(), 0u);
  }
}

TEST(SweepJournalTest, EverySnapshotMutationIsCorrupt) {
  const std::string dir = scratch_dir("matrix-snapshot");
  // Compaction every 2 records: a snapshot of records 1-2 plus a journal
  // holding record 3.
  journal_three_records(dir, 2);
  const std::string path =
      runtime::SweepJournal(make_ckpt(dir), unit_spec()).snapshot_path();
  const std::string good = read_file(path);
  const std::vector<std::size_t> frames = frame_offsets(good);
  ASSERT_EQ(frames.size(), 1u);
  {
    runtime::SweepProgress restored;
    EXPECT_EQ(load_from(dir, restored).restored, 30u);  // unmutated
  }
  const Mutations m = mutate(good, frames);
  std::vector<std::string> all = m.truncated;
  all.insert(all.end(), m.flipped[0].begin(), m.flipped[0].end());
  all.push_back(m.trailing);
  for (std::size_t k = 0; k < all.size(); ++k) {
    write_file(path, all[k]);
    runtime::SweepProgress restored;
    const runtime::ResumeInfo info = load_from(dir, restored);
    EXPECT_EQ(info.status, runtime::ResumeStatus::kCorrupt) << "mutation " << k;
    EXPECT_EQ(restored.completed(), 0u) << "mutation " << k;
  }
}

// --- run_resumable ----------------------------------------------------------

constexpr std::size_t kSweepCount = 40;

runtime::SweepSpec sweep_spec(std::string digest = "sweep-digest") {
  runtime::SweepSpec spec;
  spec.digest = std::move(digest);
  spec.count = kSweepCount;
  return spec;
}

std::vector<unsigned> job_counts() {
  std::vector<unsigned> jobs = {1, 2, 8};
  if (const unsigned extra = bench::test_jobs(0)) jobs.push_back(extra);
  return jobs;
}

/// Progress observer that cancels `interrupt` once `at` indices are done.
std::function<void(const runtime::SweepProgressEvent&)> cancel_at(
    runtime::CancellationToken& interrupt, std::uint64_t at) {
  return [&interrupt, at](const runtime::SweepProgressEvent& event) {
    if (event.done >= at) interrupt.request_cancel();
  };
}

/// The ledger a sweep of `count` realizations must end with under `fault`
/// and `retries`, worked out from RuntimeFaultProfile's rules alone: an
/// index fails an attempt when a throw, nan or (watchdog-bound) delay rule
/// fires on it, heals on the first attempt none fires, and is quarantined
/// when all 1 + retries attempts fail. The code is the first rule's that
/// fires on the last attempt, in the order the sweep applies them.
runtime::FailureLedger predicted_ledger(const std::string& fault,
                                        unsigned retries, std::size_t count) {
  const runtime::RuntimeFaultProfile profile =
      runtime::RuntimeFaultProfile::parse(fault);
  runtime::FailureLedger ledger;
  for (std::uint64_t i = 0; i < count; ++i) {
    unsigned attempt = 1;
    const auto code = [&](unsigned a) -> std::optional<util::ErrorCode> {
      if (profile.throw_rule.fires(i, a)) {
        return util::ErrorCode::kFaultInjected;
      }
      if (profile.delay_rule.fires(i, a)) return util::ErrorCode::kTimeout;
      if (profile.nan_rule.fires(i, a)) return util::ErrorCode::kNumeric;
      return std::nullopt;
    };
    while (attempt <= retries && code(attempt)) ++attempt;
    ledger.retries += attempt - 1;
    if (const std::optional<util::ErrorCode> failed = code(attempt)) {
      runtime::FailureRecord f;
      f.realization = i;
      f.seed = kSeed;
      f.attempts = attempt;
      f.code = *failed;
      ledger.failures.push_back(f);
    }
  }
  return ledger;
}

/// Under the throw, nan and delay profiles (quarantining or healed on the
/// retry) and at max_retries 0 and 1, the sweep's ledger is exactly the one
/// the fault rules predict, at every jobs value, and the survivors' masks
/// are run_batch's flood bits.
TEST(RunResumableTest, ColdRunLedgerMatchesFaultRulesAtAnyJobs) {
  const surge::RealizationEngine engine = make_engine();
  constexpr std::size_t kCount = 20;
  const std::vector<surge::HurricaneRealization> batch =
      engine.run_batch(kCount);
  runtime::SweepSpec spec = sweep_spec();
  spec.count = kCount;

  for (const std::string fault :
       {"none", "throw:every=5", "throw:every=5,attempts=1", "nan:every=4",
        "nan:every=4,attempts=1", "delay:every=10,ms=500",
        "delay:every=10,ms=500,attempts=1"}) {
    for (const unsigned retries : {0u, 1u}) {
      const runtime::FailureLedger want =
          predicted_ledger(fault, retries, kCount);
      // A delayed attempt waits out the watchdog, so the delay profiles
      // run at one jobs value; the others need no watchdog at all.
      const bool delay = fault.starts_with("delay");
      for (const unsigned jobs :
           delay ? std::vector<unsigned>{2} : job_counts()) {
        const std::string context = fault + " retries=" +
                                    std::to_string(retries) +
                                    " jobs=" + std::to_string(jobs);
        runtime::EnsembleOptions options = make_options(jobs, fault);
        options.max_retries = retries;
        if (delay) options.task_timeout = std::chrono::milliseconds(40);
        // No checkpoint dir: plain sweep.
        runtime::EnsembleRunner runner(options);
        const runtime::ResumableReport report =
            runner.run_resumable(engine, spec, runtime::CheckpointOptions{});
        EXPECT_FALSE(report.interrupted) << context;
        EXPECT_EQ(report.executed, kCount) << context;
        EXPECT_EQ(report.checkpoints, 0u) << context;

        const runtime::FailureMasks& got = report.masks;
        EXPECT_EQ(got.attempted, kCount) << context;
        EXPECT_EQ(got.ledger.retries, want.retries) << context;
        ASSERT_EQ(got.ledger.failures.size(), want.failures.size()) << context;
        for (std::size_t f = 0; f < want.failures.size(); ++f) {
          const runtime::FailureRecord& g = got.ledger.failures[f];
          const runtime::FailureRecord& w = want.failures[f];
          EXPECT_EQ(g.realization, w.realization) << context;
          EXPECT_EQ(g.seed, w.seed) << context;
          EXPECT_EQ(g.attempts, w.attempts) << context;
          EXPECT_EQ(g.code, w.code) << context;
        }
        std::size_t k = 0;
        for (const surge::HurricaneRealization& r : batch) {
          if (std::any_of(want.failures.begin(), want.failures.end(),
                          [&](const runtime::FailureRecord& f) {
                            return f.realization == r.index;
                          })) {
            continue;
          }
          ASSERT_LT(k, got.size()) << context;
          EXPECT_EQ(got.indices[k], r.index) << context;
          for (std::size_t a = 0; a < r.impacts.size(); ++a) {
            EXPECT_EQ(got.test(k, a), r.impacts[a].failed)
                << context << " realization " << r.index << " asset " << a;
          }
          ++k;
        }
        EXPECT_EQ(k, got.size()) << context;
      }
    }
  }
}

TEST(RunResumableTest, InterruptAndResumeIsBitIdenticalAcrossJobs) {
  const surge::RealizationEngine engine = make_engine();
  runtime::EnsembleRunner cold_runner(make_options(1));
  const runtime::ResumableReport reference = cold_runner.run_resumable(
      engine, sweep_spec(), runtime::CheckpointOptions{});

  for (const unsigned jobs : job_counts()) {
    const std::string dir =
        scratch_dir("interrupt-jobs" + std::to_string(jobs));
    const runtime::CheckpointOptions ckpt = make_ckpt(dir, 8, 2);

    // Phase 1: cancel once 20 indices are done. Cancellation is only
    // honored at slice boundaries, so it lands after the slice that
    // crosses 20 — deterministically 24 of 40 indices at interval 8.
    runtime::CancellationToken interrupt;
    runtime::CheckpointOptions cancelling = ckpt;
    cancelling.on_progress = cancel_at(interrupt, 20);
    runtime::EnsembleRunner partial_runner(make_options(jobs));
    const runtime::ResumableReport partial = partial_runner.run_resumable(
        engine, sweep_spec(), cancelling, &interrupt);
    ASSERT_TRUE(partial.interrupted) << "jobs=" << jobs;
    EXPECT_EQ(partial.executed, 24u);
    EXPECT_EQ(partial.masks.attempted, 24u);

    // Phase 2: resume (possibly at a different jobs value) and finish.
    runtime::CheckpointOptions resume_ckpt = ckpt;
    resume_ckpt.resume = true;
    runtime::EnsembleRunner resume_runner(make_options(jobs == 1 ? 8 : 1));
    const runtime::ResumableReport resumed =
        resume_runner.run_resumable(engine, sweep_spec(), resume_ckpt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.resume.status, runtime::ResumeStatus::kResumed);
    EXPECT_EQ(resumed.restored, 24u);
    EXPECT_EQ(resumed.restored + resumed.executed, kSweepCount);
    expect_masks_eq(resumed.masks, reference.masks,
                    "jobs=" + std::to_string(jobs));
    EXPECT_EQ(resumed.masks.attempted, kSweepCount);
    // The sweep completed: the checkpoint files are gone.
    EXPECT_FALSE(fs::exists(dir) && !fs::is_empty(dir));
  }
}

TEST(RunResumableTest, CheckpointMetricsMeterEveryDurableWrite) {
  // Journal headers, records and snapshots are all metered, so over one
  // sweep the flush count and the flush-latency samples each move by the
  // durable writes the report counts.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto reading = [](const char* name) {
    const obs::MetricsSnapshot snapshot = obs::capture_metrics();
    const obs::MetricValue* m = snapshot.find(name);
    if (m == nullptr) return std::uint64_t{0};
    return m->kind == obs::MetricKind::kHistogram ? m->count : m->value;
  };
  const std::uint64_t flushes = reading("checkpoint.flushes");
  const std::uint64_t samples = reading("checkpoint.flush_us");
  const std::uint64_t bytes = reading("checkpoint.journal_bytes");

  const surge::RealizationEngine engine = make_engine();
  runtime::EnsembleRunner runner(make_options(2));
  const runtime::ResumableReport report = runner.run_resumable(
      engine, sweep_spec(), make_ckpt(scratch_dir("metered"), 8, 2));
  obs::set_enabled(was_enabled);

  // 1 header, 5 records and 2 snapshots, each snapshot followed by a
  // fresh header.
  EXPECT_EQ(report.checkpoints, 10u);
  EXPECT_EQ(reading("checkpoint.flushes") - flushes, report.checkpoints);
  EXPECT_EQ(reading("checkpoint.flush_us") - samples, report.checkpoints);
  EXPECT_GT(reading("checkpoint.journal_bytes") - bytes,
            report.checkpoints * util::kFrameHeaderSize);
}

TEST(RunResumableTest, ResumeUnderFaultDoesNotRecountQuarantined) {
  // throw:every=7 quarantines indices 0, 7, 14, 21, 28, 35 on every
  // attempt. The resumed run must end with exactly that ledger — a
  // restored quarantined index must be neither re-run nor double-counted.
  const std::string fault = "throw:every=7";
  const surge::RealizationEngine engine = make_engine();
  runtime::EnsembleRunner clean_runner(make_options(2, fault));
  const runtime::ResumableReport reference = clean_runner.run_resumable(
      engine, sweep_spec(), runtime::CheckpointOptions{});
  ASSERT_EQ(reference.masks.ledger.failures.size(), 6u);

  const std::string dir = scratch_dir("fault-resume");
  const runtime::CheckpointOptions ckpt = make_ckpt(dir, 8, 2);
  runtime::CancellationToken interrupt;
  runtime::CheckpointOptions cancelling = ckpt;
  cancelling.on_progress = cancel_at(interrupt, 20);
  runtime::EnsembleRunner partial_runner(make_options(2, fault));
  const runtime::ResumableReport partial = partial_runner.run_resumable(
      engine, sweep_spec(), cancelling, &interrupt);
  ASSERT_TRUE(partial.interrupted);

  runtime::CheckpointOptions resume_ckpt = ckpt;
  resume_ckpt.resume = true;
  runtime::EnsembleRunner resume_runner(make_options(2, fault));
  const runtime::ResumableReport resumed =
      resume_runner.run_resumable(engine, sweep_spec(), resume_ckpt);
  EXPECT_EQ(resumed.resume.status, runtime::ResumeStatus::kResumed);
  expect_masks_eq(resumed.masks, reference.masks, "resumed under fault");
  EXPECT_EQ(resumed.masks.size(), kSweepCount - 6);
}

TEST(RunResumableTest, ChangedKnobsColdStartLoudly) {
  const surge::RealizationEngine engine = make_engine();
  const std::string dir = scratch_dir("knobs");
  const runtime::CheckpointOptions ckpt = make_ckpt(dir, 8, 2);

  runtime::CancellationToken interrupt;
  runtime::CheckpointOptions cancelling = ckpt;
  cancelling.on_progress = cancel_at(interrupt, 20);
  runtime::EnsembleRunner partial_runner(make_options(2));
  const runtime::ResumableReport partial = partial_runner.run_resumable(
      engine, sweep_spec("knobs-v1"), cancelling, &interrupt);
  ASSERT_TRUE(partial.interrupted);

  // Same checkpoint dir, different sweep digest (e.g. a changed
  // RealizationConfig knob): the stale state must not resume. A different
  // digest also means a different file pair, so this surfaces as a plain
  // cold start and the sweep recomputes everything.
  runtime::CheckpointOptions resume_ckpt = ckpt;
  resume_ckpt.resume = true;
  runtime::EnsembleRunner resume_runner(make_options(2));
  const runtime::ResumableReport resumed = resume_runner.run_resumable(
      engine, sweep_spec("knobs-v2"), resume_ckpt);
  EXPECT_EQ(resumed.resume.status, runtime::ResumeStatus::kColdStart);
  EXPECT_EQ(resumed.restored, 0u);
  EXPECT_EQ(resumed.executed, kSweepCount);
  EXPECT_FALSE(resumed.interrupted);
}

TEST(SweepExitCodeTest, InterruptedSweepsExitFive) {
  core::ResumableAnalysis analysis;
  analysis.results.resize(1);
  EXPECT_EQ(core::sweep_exit_code(analysis, false), 0);
  EXPECT_EQ(core::sweep_exit_code(analysis, true), 0);
  analysis.interrupted = true;
  EXPECT_EQ(core::sweep_exit_code(analysis, false), 5);
  EXPECT_EQ(core::sweep_exit_code(analysis, true), 5);
  analysis.interrupted = false;
  analysis.results[0].failures.push_back({});
  analysis.results[0].attempted = 10;
  analysis.results[0].completed = 9;
  EXPECT_EQ(core::sweep_exit_code(analysis, false), 0);  // best-effort
  EXPECT_EQ(core::sweep_exit_code(analysis, true), 3);   // strict
}

// --- self-exec crash matrix -------------------------------------------------
//
// The parent spawns THIS binary with --crash-child and a CT_CRASH spec,
// which kills the child at one exact checkpoint site; the parent then
// relaunches it with resume (no crash) and compares the result file with
// an uninterrupted reference. Iterating at=1,2,... until a child finishes
// without crashing proves EVERY site of a cold sweep is recoverable.

constexpr std::size_t kChildCount = 20;
constexpr std::size_t kChildInterval = 5;
constexpr std::size_t kChildSnapshotEvery = 2;

/// Runs one child: /proc/self/exe --crash-child ... with CT_CRASH set to
/// `crash_spec` (empty = unset). Returns the child's exit code.
int spawn_child(const std::string& dir, const std::string& result_path,
                unsigned jobs, const std::string& fault,
                const std::string& crash_spec) {
  if (crash_spec.empty()) {
    ::unsetenv("CT_CRASH");
  } else {
    ::setenv("CT_CRASH", crash_spec.c_str(), 1);
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<std::string> args = {
        "/proc/self/exe", "--crash-child",     "--dir",  dir,
        "--result",       result_path,         "--jobs", std::to_string(jobs),
        "--fault",        fault};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::unsetenv("CT_CRASH");
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// The text the child writes on completion; also computable in-process
/// for the reference (same engine, same fault profile).
std::string result_text(const runtime::ResumableReport& report) {
  std::ostringstream out;
  const runtime::FailureMasks& masks = report.masks;
  out << "masks";
  for (std::size_t k = 0; k < masks.size(); ++k) {
    out << ' ' << masks.indices[k] << ':' << std::hex;
    for (const std::uint64_t word : masks.mask(k)) out << word;
    out << std::dec;
  }
  out << "\nfailures";
  for (const runtime::FailureRecord& f : masks.ledger.failures) {
    out << ' ' << f.realization;
  }
  out << "\nattempted " << masks.attempted << '\n';
  return out.str();
}

runtime::SweepSpec child_spec() {
  runtime::SweepSpec spec;
  spec.digest = "crash-harness-sweep";
  spec.count = kChildCount;
  return spec;
}

std::string reference_text(unsigned jobs, const std::string& fault) {
  runtime::EnsembleRunner runner(make_options(jobs, fault));
  const runtime::ResumableReport report = runner.run_resumable(
      make_engine(), child_spec(), runtime::CheckpointOptions{});
  return result_text(report);
}

void run_crash_matrix(unsigned jobs, const std::string& fault) {
  const std::string expected = reference_text(jobs, fault);
  const std::string dir = scratch_dir("crash-matrix-j" + std::to_string(jobs) +
                                      (fault == "none" ? "" : "-fault"));
  const std::string result_path = dir + "/result.txt";
  for (const char* kind : {"before", "torn", "after"}) {
    std::size_t crashes = 0;
    bool ran_past_last_site = false;
    for (std::uint64_t at = 1; at <= 64 && !ran_past_last_site; ++at) {
      fs::remove_all(dir);
      fs::create_directories(dir);
      const std::string spec =
          std::string(kind) + ":at=" + std::to_string(at);
      const int rc = spawn_child(dir, result_path, jobs, fault, spec);
      if (rc == runtime::CrashProfile::kExitCode) {
        ++crashes;
        // Killed at site `at` — resume must complete and reproduce the
        // uninterrupted run exactly (histograms AND quarantine ledger).
        const int resumed = spawn_child(dir, result_path, jobs, fault, "");
        ASSERT_EQ(resumed, 0) << kind << " at=" << at;
        EXPECT_EQ(read_file(result_path), expected) << kind << " at=" << at;
      } else if (rc == 0) {
        // `at` is beyond the last site of a cold run: matrix exhausted.
        ran_past_last_site = true;
        EXPECT_EQ(read_file(result_path), expected) << kind << " clean";
      } else {
        FAIL() << "unexpected child exit " << rc << " (" << kind
               << " at=" << at << ")";
      }
    }
    EXPECT_TRUE(ran_past_last_site) << kind << ": >64 crash sites?";
    EXPECT_GE(crashes, 5u) << kind;  // the matrix actually exercised sites
  }
  fs::remove_all(dir);
}

TEST(CrashMatrixTest, EveryCrashSiteIsRecoverableAtJobs1) {
  run_crash_matrix(1, "none");
}

TEST(CrashMatrixTest, EveryCrashSiteIsRecoverableAtJobs8) {
  run_crash_matrix(8, "none");
}

TEST(CrashMatrixTest, QuarantineLedgerSurvivesCrashAndResume) {
  run_crash_matrix(2, "throw:every=7");
}

}  // namespace
}  // namespace ct

/// Crash-harness child entry: runs the checkpointed sweep (CT_CRASH from
/// the environment decides where it dies) and writes the result file on
/// completion. Exit codes: 0 complete, 86 injected crash (via _exit), 1
/// error.
static int run_crash_child(int argc, char** argv) {
  using namespace ct;
  try {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) == 0 && key != "--crash-child") {
        args[key.substr(2)] = argv[i + 1];
      }
    }
    const unsigned jobs = static_cast<unsigned>(
        std::strtoul(args["jobs"].c_str(), nullptr, 10));
    runtime::EnsembleOptions options;
    options.jobs = jobs == 0 ? 1 : jobs;
    options.cache = false;
    options.fault_spec = args.count("fault") ? args["fault"] : "none";
    runtime::EnsembleRunner runner(options);

    runtime::CheckpointOptions ckpt;
    ckpt.dir = args["dir"];
    ckpt.interval = kChildInterval;
    ckpt.snapshot_every = kChildSnapshotEvery;
    ckpt.resume = true;         // cold on a fresh dir, warm after a crash
    ckpt.crash_spec = "";       // defer to CT_CRASH (set by the parent)

    const runtime::ResumableReport report =
        runner.run_resumable(make_engine(), child_spec(), ckpt);
    if (report.interrupted) return 7;
    util::atomic_write_file(args["result"], result_text(report));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crash-child: %s\n", e.what());
    return 1;
  }
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--crash-child") {
      return run_crash_child(argc, argv);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
