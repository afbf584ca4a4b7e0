// Unit tests for the ensemble runtime's building blocks: the work-stealing
// TaskPool (coverage + determinism + exception propagation + lazy worker
// start), the typed content digest, and the two-layer ResultStore of mask
// tables (LRU, disk round-trip, corruption tolerance, version invalidation).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/fault_profile.h"
#include "runtime/result_store.h"
#include "runtime/task_pool.h"
#include "util/digest.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/wire.h"

namespace ct {
namespace {

namespace fs = std::filesystem;

// --- TaskPool ---------------------------------------------------------------

TEST(TaskPoolTest, EveryIndexRunsExactlyOnce) {
  for (const unsigned jobs : {0u, 1u, 4u, 8u}) {
    runtime::TaskPool pool(jobs);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> seen(kN);
    pool.parallel_for_each(kN, 7, [&](std::size_t i) { seen[i]++; });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(TaskPoolTest, InlinePoolSpawnsNoWorkers) {
  runtime::TaskPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.parallelism(), 1u);
}

/// Threads of this process, from /proc (-1 where there is none).
long process_threads() {
  const fs::path tasks = "/proc/self/task";
  if (!fs::exists(tasks)) return -1;
  return static_cast<long>(std::distance(fs::directory_iterator(tasks),
                                         fs::directory_iterator()));
}

/// A parallel pool starts its workers on its first batch of more than one
/// chunk: until then (no batch, or single-chunk ones that run inline) it has
/// started no thread, and its first batch gives the inline pool's result.
TEST(TaskPoolTest, WorkersStartOnTheFirstMultiChunkBatch) {
  constexpr std::size_t kN = 100;
  const auto fill = [](runtime::TaskPool& pool, std::size_t chunk) {
    std::vector<std::uint64_t> out(kN, 0);
    pool.parallel_for_each(kN, chunk,
                           [&](std::size_t i) { out[i] = i * i + 1; });
    return out;
  };
  runtime::TaskPool inline_pool(1);
  const std::vector<std::uint64_t> want = fill(inline_pool, 7);

  const long threads_before = process_threads();
  runtime::TaskPool pool(4);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.parallelism(), 4u);
  EXPECT_EQ(fill(pool, kN), want);  // one chunk: inline
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(process_threads(), threads_before);

  EXPECT_EQ(fill(pool, 7), want);
  EXPECT_EQ(pool.worker_count(), 4u);
  if (threads_before >= 0) {
    EXPECT_EQ(process_threads(), threads_before + 4);
  }
  EXPECT_EQ(fill(pool, 3), want);  // started once
  EXPECT_EQ(pool.worker_count(), 4u);
}

TEST(TaskPoolTest, HandlesEmptyAndOversizedChunks) {
  runtime::TaskPool pool(4);
  int calls = 0;
  pool.parallel_for_each(0, 16, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<int> count{0};
  pool.parallel_for_each(5, 1000, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 5);

  // chunk == 0 must not divide by zero; it is treated as 1.
  count = 0;
  pool.parallel_for_ranges(3, 0, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 3);
}

TEST(TaskPoolTest, FirstExceptionPropagatesAndPoolSurvives) {
  runtime::TaskPool pool(4);
  EXPECT_THROW(pool.parallel_for_each(100, 3,
                                      [&](std::size_t i) {
                                        if (i == 37) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> count{0};
  pool.parallel_for_each(50, 4, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 50);
}

TEST(TaskPoolTest, NestedParallelForDoesNotDeadlock) {
  runtime::TaskPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for_each(4, 1, [&](std::size_t) {
    pool.parallel_for_each(25, 4, [&](std::size_t) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 100);
}

TEST(TaskPoolTest, SubmissionBeyondDequeCapacityCompletes) {
  runtime::TaskPool pool(2);
  const std::size_t n = runtime::TaskPool::kDequeCapacity * 4;
  std::atomic<std::size_t> count{0};
  pool.parallel_for_each(n, 1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), n);
}

// --- CancellationToken ------------------------------------------------------

TEST(CancellationTokenTest, ExplicitCancelThrowsTypedError) {
  runtime::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_NO_THROW(token.poll("test"));
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  try {
    token.poll("test");
    FAIL() << "poll must throw after cancel";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_EQ(e.origin(), "test");
  }
}

TEST(CancellationTokenTest, DeadlineExpiryThrowsTimeout) {
  const runtime::CancellationToken token(std::chrono::milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token.cancelled());
  try {
    token.poll("kernel");
    FAIL() << "poll must throw past the deadline";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
}

TEST(CancellationTokenTest, ZeroTimeoutMeansNoDeadline) {
  const runtime::CancellationToken token(std::chrono::milliseconds(0));
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
}

// --- for_each_isolated ------------------------------------------------------

TEST(IsolatedRunTest, FailuresAreContainedAndSortedAtAnyJobs) {
  for (const unsigned jobs : {1u, 4u, 8u}) {
    runtime::TaskPool pool(jobs);
    constexpr std::size_t kN = 200;
    std::vector<std::atomic<int>> runs(kN);
    const auto result = pool.for_each_isolated(
        kN, 7,
        [&](std::size_t i, unsigned, const runtime::CancellationToken&) {
          runs[i]++;
          if (i % 31 == 0) {
            throw Error(ErrorCode::kNumeric, "test", "deterministic boom");
          }
        });
    // Indices 0, 31, 62, ... fail; everything else ran exactly once.
    std::vector<std::size_t> expected_failures;
    for (std::size_t i = 0; i < kN; i += 31) expected_failures.push_back(i);
    ASSERT_EQ(result.failures.size(), expected_failures.size())
        << "jobs " << jobs;
    for (std::size_t f = 0; f < result.failures.size(); ++f) {
      EXPECT_EQ(result.failures[f].index, expected_failures[f]);
      EXPECT_EQ(result.failures[f].attempts, 1u);  // max_retries = 0
      EXPECT_EQ(util::classify_exception(result.failures[f].error),
                ErrorCode::kNumeric);
    }
    // max_retries = 0: every index — failing or not — ran exactly once.
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    }
  }
}

TEST(IsolatedRunTest, RetryHealsTransientFailure) {
  runtime::TaskPool pool(4);
  constexpr std::size_t kN = 100;
  runtime::TaskOptions options;
  options.max_retries = 2;
  std::atomic<int> first_attempts{0};
  const auto result = pool.for_each_isolated(
      kN, 5,
      [&](std::size_t i, unsigned attempt,
          const runtime::CancellationToken&) {
        if (i % 10 == 3 && attempt == 1) {
          first_attempts++;
          throw std::runtime_error("transient");
        }
      },
      options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(first_attempts.load(), 10);  // indices 3, 13, ..., 93
  EXPECT_EQ(result.retries, 10u);        // one healing retry each
}

TEST(IsolatedRunTest, ExhaustedRetriesRecordAttemptCount) {
  runtime::TaskPool pool(2);
  runtime::TaskOptions options;
  options.max_retries = 3;
  const auto result = pool.for_each_isolated(
      10, 2,
      [&](std::size_t i, unsigned, const runtime::CancellationToken&) {
        if (i == 4) throw std::runtime_error("permanent");
      },
      options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 4u);
  EXPECT_EQ(result.failures[0].attempts, 4u);  // 1 + 3 retries
  EXPECT_EQ(result.retries, 3u);
}

TEST(IsolatedRunTest, WatchdogContainsHungTask) {
  runtime::TaskPool pool(2);
  runtime::TaskOptions options;
  options.timeout = std::chrono::milliseconds(20);
  std::atomic<int> completed{0};
  const auto result = pool.for_each_isolated(
      8, 1,
      [&](std::size_t i, unsigned, const runtime::CancellationToken& token) {
        if (i == 5) {
          // A cooperative "hung" kernel: loops until the watchdog fires.
          for (;;) {
            token.poll("hung-kernel");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        completed++;
      },
      options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 5u);
  EXPECT_EQ(util::classify_exception(result.failures[0].error),
            ErrorCode::kTimeout);
  EXPECT_EQ(completed.load(), 7);  // every other index still ran
}

// --- RuntimeFaultProfile ----------------------------------------------------

TEST(FaultProfileTest, ParsesDirectives) {
  const auto p = runtime::RuntimeFaultProfile::parse(
      "throw:every=20;nan:every=25,offset=3;delay:every=10,ms=50;cache-write");
  EXPECT_TRUE(p.any());
  EXPECT_EQ(p.throw_rule.every, 20u);
  EXPECT_EQ(p.nan_rule.every, 25u);
  EXPECT_EQ(p.nan_rule.offset, 3u);
  EXPECT_EQ(p.delay_rule.every, 10u);
  EXPECT_EQ(p.delay.count(), 50);
  EXPECT_TRUE(p.cache_write_failure);
}

TEST(FaultProfileTest, EmptyAndNoneAreOff) {
  EXPECT_FALSE(runtime::RuntimeFaultProfile::parse("").any());
  EXPECT_FALSE(runtime::RuntimeFaultProfile::parse("none").any());
  EXPECT_FALSE(runtime::RuntimeFaultProfile::parse("off").any());
}

TEST(FaultProfileTest, MalformedSpecIsLoud) {
  for (const char* bad : {"explode:every=3", "throw", "throw:every=0",
                          "throw:every=x", "throw:bogus=1"}) {
    try {
      runtime::RuntimeFaultProfile::parse(bad);
      FAIL() << "expected parse failure for: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << bad;
    }
  }
}

TEST(FaultProfileTest, RuleFiringIsPureFunctionOfIndexAndAttempt) {
  runtime::FaultRule rule;
  rule.every = 5;
  rule.offset = 2;
  rule.attempts = 1;
  EXPECT_TRUE(rule.fires(2, 1));
  EXPECT_TRUE(rule.fires(7, 1));
  EXPECT_FALSE(rule.fires(3, 1));   // wrong residue
  EXPECT_FALSE(rule.fires(2, 2));   // retry heals: attempt 2 passes
  runtime::FaultRule off;
  EXPECT_FALSE(off.fires(0, 1));
}

// --- Digest -----------------------------------------------------------------

TEST(DigestTest, StableAndHexFormatted) {
  util::Digest a;
  a.str("hello").u64(42);
  util::Digest b;
  b.str("hello").u64(42);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);
  for (const char c : a.hex()) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

/// Length-prefixed typed framing: concatenation and type confusion must not
/// collide.
TEST(DigestTest, FramingDisambiguates) {
  util::Digest ab_c;
  ab_c.str("ab").str("c");
  util::Digest a_bc;
  a_bc.str("a").str("bc");
  EXPECT_NE(ab_c.hex(), a_bc.hex());

  util::Digest as_u64;
  as_u64.u64(7);
  util::Digest as_i64;
  as_i64.i64(7);
  util::Digest as_f64;
  as_f64.f64(7.0);
  EXPECT_NE(as_u64.hex(), as_i64.hex());
  EXPECT_NE(as_u64.hex(), as_f64.hex());
  EXPECT_NE(as_i64.hex(), as_f64.hex());

  util::Digest empty1;
  util::Digest with_empty;
  with_empty.str("");
  EXPECT_NE(empty1.hex(), with_empty.hex());
}

TEST(DigestTest, SensitiveToEveryInput) {
  util::Digest base;
  base.str("topology").u64(1000).f64(0.0).boolean(true);
  util::Digest flipped;
  flipped.str("topology").u64(1000).f64(0.0).boolean(false);
  EXPECT_NE(base.hex(), flipped.hex());
}

// --- ResultStore ------------------------------------------------------------

/// A clean table of three realizations over 70 exposed assets (two words a
/// mask), with bits in both words.
runtime::FailureMasks sample_table() {
  runtime::FailureMasks table;
  table.words = 2;
  table.indices = {0, 1, 2};
  table.bits = {0x5, 0x0, 0x0, 0x20, ~std::uint64_t{0}, 0x3f};
  table.attempted = 3;
  return table;
}

/// The sweep identity sample_table() is stored under (key: 32 x `fill`).
runtime::SweepSpec table_spec(char fill = 'a') {
  runtime::SweepSpec spec;
  spec.digest = std::string(32, fill);
  spec.count = 3;
  spec.words = 2;
  return spec;
}

/// `hit` is sample_table() with an empty ledger.
void expect_sample(const std::shared_ptr<const runtime::FailureMasks>& hit) {
  ASSERT_NE(hit, nullptr);
  const runtime::FailureMasks want = sample_table();
  EXPECT_EQ(hit->words, want.words);
  EXPECT_EQ(hit->indices, want.indices);
  EXPECT_EQ(hit->bits, want.bits);
  EXPECT_EQ(hit->attempted, want.attempted);
  EXPECT_TRUE(hit->ledger.failures.empty());
  EXPECT_EQ(hit->ledger.retries, 0u);
}

TEST(ResultStoreTest, MemoryRoundTripAndStats) {
  runtime::ResultStore store;
  EXPECT_EQ(store.lookup(table_spec(), nullptr), nullptr);
  // Retries spent on a clean sweep are not part of the stored product: a
  // hit reports 0 retries.
  runtime::FailureMasks healed = sample_table();
  healed.ledger.retries = 4;
  store.store(table_spec(), healed);
  expect_sample(store.lookup(table_spec(), nullptr));
  const auto stats = store.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultStoreTest, LruEvictsOldestEntry) {
  runtime::ResultStoreOptions options;
  options.memory_entries = 2;
  runtime::ResultStore store(options);
  store.store(table_spec('a'), sample_table());
  store.store(table_spec('b'), sample_table());
  // Touch 'a' so 'b' becomes the eviction victim.
  EXPECT_NE(store.lookup(table_spec('a'), nullptr), nullptr);
  store.store(table_spec('c'), sample_table());
  EXPECT_NE(store.lookup(table_spec('a'), nullptr), nullptr);
  EXPECT_EQ(store.lookup(table_spec('b'), nullptr), nullptr);
  EXPECT_NE(store.lookup(table_spec('c'), nullptr), nullptr);
}

/// Only a complete, clean table of the spec's shape is a full-ensemble
/// answer: a quarantined, partial, empty or differently shaped one is not
/// stored.
TEST(ResultStoreTest, QuarantinedPartialOrMisshapenTableIsNotStored) {
  runtime::ResultStore store;
  runtime::FailureMasks quarantined = sample_table();
  quarantined.indices = {0, 2};
  quarantined.bits.resize(4);
  runtime::FailureRecord failure;
  failure.realization = 1;
  quarantined.ledger.failures.push_back(failure);
  store.store(table_spec('a'), quarantined);

  runtime::FailureMasks partial = sample_table();
  partial.indices.pop_back();
  partial.bits.resize(4);
  partial.attempted = 2;
  store.store(table_spec('b'), partial);

  runtime::SweepSpec narrow = table_spec('c');
  narrow.words = 1;
  store.store(narrow, sample_table());

  runtime::SweepSpec empty_spec = table_spec('d');
  empty_spec.count = 0;
  runtime::FailureMasks empty;
  empty.words = 2;
  store.store(empty_spec, empty);

  for (const runtime::SweepSpec& spec : {table_spec('a'), table_spec('b'),
                                         narrow, table_spec('c'),
                                         empty_spec}) {
    EXPECT_EQ(store.lookup(spec, nullptr), nullptr) << spec.digest;
  }
  EXPECT_EQ(store.stats().hits, 0u);
}

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ct_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    options_.disk = true;
    options_.disk_dir = dir_.string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Path of the single record under the cache dir (the record naming
  /// scheme is an implementation detail; tests find it by extension).
  fs::path record_path() {
    for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
      if (entry.is_regular_file()) return entry.path();
    }
    return {};
  }

  /// Writes sample_table() under table_spec() with a store of its own.
  void write_sample() {
    runtime::ResultStore writer(options_);
    writer.store(table_spec(), sample_table());
  }

  /// The lookup of table_spec() on a fresh store (empty memory) misses and
  /// counts one corrupt record.
  void expect_corrupt_miss(const std::string& context) {
    runtime::ResultStore store(options_);
    EXPECT_EQ(store.lookup(table_spec(), nullptr), nullptr) << context;
    EXPECT_EQ(store.stats().corrupt_discarded, 1u) << context;
    EXPECT_EQ(store.stats().hits, 0u) << context;
  }

  fs::path dir_;
  runtime::ResultStoreOptions options_;
};

TEST_F(DiskStoreTest, SharedAcrossInstances) {
  write_sample();
  runtime::ResultStore reader(options_);
  // Records do not hold the asset index: the reader's engine supplies it.
  const auto assets = std::make_shared<const runtime::FailureMasks::AssetIndex>(
      runtime::FailureMasks::AssetIndex{{"cc-a", 0}, {"cc-b", 69}});
  const auto hit = reader.lookup(table_spec(), assets);
  expect_sample(hit);
  EXPECT_EQ(hit->assets, assets);
  EXPECT_TRUE(hit->test(2, hit->assets->at("cc-b")));
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // A disk hit is promoted to memory: the second lookup is a memory hit of
  // the same shared table.
  EXPECT_EQ(reader.lookup(table_spec(), nullptr), hit);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().hits, 2u);
}

TEST_F(DiskStoreTest, TruncatedRecordIsMissThenRewritten) {
  write_sample();
  const fs::path record = record_path();
  ASSERT_FALSE(record.empty());
  fs::resize_file(record, fs::file_size(record) / 2);

  runtime::ResultStore store(options_);
  EXPECT_EQ(store.lookup(table_spec(), nullptr), nullptr);
  EXPECT_EQ(store.stats().corrupt_discarded, 1u);

  // The next store() heals the record for future processes.
  store.store(table_spec(), sample_table());
  runtime::ResultStore reader(options_);
  expect_sample(reader.lookup(table_spec(), nullptr));
}

TEST_F(DiskStoreTest, GarbageRecordIsMissNeverCrash) {
  write_sample();
  {
    std::ofstream out(record_path(), std::ios::trunc | std::ios::binary);
    out << "\x00\xff not a record at all \x7f garbage\nmore\n";
  }
  expect_corrupt_miss("garbage");
}

TEST_F(DiskStoreTest, TamperedVersionInvalidatesRecord) {
  write_sample();
  // Re-seal the same payload at the previous format version: a record
  // written by any other format version must read as a miss (the frame
  // carries the version, so old-format records can never alias new ones).
  const fs::path record = record_path();
  const std::string bytes = *util::read_file(record.string());
  const std::uint32_t magic = util::WireReader(bytes).u32();
  const util::OpenedFrame frame = util::open_frame(bytes, 0, magic);
  ASSERT_EQ(frame.status, util::FrameStatus::kComplete);
  ASSERT_EQ(frame.fields.version, runtime::ResultStore::kFormatVersion);
  util::FrameFields older = frame.fields;
  older.version = runtime::ResultStore::kFormatVersion - 1;
  std::ofstream(record, std::ios::trunc | std::ios::binary)
      << util::seal_frame(older, frame.payload);
  expect_corrupt_miss("older version");
}

TEST_F(DiskStoreTest, EveryMutationIsACountedMissThenRewritten) {
  write_sample();
  const fs::path record = record_path();
  const std::string good = *util::read_file(record.string());
  // Every truncation, every byte flip and one trailing byte.
  std::vector<std::string> mutations;
  for (std::size_t n = 0; n < good.size(); ++n) {
    mutations.push_back(good.substr(0, n));
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x5a);
    mutations.push_back(flipped);
  }
  mutations.push_back(good + "x");
  for (std::size_t m = 0; m < mutations.size(); ++m) {
    std::ofstream(record, std::ios::trunc | std::ios::binary) << mutations[m];
    runtime::ResultStore store(options_);
    EXPECT_EQ(store.lookup(table_spec(), nullptr), nullptr) << "mutation " << m;
    EXPECT_EQ(store.stats().corrupt_discarded, 1u) << "mutation " << m;
    EXPECT_EQ(store.stats().hits, 0u) << "mutation " << m;
    // The next store() heals the record for future processes.
    store.store(table_spec(), sample_table());
    runtime::ResultStore reader(options_);
    expect_sample(reader.lookup(table_spec(), nullptr));
  }
}

/// A sealed record of this version that decodes but disagrees with the
/// engine's counts, or whose counts and state disagree with each other, is
/// a counted miss, and the next store() rewrites it.
TEST_F(DiskStoreTest, CountsOrStateThatDisagreeAreCountedMisses) {
  write_sample();
  for (const auto& [name, spec] :
       std::vector<std::pair<std::string, runtime::SweepSpec>>{
           {"count", {table_spec().digest, 4, 2}},
           {"words", {table_spec().digest, 3, 1}}}) {
    runtime::ResultStore store(options_);
    EXPECT_EQ(store.lookup(spec, nullptr), nullptr) << name;
    EXPECT_EQ(store.stats().corrupt_discarded, 1u) << name;
  }

  // Re-seal payloads whose header counts match the engine's but whose
  // state does not: a range short of the count, a quarantined index, a
  // retry count, a missing mask word, or a trailing one.
  const fs::path record = record_path();
  const std::string bytes = *util::read_file(record.string());
  const std::uint32_t magic = util::WireReader(bytes).u32();
  const util::FrameFields fields = util::open_frame(bytes, 0, magic).fields;
  const runtime::FailureMasks table = sample_table();
  const auto reseal = [&](const std::vector<std::pair<std::uint64_t,
                                                      std::uint64_t>>& done,
                          const runtime::FailureMasks& state) {
    util::WireWriter w;
    w.str(table_spec().digest).u64(3).u64(2);
    runtime::put_state(w, done, state);
    std::ofstream(record, std::ios::trunc | std::ios::binary)
        << util::seal_frame(fields, w.bytes());
  };
  runtime::FailureMasks short_range = table;
  short_range.indices.pop_back();
  short_range.bits.resize(4);
  reseal({{0, 2}}, short_range);
  expect_corrupt_miss("range short of the count");

  runtime::FailureMasks quarantined = short_range;
  runtime::FailureRecord failure;
  failure.realization = 2;
  quarantined.ledger.failures.push_back(failure);
  reseal({{0, 3}}, quarantined);
  expect_corrupt_miss("quarantined index");

  runtime::FailureMasks retried = table;
  retried.ledger.retries = 1;
  reseal({{0, 3}}, retried);
  expect_corrupt_miss("retries");

  runtime::FailureMasks missing_word = table;
  missing_word.bits.pop_back();
  reseal({{0, 3}}, missing_word);
  expect_corrupt_miss("missing word");

  runtime::FailureMasks extra_word = table;
  extra_word.bits.push_back(0);
  reseal({{0, 3}}, extra_word);
  expect_corrupt_miss("trailing word");

  runtime::ResultStore store(options_);
  store.store(table_spec(), sample_table());
  runtime::ResultStore reader(options_);
  expect_sample(reader.lookup(table_spec(), nullptr));
}

TEST_F(DiskStoreTest, HalfWrittenTmpIsIgnoredAndCollectedOnOpen) {
  write_sample();
  const fs::path record = record_path();
  ASSERT_FALSE(record.empty());
  // A crash between tmp-write and rename leaves a ".tmp" sibling that
  // never became a record. It must never serve a lookup, and the next
  // open garbage-collects it.
  const fs::path tmp = record.string() + ".tmp";
  std::ofstream(tmp, std::ios::binary) << "ctresult 1 half-writ";
  ASSERT_TRUE(fs::exists(tmp));

  runtime::ResultStore store(options_);
  EXPECT_FALSE(fs::exists(tmp)) << "leftover tmp survived open";
  // The published record is untouched.
  expect_sample(store.lookup(table_spec(), nullptr));
  EXPECT_EQ(store.stats().corrupt_discarded, 0u);
}

TEST_F(DiskStoreTest, RecordUnderWrongKeyIsMiss) {
  write_sample();
  // Simulate key collision/rename corruption: serve key-a's record when
  // key-b is asked for. The embedded key must reject it.
  runtime::ResultStore probe(options_);
  probe.store(table_spec('b'), sample_table());
  fs::path a_path, b_path;
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(table_spec('a').digest) != std::string::npos) {
      a_path = entry.path();
    }
    if (name.find(table_spec('b').digest) != std::string::npos) {
      b_path = entry.path();
    }
  }
  ASSERT_FALSE(a_path.empty());
  ASSERT_FALSE(b_path.empty());
  fs::copy_file(a_path, b_path, fs::copy_options::overwrite_existing);

  runtime::ResultStore store(options_);
  EXPECT_EQ(store.lookup(table_spec('b'), nullptr), nullptr);
  EXPECT_EQ(store.stats().corrupt_discarded, 1u);
}

TEST_F(DiskStoreTest, HostileKeysNeverTouchDisk) {
  runtime::ResultStore store(options_);
  // Keys are produced by our own digest (lowercase hex), but the store
  // must not turn anything else into a path traversal.
  for (const std::string& key :
       {std::string("../../etc/passwd"), std::string("UPPER"),
        std::string(200, 'a'), std::string("")}) {
    runtime::SweepSpec spec = table_spec();
    spec.digest = key;
    store.store(spec, sample_table());
    // In-memory layer may still serve it; disk must hold only safe names.
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().stem().string();
    EXPECT_LE(name.size(), 128u);
    for (const char c : name) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
          << "unexpected on-disk record name: " << name;
    }
  }
}

TEST_F(DiskStoreTest, InjectedWriteFailureIsSoftAndCounted) {
  options_.inject_write_failure = true;
  runtime::ResultStore store(options_);
  EXPECT_TRUE(store.disk_active());
  store.store(table_spec(), sample_table());
  // The write failed softly: memory still serves the table, the failure
  // is counted, and nothing landed on disk.
  expect_sample(store.lookup(table_spec(), nullptr));
  EXPECT_EQ(store.stats().write_failures, 1u);
  EXPECT_TRUE(record_path().empty());

  runtime::ResultStoreOptions clean = options_;
  clean.inject_write_failure = false;
  runtime::ResultStore reader(clean);
  EXPECT_EQ(reader.lookup(table_spec(), nullptr), nullptr);
}

TEST_F(DiskStoreTest, RepeatedWriteFailuresDisableDiskLayer) {
  options_.inject_write_failure = true;
  runtime::ResultStore store(options_);
  for (char k = 'a';
       k < 'a' + static_cast<char>(
                     runtime::ResultStore::kMaxConsecutiveWriteFailures);
       ++k) {
    EXPECT_TRUE(store.disk_active());
    store.store(table_spec(k), sample_table());
  }
  // After the threshold the disk layer self-disables: further stores are
  // memory-only and the failure counter stops climbing.
  EXPECT_FALSE(store.disk_active());
  store.store(table_spec('f'), sample_table());
  EXPECT_EQ(store.stats().write_failures,
            runtime::ResultStore::kMaxConsecutiveWriteFailures);
  EXPECT_NE(store.lookup(table_spec('f'), nullptr), nullptr);
}

TEST(ResultStoreDirTest, UnusableDiskDirDegradesToMemory) {
  // A regular file where the cache dir should be: every disk operation
  // fails (even for root), and the store must shrug it off.
  const fs::path blocker = fs::path(::testing::TempDir()) / "ct_store_blocker";
  std::ofstream(blocker) << "not a directory";
  runtime::ResultStoreOptions options;
  options.disk = true;
  options.disk_dir = (blocker / "sub").string();
  runtime::ResultStore store(options);
  store.store(table_spec(), sample_table());  // disk write silently fails
  EXPECT_NE(store.lookup(table_spec(), nullptr), nullptr);
  fs::remove(blocker);
}

}  // namespace
}  // namespace ct
