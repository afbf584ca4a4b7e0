// Unit tests for the util substrate: RNG, statistics, CSV/JSON writers,
// string helpers, tables, logging, durable writes, the wire codec and frames.
#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/json_writer.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/wire.h"

namespace ct::util {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng a(7, "storm");
  Rng b(7, "surge");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, ChildStreamsDeterministicAndDistinct) {
  const Rng parent(99);
  Rng c1 = parent.child("realization", 5);
  Rng c2 = parent.child("realization", 5);
  Rng c3 = parent.child("realization", 6);
  const std::uint64_t v1 = c1.next_u64();
  EXPECT_EQ(v1, c2.next_u64());
  EXPECT_NE(v1, c3.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(8);
  std::array<int, 10> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(rng.uniform_int(0, 9))]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

/// Mean and sample standard deviation of `n` draws.
template <typename Draw>
std::pair<double, double> moments(int n, Draw draw) {
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = draw();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  return {mean, std::sqrt((sum2 - n * mean * mean) / (n - 1))};
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  const auto [mean, sd] = moments(200000, [&] { return rng.normal(); });
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(sd, 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(10);
  const auto [mean, sd] = moments(100000, [&] { return rng.normal(5.0, 2.0); });
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(sd, 2.0, 0.05);
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.truncated_normal(0.0, 1.0, -0.5, 0.5);
    EXPECT_GE(v, -0.5);
    EXPECT_LE(v, 0.5);
  }
}

TEST(Rng, TruncatedNormalPathologicalBoundsStillTerminate) {
  Rng rng(12);
  // Bounds 20 sigma away from the mean: rejection would "never" succeed.
  const double v = rng.truncated_normal(0.0, 1.0, 20.0, 21.0);
  EXPECT_GE(v, 20.0);
  EXPECT_LE(v, 21.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(15);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, HashNameStableAndSensitive) {
  EXPECT_EQ(hash_name("abc"), hash_name("abc"));
  EXPECT_NE(hash_name("abc"), hash_name("abd"));
  EXPECT_NE(hash_name(""), hash_name("a"));
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(WilsonInterval, ContainsPointEstimate) {
  const Interval iv = wilson_interval(30, 100);
  EXPECT_LE(iv.lo, 0.3);
  EXPECT_GE(iv.hi, 0.3);
  EXPECT_TRUE(iv.contains(0.3));
}

TEST(WilsonInterval, BoundedToUnitInterval) {
  const Interval zero = wilson_interval(0, 50);
  EXPECT_GE(zero.lo, 0.0);
  const Interval one = wilson_interval(50, 50);
  EXPECT_LE(one.hi, 1.0);
  EXPECT_GT(one.lo, 0.9);
}

TEST(WilsonInterval, WidthShrinksWithSamples) {
  const Interval small = wilson_interval(10, 100);
  const Interval large = wilson_interval(1000, 10000);
  EXPECT_LT(large.width(), small.width());
}

TEST(WilsonInterval, EmptySample) {
  const Interval iv = wilson_interval(0, 0);
  EXPECT_EQ(iv.lo, 0.0);
  EXPECT_EQ(iv.hi, 1.0);
}

TEST(ClopperPearson, EndpointsAreExact) {
  // k = 0: lower bound is exactly 0; the exact upper bound is
  // 1 - (alpha/2)^(1/n).
  const Interval zero = clopper_pearson_interval(0, 10);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_NEAR(zero.hi, 1.0 - std::pow(0.025, 1.0 / 10.0), 1e-6);
  // k = n mirrors it: upper bound exactly 1.
  const Interval full = clopper_pearson_interval(10, 10);
  EXPECT_EQ(full.hi, 1.0);
  EXPECT_NEAR(full.lo, std::pow(0.025, 1.0 / 10.0), 1e-6);
}

TEST(ClopperPearson, ContainsPointEstimateAndUnitBounded) {
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {1, 7}, {30, 100}, {95, 1000}, {999, 1000}};
  for (const auto& [k, n] : cases) {
    const Interval iv = clopper_pearson_interval(k, n);
    const double p_hat = static_cast<double>(k) / static_cast<double>(n);
    EXPECT_TRUE(iv.contains(p_hat)) << k << "/" << n;
    EXPECT_GE(iv.lo, 0.0);
    EXPECT_LE(iv.hi, 1.0);
    EXPECT_LT(iv.lo, iv.hi);
  }
}

TEST(ClopperPearson, CoversAtLeastAsMuchAsWilson) {
  // The exact interval is conservative: it should (weakly) contain the
  // Wilson score interval away from the endpoints.
  const Interval exact = clopper_pearson_interval(30, 100);
  const Interval wilson = wilson_interval(30, 100);
  EXPECT_LE(exact.lo, wilson.lo + 1e-9);
  EXPECT_GE(exact.hi, wilson.hi - 1e-9);
}

TEST(ClopperPearson, WidthShrinksWithSamples) {
  const Interval small = clopper_pearson_interval(10, 100);
  const Interval large = clopper_pearson_interval(1000, 10000);
  EXPECT_LT(large.width(), small.width());
}

TEST(ClopperPearson, DegenerateInputs) {
  const Interval empty = clopper_pearson_interval(0, 0);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 1.0);
  // successes > n clamps rather than misbehaving.
  const Interval clamped = clopper_pearson_interval(20, 10);
  EXPECT_EQ(clamped.hi, 1.0);
}

TEST(Histogram, CountsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  for (const double x : {0.5, 1.5, 2.5, 2.6, 9.9}) h.add(x);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);  // 0.5 and 1.5
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
}

TEST(Histogram, OutOfRangeSaturates) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, InvalidArguments) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(ExactQuantile, InterpolatesAndClamps) {
  const std::vector<double> v = {3.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 2.5);
  EXPECT_THROW(exact_quantile({}, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------- csv

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.field("x").field(1.5).end_row();
  csv.field(std::int64_t{-3}).field(std::size_t{7}).end_row();
  EXPECT_EQ(out.str(), "a,b\nx,1.5\n-3,7\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, HeaderMustComeFirst) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.field("x").end_row();
  EXPECT_THROW(csv.header({"a"}), std::logic_error);
}

TEST(Csv, EndRowOnEmptyRowThrows) {
  std::ostringstream out;
  CsvWriter csv(out);
  EXPECT_THROW(csv.end_row(), std::logic_error);
}

TEST(Csv, ParseLineBasics) {
  EXPECT_EQ(parse_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_line(""), (std::vector<std::string>{""}));
  EXPECT_EQ(parse_csv_line("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(parse_csv_line("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, ParseLineQuoting) {
  EXPECT_EQ(parse_csv_line(R"("a,b",c)"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(parse_csv_line(R"("say ""hi""",x)"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
  EXPECT_EQ(parse_csv_line(R"("")"), (std::vector<std::string>{""}));
  EXPECT_THROW(parse_csv_line(R"("unterminated)"), std::invalid_argument);
}

TEST(Csv, ParseRoundTripsEscape) {
  for (const std::string& field :
       {std::string("plain"), std::string("with,comma"),
        std::string("say \"hi\""), std::string("")}) {
    const auto parsed = parse_csv_line(csv_escape(field) + "," + "tail");
    ASSERT_EQ(parsed.size(), 2u) << field;
    EXPECT_EQ(parsed[0], field);
  }
}

// ---------------------------------------------------------------- json

TEST(Json, SimpleObject) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object().kv("name", "x").kv("count", 3).kv("ok", true).end_object();
  EXPECT_TRUE(j.complete());
  EXPECT_EQ(out.str(), R"({"name":"x","count":3,"ok":true})");
}

TEST(Json, NestedContainers) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.key("items").begin_array().value(1).value(2).end_array();
  j.key("inner").begin_object().kv("d", 0.5).end_object();
  j.end_object();
  EXPECT_EQ(out.str(), R"({"items":[1,2],"inner":{"d":0.5}})");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, EscapesEveryControlCharacter) {
  // Locks the escaping contract: every byte below 0x20 either gets its
  // named short escape or a \u00xx sequence — raw control bytes in the
  // output would make the JSON unparseable.
  const std::set<char> named = {'\b', '\f', '\n', '\r', '\t'};
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    const std::string out = json_escape(in);
    ASSERT_GE(out.size(), 2u) << "control byte " << c << " not escaped";
    EXPECT_EQ(out[0], '\\') << "control byte " << c;
    if (named.count(static_cast<char>(c)) == 0) {
      char expected[8];
      std::snprintf(expected, sizeof expected, "\\u%04x", c);
      EXPECT_EQ(out, expected);
    }
  }
}

TEST(Json, LoneUtf8ContinuationBytePassesThroughRaw) {
  // The writer does not validate UTF-8: bytes >= 0x20 — including a lone
  // continuation byte like 0x80 — pass through unmodified, leaving
  // encoding policy to the producer of the string.
  EXPECT_EQ(json_escape(std::string_view("\x80", 1)), std::string("\x80", 1));
  EXPECT_EQ(json_escape(std::string_view("a\xbfz", 3)),
            std::string("a\xbfz", 3));
}

TEST(Json, UnsignedOverloadsWidenLosslessly) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.kv("u", 7u);
  j.kv("size", static_cast<std::size_t>(1) << 40);
  j.kv("u16", static_cast<std::uint16_t>(65535));
  j.end_object();
  EXPECT_EQ(out.str(), R"({"u":7,"size":1099511627776,"u16":65535})");
}

TEST(Json, NonFiniteBecomesNull) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_array().value(std::nan("")).value(1.0).end_array();
  EXPECT_EQ(out.str(), "[null,1]");
}

TEST(Json, ErrorsOnMisuse) {
  std::ostringstream out;
  JsonWriter j(out);
  EXPECT_THROW(j.key("k"), std::logic_error);  // key outside object
  j.begin_object();
  EXPECT_THROW(j.value(1), std::logic_error);  // value without key
  EXPECT_THROW(j.end_array(), std::logic_error);
  j.kv("k", 1);
  j.end_object();
  EXPECT_THROW(j.begin_object(), std::logic_error);  // second root
}

TEST(Json, PrettyPrintsIndentation) {
  std::ostringstream out;
  JsonWriter j(out, /*pretty=*/true);
  j.begin_object().kv("a", 1).end_object();
  EXPECT_EQ(out.str(), "{\n  \"a\": 1\n}");
}

// ---------------------------------------------------------------- log

TEST(Log, ParsesLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::kWarn);
}

TEST(Log, LevelGating) {
  for (const LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError}) {
    EXPECT_EQ(log_enabled(level), level >= log_level());
  }
  EXPECT_FALSE(log_enabled(LogLevel::kOff));
}

TEST(Log, MonotonicTimestampFormatIsByteStable) {
  // Checkpoint provenance lines are parsed back from logs; the stamp
  // format is a contract (3 decimal places, leading '+', trailing 's').
  EXPECT_EQ(format_log_timestamp(0.0), "+0.000s");
  EXPECT_EQ(format_log_timestamp(12.3456), "+12.346s");
  EXPECT_EQ(format_log_timestamp(3600.25), "+3600.250s");
  const double a = log_uptime_seconds();
  const double b = log_uptime_seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);  // steady clock: never goes backwards
}

// ---------------------------------------------------------------- fsio

TEST(Fsio, AtomicWriteFilePublishesAllOrNothing) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ct_fsio_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "record.txt").string();

  ASSERT_TRUE(atomic_write_file(path, "first\n"));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // published, not half-written
  std::stringstream got;
  got << std::ifstream(path).rdbuf();
  EXPECT_EQ(got.str(), "first\n");

  // Overwrite is atomic too: the reader sees old-or-new, never a mix.
  ASSERT_TRUE(atomic_write_file(path, "second, longer contents\n"));
  got.str("");
  got << std::ifstream(path).rdbuf();
  EXPECT_EQ(got.str(), "second, longer contents\n");

  // A missing parent directory fails soft (no throw) and leaves no tmp.
  const std::string orphan = (dir / "no-such-dir" / "x").string();
  EXPECT_FALSE(atomic_write_file(orphan, "data"));
  EXPECT_FALSE(fs::exists(orphan + ".tmp"));
  fs::remove_all(dir);
}

TEST(Fsio, FsyncHelpersTolerateMissingPaths) {
  EXPECT_FALSE(fsync_parent_dir("/no/such/dir/anywhere/x"));
}

TEST(Fsio, CrashHookSeesEveryStageWithTheTornPrefixOnDisk) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ct_fsio_hook_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "record.bin").string();
  const std::string contents = "0123456789abcdefXYZ";  // 19 bytes: torn at 9

  std::vector<std::pair<WriteStage, std::uintmax_t>> seen;
  const auto size_of = [](const std::string& p) -> std::uintmax_t {
    std::error_code ec;
    const std::uintmax_t n = fs::file_size(p, ec);
    return ec ? 0 : n;
  };
  ASSERT_TRUE(atomic_write_file(path, contents, [&](WriteStage stage) {
    seen.emplace_back(stage, size_of(stage == WriteStage::kTorn ? path + ".tmp"
                                                                : path));
  }));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(WriteStage::kBefore, std::uintmax_t{0}));
  EXPECT_EQ(seen[1], std::make_pair(WriteStage::kTorn, std::uintmax_t{9}));
  EXPECT_EQ(seen[2], std::make_pair(WriteStage::kAfter, std::uintmax_t{19}));
  EXPECT_EQ(read_file(path), contents);

  // The same stages for an append, with the prefix landing in the file.
  seen.clear();
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(durable_append(fd, "abc", [&](WriteStage stage) {
    seen.emplace_back(stage, size_of(path));
  }));
  ::close(fd);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], std::make_pair(WriteStage::kTorn, std::uintmax_t{20}));
  EXPECT_EQ(seen[2], std::make_pair(WriteStage::kAfter, std::uintmax_t{22}));
  EXPECT_EQ(read_file(path), contents + "abc");

  // The collector removes only ".tmp" files with the given name prefix.
  std::ofstream(dir / "mine.jrnl.tmp") << "x";
  std::ofstream(dir / "other.snap.tmp") << "x";
  EXPECT_EQ(remove_tmp_files(dir.string(), "mine."), 1u);
  EXPECT_TRUE(fs::exists(dir / "other.snap.tmp"));
  EXPECT_EQ(remove_tmp_files(dir.string()), 1u);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(read_file((dir / "missing").string()).has_value());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------- wire

TEST(Wire, FieldsRoundTripBitForBit) {
  WireWriter w;
  w.u8(0xab).u16(0xbeef).u32(0xdeadbeefu).u64(0x0123456789abcdefULL);
  w.i32(-7).f64(-0.0).f64(std::nan("0x5")).boolean(true);
  w.str(std::string("nul\0inside", 10)).str("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -7);
  const double zero = r.f64();
  EXPECT_TRUE(zero == 0.0 && std::signbit(zero));
  const double nan = r.f64();
  const double expect_nan = std::nan("0x5");
  EXPECT_EQ(std::memcmp(&nan, &expect_nan, sizeof nan), 0);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  EXPECT_EQ(r.str(), "");
  r.require_end();
  EXPECT_THROW(WireReader(w.bytes() + "x").require_end(), Error);
  EXPECT_THROW(WireReader("ab").u32(), Error);
}

constexpr std::uint32_t kTestMagic = 0x54534554u;  // "TEST"

TEST(Frame, SealOpenFindRoundTrip) {
  const std::string payload = std::string("pay\0load", 8);
  const std::string frame = seal_frame({kTestMagic, 3, 7, 99}, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  const OpenedFrame opened = open_frame(frame, 0, kTestMagic);
  ASSERT_EQ(opened.status, FrameStatus::kComplete);
  EXPECT_EQ(opened.fields.magic, kTestMagic);
  EXPECT_EQ(opened.fields.version, 3);
  EXPECT_EQ(opened.fields.type, 7);
  EXPECT_EQ(opened.fields.tag, 99u);
  EXPECT_EQ(opened.payload, payload);
  EXPECT_EQ(opened.size, frame.size());
  // An empty payload is a frame too.
  EXPECT_EQ(open_frame(seal_frame({kTestMagic, 1, 1, 0}, ""), 0, kTestMagic)
                .status,
            FrameStatus::kComplete);
  // Another format's magic and a payload over the caller's bound are bad.
  EXPECT_EQ(open_frame(frame, 0, kTestMagic + 1).status, FrameStatus::kBad);
  EXPECT_EQ(open_frame(frame, 0, kTestMagic, 7).status, FrameStatus::kBad);
  EXPECT_EQ(open_frame(frame, 0, kTestMagic, 8).status, FrameStatus::kComplete);
  // find_frame skips garbage to the next frame that opens.
  const std::string stream = "garbage" + frame + frame;
  EXPECT_EQ(find_frame(stream, 0, kTestMagic), 7u);
  EXPECT_EQ(find_frame(stream, 8, kTestMagic), 7u + frame.size());
  EXPECT_EQ(find_frame(stream, 8 + frame.size(), kTestMagic),
            std::string_view::npos);
  EXPECT_EQ(find_frame(stream, 0, kTestMagic + 1), std::string_view::npos);
}

TEST(Frame, EveryTruncationIsIncompleteAndEveryFlipIsBad) {
  const std::string frame =
      seal_frame({kTestMagic, 2, 3, 4}, "a payload of several bytes");
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(open_frame(frame.substr(0, n), 0, kTestMagic).status,
              FrameStatus::kIncomplete)
        << "truncated to " << n;
  }
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string flipped = frame;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x5a);
    const OpenedFrame opened = open_frame(flipped, 0, kTestMagic);
    EXPECT_EQ(opened.status, FrameStatus::kBad)
        << (i < kFrameHeaderSize ? "header" : "payload") << " byte " << i;
    EXPECT_FALSE(opened.reason.empty());
  }
  // A trailing byte is not part of the frame: it opens whole, and what
  // follows it is an incomplete next frame.
  const std::string trailing = frame + "x";
  const OpenedFrame opened = open_frame(trailing, 0, kTestMagic);
  ASSERT_EQ(opened.status, FrameStatus::kComplete);
  EXPECT_EQ(opened.size, frame.size());
  EXPECT_EQ(open_frame(trailing, opened.size, kTestMagic).status,
            FrameStatus::kIncomplete);
}

// ---------------------------------------------------------------- strings

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("config-6", "config"));
  EXPECT_FALSE(starts_with("6", "config"));
}

TEST(Strings, ToLowerJoinFormat) {
  EXPECT_EQ(to_lower("HuRriCane"), "hurricane");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.905), "90.5%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Strings, EditDistance) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("jobs", "jobs"), 0u);
  EXPECT_EQ(edit_distance("job", "jobs"), 1u);      // insertion
  EXPECT_EQ(edit_distance("jobs", "jbs"), 1u);      // deletion
  EXPECT_EQ(edit_distance("jobs", "jabs"), 1u);     // substitution
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
}

TEST(Strings, ClosestMatchSuggestsNearbyFlag) {
  const std::vector<std::string> flags = {"jobs", "no-cache", "strict",
                                          "max-retries"};
  EXPECT_EQ(closest_match("job", flags), "jobs");
  EXPECT_EQ(closest_match("no-cahce", flags), "no-cache");
  EXPECT_EQ(closest_match("stric", flags), "strict");
  // Nothing plausible within the distance budget: no suggestion, which
  // is better than a misleading one.
  EXPECT_EQ(closest_match("verbose", flags), "");
  EXPECT_EQ(closest_match("jobs", {}), "");
}

// ---------------------------------------------------------------- table

TEST(Strings, ParseU64AcceptsOnlyWholeUnsignedTokens) {
  const struct {
    const char* token;
    std::optional<std::uint64_t> want;
  } cases[] = {
      {"0", 0},
      {"4", 4},
      {"007", 7},
      {"18446744073709551615", 18446744073709551615ULL},
      {"18446744073709551616", std::nullopt},  // overflow
      {"", std::nullopt},
      {"4x", std::nullopt},
      {"x4", std::nullopt},
      {"-3", std::nullopt},
      {"+3", std::nullopt},
      {" 3", std::nullopt},
      {"3 ", std::nullopt},
      {"3.0", std::nullopt},
      {"1e3", std::nullopt},
      {"0x10", std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(util::parse_u64(c.token), c.want) << "'" << c.token << "'";
  }
  EXPECT_EQ(util::parse_u64("65535", 65535), 65535u);
  EXPECT_EQ(util::parse_u64("65536", 65535), std::nullopt);
}

TEST(Strings, ParseDoubleAcceptsOnlyWholeTokens) {
  const struct {
    const char* token;
    std::optional<double> want;
  } cases[] = {
      {"0", 0.0},
      {"0.25", 0.25},
      {"-0.5", -0.5},
      {"+1.5", 1.5},
      {"1e-3", 1e-3},
      {"", std::nullopt},
      {"abc", std::nullopt},
      {"0.1x", std::nullopt},
      {" 0.1", std::nullopt},
      {"0.1 ", std::nullopt},
      {"1,5", std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(util::parse_double(c.token), c.want) << "'" << c.token << "'";
  }
  // Non-finite spellings parse; callers that need a finite value check it.
  EXPECT_TRUE(std::isinf(*util::parse_double("inf")));
  EXPECT_TRUE(std::isinf(*util::parse_double("-inf")));
  EXPECT_TRUE(std::isnan(*util::parse_double("nan")));
  EXPECT_TRUE(std::isinf(*util::parse_double("1e999")));
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.set_columns({"name", "value"}, {Align::kLeft, Align::kRight});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| x      |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| longer |    22 |"), std::string::npos);
}

TEST(Table, SeparatorInsertsRule) {
  TextTable t;
  t.set_columns({"c"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // 5 rules: top, under header, separator, bottom... count '+---' lines.
  std::size_t rules = 0;
  std::istringstream stream(s);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(Table, Validation) {
  TextTable t;
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_THROW(t.set_columns({"x"}), std::logic_error);
  EXPECT_EQ(t.row_count(), 1u);
}

}  // namespace
}  // namespace ct::util
