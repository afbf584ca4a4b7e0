// Tests for the bench record schema: the median/MAD timing helper, the one
// writer's merge rules, and the strict CT_BENCH_* environment.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "figure_bench.h"
#include "util/fsio.h"

namespace ct::bench {
namespace {

namespace fs = std::filesystem;

class BenchRecordsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ct-bench-records-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "BENCH_records.json").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<std::string> lines() const {
    std::vector<std::string> out;
    std::istringstream in(util::read_file(path_).value_or(""));
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }

  /// The file's line holding the row keyed `key` ("" when absent).
  std::string line_of(const std::string& key) const {
    for (const std::string& line : lines()) {
      if (line.rfind("\"" + key + "\"", 0) == 0) return line;
    }
    return "";
  }

  fs::path dir_;
  std::string path_;
};

BenchRow row(std::string bench, std::string metric, double median) {
  return timing_row(std::move(bench), std::move(metric), "s",
                    {5, median, median / 10.0});
}

TEST(Spread, MedianAndMedianAbsoluteDeviation) {
  const Spread odd = spread_of({3.0, 100.0, 1.0, 4.0, 2.0});
  EXPECT_EQ(odd.reps, 5u);
  EXPECT_DOUBLE_EQ(odd.median, 3.0);
  EXPECT_DOUBLE_EQ(odd.mad, 1.0);  // |x - 3| = {0, 97, 2, 1, 1}
  const Spread even = spread_of({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.mad, 1.0);  // {1.5, 0.5, 0.5, 1.5}
  const Spread none = spread_of({});
  EXPECT_EQ(none.reps, 0u);
  EXPECT_EQ(none.median, 0.0);
  EXPECT_EQ(none.mad, 0.0);
}

TEST(Spread, TimeRepsRunsTheBodyRepsTimes) {
  int calls = 0;
  const Spread spread = time_reps(7, [&] { ++calls; });
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(spread.reps, 7u);
  EXPECT_GE(spread.median, 0.0);
  EXPECT_GE(spread.mad, 0.0);
}

TEST_F(BenchRecordsTest, WriteReplacesOwnBenchAndKeepsOthersByteForByte) {
  // A foreign row in a layout the writer would not produce itself.
  {
    std::ofstream out(path_);
    out << "{\n\"bench_other/x.s\":  {\"bench\": \"bench_other\", "
           "\"metric\": \"x.s\", \"unit\": \"s\", \"reps\": 3, "
           "\"median\": 1.5, \"mad\": 0.25, \"identical\": true}\n}\n";
  }
  const std::string foreign = line_of("bench_other/x.s");
  ASSERT_FALSE(foreign.empty());

  write_bench_rows(
      {row("bench_mine", "a.s", 1.0), row("bench_mine", "b.s", 2.0)}, path_);
  EXPECT_FALSE(line_of("bench_mine/a.s").empty());
  EXPECT_FALSE(line_of("bench_mine/b.s").empty());

  // The next write no longer emits b.s: it goes, a.s is replaced.
  write_bench_rows({row("bench_mine", "a.s", 4.0)}, path_);
  EXPECT_TRUE(line_of("bench_mine/b.s").empty());
  EXPECT_NE(line_of("bench_mine/a.s").find("\"median\":4,"), std::string::npos)
      << line_of("bench_mine/a.s");
  // Sorted by key, the foreign row is the last and keeps its bytes; only
  // the separator after it is the writer's.
  EXPECT_EQ(line_of("bench_other/x.s"), foreign);
  EXPECT_EQ(lines().size(), 4u);  // braces + two rows
  EXPECT_EQ(lines().front(), "{");
  EXPECT_EQ(lines().back(), "}");
}

TEST_F(BenchRecordsTest, EveryLineHasSevenFieldsAndNoNonFiniteNumber) {
  std::vector<BenchRow> rows = {row("bench_mine", "ok.s", 0.125),
                                count_row("bench_mine", "events", 5241902),
                                row("bench_mine", "nan.s", 0.0),
                                row("bench_mine", "inf.s", 0.0)};
  rows[2].median = std::numeric_limits<double>::quiet_NaN();
  rows[3].mad = std::numeric_limits<double>::infinity();
  write_bench_rows(rows, path_);

  const std::vector<std::string> file = lines();
  ASSERT_EQ(file.size(), 4u);  // the two non-finite rows are left out
  for (std::size_t i = 1; i + 1 < file.size(); ++i) {
    for (const char* field : {"\"bench\":", "\"metric\":", "\"unit\":",
                              "\"reps\":", "\"median\":", "\"mad\":",
                              "\"identical\":"}) {
      EXPECT_NE(file[i].find(field), std::string::npos)
          << field << " missing in " << file[i];
    }
    for (const char* bad : {"nan", "inf", "NaN", "Infinity", "null"}) {
      EXPECT_EQ(file[i].find(bad), std::string::npos) << file[i];
    }
  }
  EXPECT_NE(line_of("bench_mine/events").find("\"median\":5241902,"),
            std::string::npos)
      << line_of("bench_mine/events");
  EXPECT_NE(line_of("bench_mine/events").find("\"unit\":\"count\""),
            std::string::npos);
}

TEST(BenchEnv, StrictCountsExitTwoOnMalformedSignedOrZero) {
  ::unsetenv("CT_BENCH_REALIZATIONS");
  ::unsetenv("CT_BENCH_JOBS");
  EXPECT_EQ(bench_realizations(), 1000u);
  EXPECT_EQ(bench_jobs(), 8u);
  ::setenv("CT_BENCH_REALIZATIONS", "50", 1);
  ::setenv("CT_BENCH_JOBS", "4", 1);
  EXPECT_EQ(bench_realizations(), 50u);
  EXPECT_EQ(bench_jobs(), 4u);
  for (const char* bad : {"abc", "5x", "-1", "0", "", " 5", "+5"}) {
    ::setenv("CT_BENCH_REALIZATIONS", bad, 1);
    EXPECT_EXIT(bench_realizations(), ::testing::ExitedWithCode(2),
                "CT_BENCH_REALIZATIONS expects a whole number")
        << "'" << bad << "'";
    ::setenv("CT_BENCH_JOBS", bad, 1);
    EXPECT_EXIT(bench_jobs(), ::testing::ExitedWithCode(2),
                "CT_BENCH_JOBS expects a whole number")
        << "'" << bad << "'";
  }
  ::setenv("CT_BENCH_JOBS", "4294967296", 1);  // does not fit an unsigned
  EXPECT_EXIT(bench_jobs(), ::testing::ExitedWithCode(2), "CT_BENCH_JOBS");
  // One thread per worker: more than the jobs cap is a usage error, read
  // before any pool starts.
  ::setenv("CT_BENCH_JOBS", "256", 1);
  EXPECT_EQ(bench_jobs(), 256u);
  ::setenv("CT_BENCH_JOBS", "257", 1);
  EXPECT_EXIT(bench_jobs(), ::testing::ExitedWithCode(2),
              "CT_BENCH_JOBS expects a whole number from 1 to 256");
  ::unsetenv("CT_BENCH_REALIZATIONS");
  ::unsetenv("CT_BENCH_JOBS");

  // The tests' counts: unset gives the caller's fallback, and a value out
  // of range exits before any worker or run starts.
  ::unsetenv("CT_TEST_JOBS");
  ::unsetenv("CT_DES_IDENTITY_PLANS");
  EXPECT_EQ(test_jobs(0), 0u);
  EXPECT_EQ(test_jobs(4), 4u);
  EXPECT_EQ(env_count("CT_DES_IDENTITY_PLANS", 4, 50), 4u);
  ::setenv("CT_TEST_JOBS", "8", 1);
  ::setenv("CT_DES_IDENTITY_PLANS", "50", 1);
  EXPECT_EQ(test_jobs(0), 8u);
  EXPECT_EQ(env_count("CT_DES_IDENTITY_PLANS", 4, 50), 50u);
  for (const char* bad : {"abc", "8x", "-1", "-3", "0", "", "257"}) {
    ::setenv("CT_TEST_JOBS", bad, 1);
    EXPECT_EXIT(test_jobs(4), ::testing::ExitedWithCode(2),
                "CT_TEST_JOBS expects a whole number from 1 to 256")
        << "'" << bad << "'";
  }
  for (const char* bad : {"abc", "5x", "-1", "0", "51"}) {
    ::setenv("CT_DES_IDENTITY_PLANS", bad, 1);
    EXPECT_EXIT(env_count("CT_DES_IDENTITY_PLANS", 4, 50),
                ::testing::ExitedWithCode(2),
                "CT_DES_IDENTITY_PLANS expects a whole number from 1 to 50")
        << "'" << bad << "'";
  }
  ::unsetenv("CT_TEST_JOBS");
  ::unsetenv("CT_DES_IDENTITY_PLANS");
}

}  // namespace
}  // namespace ct::bench
