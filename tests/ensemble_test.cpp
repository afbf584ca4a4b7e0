// Determinism and cache-correctness tests for the EnsembleRunner — the
// acceptance gate of the parallel runtime: at any --jobs value the sweep's
// mask table must equal the engine's serial run_batch, and the fold over it
// must equal the serial analyze for all five paper configurations x four
// threat scenarios x multiple seeds, and the cache-hit path must reproduce
// the cold path exactly (including when the hit comes from disk, across
// runner instances).
//
// CT_TEST_JOBS adds one extra thread count to the matrix (CI runs the
// suite at 1 and 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/case_study.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "figure_bench.h"
#include "obs/metrics.h"
#include "runtime/ensemble_runner.h"
#include "scada/oahu.h"
#include "surge/realization.h"
#include "terrain/oahu.h"
#include "threat/scenario.h"
#include "util/error.h"
#include "util/stats.h"

namespace ct {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kRealizations = 40;  // small but flood-bearing
/// Odd, so a sweep's last task (two realizations to a task) is ragged.
constexpr std::size_t kRaggedRealizations = kRealizations + 1;
constexpr std::uint64_t kSeeds[] = {20220627, 7, 424242};

std::vector<unsigned> job_counts() {
  std::vector<unsigned> jobs = {2, 4, 8};
  if (const unsigned extra = bench::test_jobs(0)) jobs.push_back(extra);
  return jobs;
}

runtime::EnsembleOptions make_options(unsigned jobs, bool cache = false) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.cache = cache;
  return options;
}

/// Options for the sweeps under test: fault_spec "none" (not "") so a CT_FAULT
/// set by a CI fault-matrix job cannot leak into clean-path expectations.
runtime::EnsembleOptions guarded_options(unsigned jobs, const char* spec,
                                         unsigned retries) {
  runtime::EnsembleOptions options = make_options(jobs);
  options.fault_spec = spec;
  options.max_retries = retries;
  return options;
}

surge::RealizationEngine make_engine(std::uint64_t seed) {
  surge::RealizationConfig config;
  config.base_seed = seed;
  return surge::RealizationEngine(terrain::make_oahu_terrain(),
                                  scada::oahu_topology().exposed_assets(),
                                  config);
}

/// The sweep's mask table of realizations [0, count) of `engine`.
runtime::FailureMasks sweep_masks(runtime::EnsembleRunner& runner,
                                  const surge::RealizationEngine& engine,
                                  std::size_t count) {
  runtime::SweepSpec spec;
  spec.count = count;
  return runner.run_resumable(engine, spec, runtime::CheckpointOptions{})
      .masks;
}

/// Expects `masks` to hold exactly `realizations`, in order: each one's
/// index, and its flood bits word for word.
void expect_masks_of(
    const runtime::FailureMasks& masks,
    const std::vector<surge::HurricaneRealization>& realizations,
    const std::string& context) {
  ASSERT_EQ(masks.size(), realizations.size()) << context;
  for (std::size_t k = 0; k < realizations.size(); ++k) {
    const surge::HurricaneRealization& r = realizations[k];
    std::vector<std::uint64_t> want(masks.words, 0);
    for (std::size_t a = 0; a < r.impacts.size(); ++a) {
      if (r.impacts[a].failed) want[a / 64] |= std::uint64_t{1} << (a % 64);
    }
    const std::span<const std::uint64_t> got = masks.mask(k);
    EXPECT_EQ(masks.indices[k], r.index) << context;
    EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want)
        << context << " [" << k << "]";
  }
}

/// The two tables hold the same survivors with the same masks.
void expect_same_masks(const runtime::FailureMasks& got,
                       const runtime::FailureMasks& want,
                       const std::string& context) {
  EXPECT_EQ(got.words, want.words) << context;
  EXPECT_EQ(got.indices, want.indices) << context;
  EXPECT_EQ(got.bits, want.bits) << context;
  EXPECT_EQ(got.attempted, want.attempted) << context;
}

void expect_same(const core::ScenarioResult& a, const core::ScenarioResult& b,
                 const std::string& context) {
  for (const auto s :
       {threat::OperationalState::kGreen, threat::OperationalState::kOrange,
        threat::OperationalState::kRed, threat::OperationalState::kGray}) {
    EXPECT_EQ(a.outcomes.count(s), b.outcomes.count(s)) << context;
  }
  EXPECT_EQ(a.outcomes.total(), b.outcomes.total()) << context;
}

/// The full paper matrix: 5 configurations x 4 scenarios x 3 seeds, the
/// fold over the sweep's masks at every jobs value against the serial
/// analyze over the engine's own loop. The count is odd, so the sweep's
/// last task is ragged.
TEST(EnsembleDeterminismTest, ParallelMatchesSerialAcrossPaperMatrix) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  std::vector<unsigned> jobs_values = job_counts();
  jobs_values.insert(jobs_values.begin(), 1);

  for (const std::uint64_t seed : kSeeds) {
    const surge::RealizationEngine engine = make_engine(seed);

    // Serial reference: the engine's own loop, realizations one by one.
    const std::vector<surge::HurricaneRealization> reference =
        engine.run_batch(kRaggedRealizations);

    for (const unsigned jobs : jobs_values) {
      runtime::EnsembleRunner parallel(guarded_options(jobs, "none", 2));
      const std::string where =
          " / seed " + std::to_string(seed) + " / jobs " + std::to_string(jobs);

      // The sweep itself must be schedule-independent.
      const runtime::FailureMasks masks =
          sweep_masks(parallel, engine, kRaggedRealizations);
      ASSERT_TRUE(masks.ledger.failures.empty());
      expect_masks_of(masks, reference, "masks" + where);

      for (const auto& config : configs) {
        const std::vector<std::size_t> counts =
            core::SitePatterns(config, masks).counts();
        for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
          const core::ScenarioResult want =
              pipeline.analyze(config, scenario, reference);
          const core::ScenarioResult got =
              pipeline.fold(config, scenario, masks, counts);
          expect_same(want, got,
                      config.name + " / " +
                          std::string(threat::scenario_name(scenario)) + where);
        }
      }
    }
  }
}

/// Masks of more than 64 exposed assets span words: with copies of the
/// paper's sites at bits 70 and 71, the fold over two-word masks equals the
/// serial analyze for configurations whose sites sit on either side of the
/// word boundary.
TEST(EnsembleDeterminismTest, MultiWordMasksFoldLikeSerialAnalyze) {
  std::vector<surge::ExposedAsset> assets =
      scada::oahu_topology().exposed_assets();
  const std::vector<surge::ExposedAsset> paper = assets;
  for (std::size_t i = 0; assets.size() < 70; ++i) {
    surge::ExposedAsset extra = paper[i % paper.size()];
    extra.id = "extra-" + std::to_string(i);
    assets.push_back(std::move(extra));
  }
  for (const surge::ExposedAsset& site : paper) {
    if (site.id == scada::oahu_ids::kHonoluluCc ||
        site.id == scada::oahu_ids::kWaiauCc) {
      surge::ExposedAsset high = site;
      high.id = site.id + "-high";
      assets.push_back(std::move(high));
    }
  }
  ASSERT_EQ(assets.size(), 72u);
  const surge::RealizationEngine engine(terrain::make_oahu_terrain(), assets);
  const std::string hon_high =
      std::string(scada::oahu_ids::kHonoluluCc) + "-high";
  const std::string waiau_high =
      std::string(scada::oahu_ids::kWaiauCc) + "-high";

  constexpr std::size_t kCount = 100;
  runtime::EnsembleRunner runner(guarded_options(4, "none", 0));
  const runtime::FailureMasks masks = sweep_masks(runner, engine, kCount);
  ASSERT_EQ(masks.words, 2u);
  const std::vector<surge::HurricaneRealization> reference =
      engine.run_batch(kCount);
  expect_masks_of(masks, reference, "72 assets");
  // Bit 70 is the Honolulu copy: it floods in some realizations, always
  // with the original's bit, and an unexposed id has no bit.
  EXPECT_EQ(masks.assets->at(hon_high), 70u);
  EXPECT_EQ(masks.assets->count("no-such-asset"), 0u);
  const std::size_t hon = masks.assets->at(scada::oahu_ids::kHonoluluCc);
  std::size_t high_floods = 0;
  for (std::size_t k = 0; k < masks.size(); ++k) {
    EXPECT_EQ(masks.test(k, 70), masks.test(k, hon));
    high_floods += masks.test(k, 70);
  }
  EXPECT_GT(high_floods, 0u) << "no realization floods bit 70";

  const core::AnalysisPipeline pipeline;
  const std::vector<scada::Configuration> configs = {
      scada::make_config_6_6(hon_high, waiau_high),
      scada::make_config_6_6(hon_high, scada::oahu_ids::kWaiauCc),
      scada::make_config_6_6_6(scada::oahu_ids::kHonoluluCc, waiau_high,
                               scada::oahu_ids::kDrFortress),
      scada::make_config_2_2(hon_high, "no-such-asset")};
  for (const scada::Configuration& config : configs) {
    for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
      expect_same(pipeline.analyze(config, scenario, reference),
                  pipeline.fold(config, scenario, masks,
                                core::SitePatterns(config, masks).counts()),
                  config.name + " over " + config.sites[0].asset_id + " / " +
                      std::string(threat::scenario_name(scenario)));
    }
  }
}

/// A warm run must reproduce the cold result exactly: the first run misses
/// the result cache, sweeps and stores the table, and every later cell
/// folds over the memo without another lookup.
TEST(EnsembleCacheTest, WarmHitIsByteIdenticalToColdPath) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  core::CaseStudyOptions options;
  options.realizations = kRealizations;
  options.runtime = make_options(4, /*cache=*/true);
  core::CaseStudyRunner runner = core::make_oahu_case_study(options);

  for (const auto& config : configs) {
    for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
      const core::ScenarioResult cold = runner.run(config, scenario);
      const core::ScenarioResult warm = runner.run(config, scenario);
      expect_same(cold, warm, config.name);
    }
  }
  const auto stats = runner.runtime().cache_stats();
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

/// On a hit a case study must not sweep the ensemble at all: a second case
/// study on the same runtime finds the first one's table in the store.
TEST(EnsembleCacheTest, CacheHitSweepsNothing) {
  core::CaseStudyOptions options;
  options.realizations = kRealizations;
  options.runtime = make_options(2, /*cache=*/true);
  runtime::EnsembleRunner shared(options.runtime);
  const scada::Configuration config = scada::make_config_2_2(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc);
  const auto scenario = threat::ThreatScenario::kHurricane;

  core::CaseStudyRunner first(scada::oahu_topology(),
                              terrain::make_oahu_terrain(), options, &shared);
  const core::ResumableAnalysis cold =
      first.run_all_resumable({config}, {scenario}, {});
  EXPECT_TRUE(cold.swept);
  ASSERT_NE(first.memoized_masks(), nullptr);

  core::CaseStudyRunner second(scada::oahu_topology(),
                               terrain::make_oahu_terrain(), options, &shared);
  const core::ResumableAnalysis warm =
      second.run_all_resumable({config}, {scenario}, {});
  EXPECT_FALSE(warm.swept) << "hit must not sweep the ensemble";
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(shared.cache_stats().hits, 1u);
  ASSERT_NE(second.memoized_masks(), nullptr);
  expect_same_masks(*second.memoized_masks(), *first.memoized_masks(),
                    "shared runtime");
  expect_same(cold.results[0], warm.results[0], "shared runtime");
}

/// Disk cache: a second runner (fresh memory) in the same cache dir gets
/// the table without recomputing — the cross-process warm-rerun story.
TEST(EnsembleCacheTest, DiskCacheSharedAcrossRunnerInstances) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ct_ensemble_disk";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusionIsolation;

  core::CaseStudyOptions options;
  options.realizations = kRealizations;
  options.runtime = make_options(2, /*cache=*/true);
  options.runtime.disk_cache = true;
  options.runtime.cache_dir = dir.string();

  core::ScenarioResult cold;
  runtime::FailureMasks written;
  {
    core::CaseStudyRunner writer = core::make_oahu_case_study(options);
    cold = writer.run(configs[0], scenario);
    ASSERT_NE(writer.memoized_masks(), nullptr);
    written = *writer.memoized_masks();
  }

  core::CaseStudyRunner reader = core::make_oahu_case_study(options);
  const core::ResumableAnalysis warm =
      reader.run_all_resumable({configs[0]}, {scenario}, {});
  EXPECT_FALSE(warm.swept) << "a disk hit must not sweep the ensemble";
  ASSERT_NE(reader.memoized_masks(), nullptr);
  expect_same_masks(*reader.memoized_masks(), written, "disk round-trip");
  expect_same(cold, warm.results[0], "disk round-trip");
  EXPECT_EQ(reader.runtime().cache_stats().disk_hits, 1u);

  fs::remove_all(dir);
}

/// The cheap engine-batch digest must identify the ensemble: same knobs ->
/// same key, any knob change (seed, SLR, count) -> different key, and it
/// must agree with itself without generating the batch. Reordering the
/// exposed assets moves the key too, since it moves the masks' bit layout.
TEST(EnsembleCacheTest, EngineBatchDigestTracksKnobs) {
  runtime::EnsembleRunner runner(make_options(1));
  const auto base =
      runner.digest_engine_batch(make_engine(kSeeds[0]), kRealizations);
  EXPECT_EQ(base,
            runner.digest_engine_batch(make_engine(kSeeds[0]), kRealizations));
  EXPECT_NE(base,
            runner.digest_engine_batch(make_engine(kSeeds[1]), kRealizations));
  EXPECT_NE(base, runner.digest_engine_batch(make_engine(kSeeds[0]),
                                             kRealizations + 1));

  surge::RealizationConfig slr;
  slr.base_seed = kSeeds[0];
  slr.sea_level_offset_m = 0.5;
  const surge::RealizationEngine slr_engine(
      terrain::make_oahu_terrain(), scada::oahu_topology().exposed_assets(),
      slr);
  EXPECT_NE(base, runner.digest_engine_batch(slr_engine, kRealizations));

  std::vector<surge::ExposedAsset> reversed =
      scada::oahu_topology().exposed_assets();
  std::reverse(reversed.begin(), reversed.end());
  surge::RealizationConfig paper;
  paper.base_seed = kSeeds[0];
  const surge::RealizationEngine reversed_engine(terrain::make_oahu_terrain(),
                                                 reversed, paper);
  EXPECT_NE(base, runner.digest_engine_batch(reversed_engine, kRealizations));
  EXPECT_NE(runner.digest_engine_batch(make_engine(kSeeds[0]), 0),
            runner.digest_engine_batch(reversed_engine, 0))
      << "without the probe realization";
}

/// End-to-end through the CaseStudyRunner facade: run_configs at several
/// jobs values matches the serial runner, and a repeated run() folds over
/// the memoized table (one lookup per runner, the first run's miss).
TEST(EnsembleCaseStudyTest, RunnerFacadeDeterministicAndCached) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusion;

  core::CaseStudyOptions serial_options;
  serial_options.realizations = kRealizations;
  serial_options.runtime = make_options(1);
  core::CaseStudyRunner serial = core::make_oahu_case_study(serial_options);
  const auto want = serial.run_configs(configs, scenario);

  for (const unsigned jobs : job_counts()) {
    core::CaseStudyOptions options;
    options.realizations = kRealizations;
    options.runtime = make_options(jobs, /*cache=*/true);
    core::CaseStudyRunner runner = core::make_oahu_case_study(options);
    const auto got = runner.run_configs(configs, scenario);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same(want[i], got[i],
                  configs[i].name + " jobs " + std::to_string(jobs));
    }
    const auto again = runner.run(configs[0], scenario);
    expect_same(want[0], again, "memoized rerun");
    EXPECT_EQ(runner.runtime().cache_stats().lookups, 1u);
    EXPECT_EQ(runner.runtime().cache_stats().hits, 0u);
  }
}

/// Quarantine accounting of two results, every field of every record.
void expect_same_ledger(const core::ScenarioResult& a,
                        const core::ScenarioResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.attempted, b.attempted) << context;
  EXPECT_EQ(a.completed, b.completed) << context;
  EXPECT_EQ(a.retries, b.retries) << context;
  ASSERT_EQ(a.failures.size(), b.failures.size()) << context;
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    const runtime::FailureRecord& x = a.failures[i];
    const runtime::FailureRecord& y = b.failures[i];
    EXPECT_EQ(x.realization, y.realization) << context;
    EXPECT_EQ(x.seed, y.seed) << context;
    EXPECT_EQ(x.attempts, y.attempts) << context;
    EXPECT_EQ(x.code, y.code) << context;
    EXPECT_EQ(x.origin, y.origin) << context;
    EXPECT_EQ(x.message, y.message) << context;
  }
}

// --- fault isolation (PR 6) -------------------------------------------------

TEST(EnsembleGuardedTest, CleanSweepMatchesRunBatch) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleRunner runner(guarded_options(4, "none", 2));
  const runtime::FailureMasks masks =
      sweep_masks(runner, engine, kRealizations);
  EXPECT_TRUE(masks.ledger.failures.empty());
  EXPECT_EQ(masks.ledger.retries, 0u);
  EXPECT_EQ(masks.attempted, kRealizations);
  EXPECT_EQ(masks.words, 1u);
  expect_masks_of(masks, engine.run_batch(kRealizations), "clean sweep");
}

/// The acceptance gate of the quarantine machinery: the ledger AND the
/// surviving masks must be bit-identical at any --jobs value.
TEST(EnsembleGuardedTest, QuarantineDeterministicAcrossJobs) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  constexpr const char* kSpec = "throw:every=7";  // fires on every attempt

  runtime::EnsembleRunner serial(guarded_options(1, kSpec, 1));
  const runtime::FailureMasks reference =
      sweep_masks(serial, engine, kRealizations);

  // Indices 0, 7, 14, 21, 28, 35 quarantine after 1 + 1 attempts.
  ASSERT_EQ(reference.ledger.failures.size(), 6u);
  EXPECT_EQ(reference.ledger.retries, 6u);
  for (std::size_t i = 0; i < reference.ledger.failures.size(); ++i) {
    const runtime::FailureRecord& f = reference.ledger.failures[i];
    EXPECT_EQ(f.realization, i * 7);
    EXPECT_EQ(f.seed, kSeeds[0]);
    EXPECT_EQ(f.attempts, 2u);
    EXPECT_EQ(f.code, util::ErrorCode::kFaultInjected);
  }
  EXPECT_EQ(reference.attempted, kRealizations);
  std::vector<surge::HurricaneRealization> survivors;
  for (surge::HurricaneRealization& r : engine.run_batch(kRealizations)) {
    if (r.index % 7 != 0) survivors.push_back(std::move(r));
  }
  expect_masks_of(reference, survivors, "survivors");

  for (const unsigned jobs : job_counts()) {
    runtime::EnsembleRunner parallel(guarded_options(jobs, kSpec, 1));
    const runtime::FailureMasks masks =
        sweep_masks(parallel, engine, kRealizations);
    expect_same_masks(masks, reference, "jobs " + std::to_string(jobs));
    ASSERT_EQ(masks.ledger.failures.size(), reference.ledger.failures.size());
    for (std::size_t i = 0; i < reference.ledger.failures.size(); ++i) {
      EXPECT_EQ(masks.ledger.failures[i].realization,
                reference.ledger.failures[i].realization);
      EXPECT_EQ(masks.ledger.failures[i].attempts,
                reference.ledger.failures[i].attempts);
    }
    EXPECT_EQ(masks.ledger.retries, reference.ledger.retries);
  }
}

TEST(EnsembleGuardedTest, RetryHealsFirstAttemptFault) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  // The rule fires only on attempt 1: one retry (same seed) heals every
  // injected failure, so the table is complete AND bit-identical.
  runtime::EnsembleRunner runner(guarded_options(4, "throw:every=5,attempts=1", 2));
  const runtime::FailureMasks masks =
      sweep_masks(runner, engine, kRealizations);
  EXPECT_TRUE(masks.ledger.failures.empty());
  EXPECT_EQ(masks.ledger.retries, 8u);  // indices 0, 5, ..., 35 healed
  expect_masks_of(masks, engine.run_batch(kRealizations), "healed");
}

TEST(EnsembleGuardedTest, NanGuardTripsAsTypedNumericFailure) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleRunner runner(guarded_options(2, "nan:every=9", 0));
  const runtime::FailureMasks masks =
      sweep_masks(runner, engine, kRealizations);
  // Indices 0, 9, 18, 27, 36: the planted NaN must fail the realization
  // (typed, with provenance), never reach the table.
  ASSERT_EQ(masks.ledger.failures.size(), 5u);
  for (const runtime::FailureRecord& f : masks.ledger.failures) {
    EXPECT_EQ(f.code, util::ErrorCode::kNumeric);
    EXPECT_EQ(f.origin, "surge");
    EXPECT_EQ(f.seed, kSeeds[0]);
  }
  EXPECT_EQ(masks.size(), kRealizations - 5);
  for (const std::uint64_t index : masks.indices) EXPECT_NE(index % 9, 0u);
}

TEST(EnsembleGuardedTest, WatchdogTimesOutDelayedRealizations) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleOptions options =
      guarded_options(2, "delay:every=10,ms=500", 0);
  options.task_timeout = std::chrono::milliseconds(40);
  runtime::EnsembleRunner runner(options);
  const runtime::FailureMasks masks = sweep_masks(runner, engine, 20);
  // Indices 0 and 10 stall past the deadline; the cooperative delay polls
  // the token, so each attempt unwinds as a typed timeout.
  ASSERT_EQ(masks.ledger.failures.size(), 2u);
  EXPECT_EQ(masks.ledger.failures[0].realization, 0u);
  EXPECT_EQ(masks.ledger.failures[1].realization, 10u);
  for (const runtime::FailureRecord& f : masks.ledger.failures) {
    EXPECT_EQ(f.code, util::ErrorCode::kTimeout);
  }
  EXPECT_EQ(masks.size(), 18u);
}

/// Case-study options over kRealizations with the cache on and `spec`.
core::CaseStudyOptions cached_case(const char* spec, unsigned retries) {
  core::CaseStudyOptions options;
  options.realizations = kRealizations;
  options.runtime = guarded_options(2, spec, retries);
  options.runtime.cache = true;
  return options;
}

TEST(EnsembleGuardedTest, PartialResultIsNeverCached) {
  const scada::Configuration config = scada::make_config_2_2(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc);
  const auto scenario = threat::ThreatScenario::kHurricane;
  const auto session = [](const core::CaseStudyOptions& options,
                          runtime::EnsembleRunner& shared) {
    return core::CaseStudyRunner(scada::oahu_topology(),
                                 terrain::make_oahu_terrain(), options,
                                 &shared);
  };

  // A degraded table must NOT be stored under the full-ensemble key: a
  // second case study on the same runtime sweeps again instead of serving
  // the partial table.
  const core::CaseStudyOptions degraded_options =
      cached_case("throw:every=7", 0);
  runtime::EnsembleRunner degraded(degraded_options.runtime);
  core::CaseStudyRunner first = session(degraded_options, degraded);
  const core::ScenarioResult partial = first.run(config, scenario);
  EXPECT_TRUE(partial.degraded());
  core::CaseStudyRunner second = session(degraded_options, degraded);
  EXPECT_TRUE(second.run_all_resumable({config}, {scenario}, {}).swept);
  EXPECT_EQ(degraded.cache_stats().hits, 0u);

  // Nor an interrupted one: its partial table is folded, not kept.
  const core::CaseStudyOptions clean_options = cached_case("none", 0);
  runtime::EnsembleRunner clean(clean_options.runtime);
  runtime::CancellationToken token;
  runtime::CheckpointOptions cut;
  cut.interval = 8;
  cut.on_progress = [&](const runtime::SweepProgressEvent&) {
    token.request_cancel();
  };
  core::CaseStudyRunner interrupted = session(clean_options, clean);
  const core::ResumableAnalysis stopped =
      interrupted.run_all_resumable({config}, {scenario}, cut, &token);
  ASSERT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.results[0].outcomes.total(), 8u);
  EXPECT_EQ(interrupted.memoized_masks(), nullptr);

  // A clean table is stored under the same key and the hit is complete.
  core::CaseStudyRunner writer = session(clean_options, clean);
  const core::ResumableAnalysis cold =
      writer.run_all_resumable({config}, {scenario}, {});
  EXPECT_TRUE(cold.swept);
  core::CaseStudyRunner reader = session(clean_options, clean);
  const core::ResumableAnalysis warm =
      reader.run_all_resumable({config}, {scenario}, {});
  EXPECT_FALSE(warm.swept);
  EXPECT_EQ(warm.results[0].attempted, kRealizations);
  EXPECT_EQ(warm.results[0].attempted, warm.results[0].completed);
  expect_same(warm.results[0], cold.results[0], "clean");
}

TEST(EnsembleGuardedTest, MassBoundBracketsTrueProbability) {
  const scada::Configuration config = scada::make_config_2_2(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc);
  const auto scenario = threat::ThreatScenario::kHurricane;

  // Ground truth: the clean full ensemble.
  core::CaseStudyRunner clean =
      core::make_oahu_case_study(cached_case("none", 0));
  const core::ScenarioResult truth = clean.run(config, scenario);

  core::CaseStudyRunner degraded =
      core::make_oahu_case_study(cached_case("throw:every=7", 0));
  const core::ScenarioResult partial = degraded.run(config, scenario);
  ASSERT_TRUE(partial.degraded());
  EXPECT_EQ(partial.attempted, kRealizations);
  EXPECT_EQ(partial.completed, kRealizations - 6);

  for (const auto state :
       {threat::OperationalState::kGreen, threat::OperationalState::kOrange,
        threat::OperationalState::kRed, threat::OperationalState::kGray}) {
    const util::Interval bound = partial.mass_bound(state);
    EXPECT_GE(bound.lo, 0.0);
    EXPECT_LE(bound.hi, 1.0);
    EXPECT_LE(bound.lo, bound.hi);
    const double true_p = truth.outcomes.probability(state);
    EXPECT_TRUE(bound.contains(true_p))
        << "state " << static_cast<int>(state) << ": true " << true_p
        << " not in [" << bound.lo << ", " << bound.hi << "]";
    // A clean result's bound still contains its own point estimate.
    EXPECT_TRUE(truth.mass_bound(state).contains(true_p));
  }
}

/// End to end through the CaseStudyRunner facade: a fault profile degrades
/// the run gracefully — partial distribution, quarantine accounting — and
/// stays bit-identical across jobs values.
TEST(EnsembleGuardedTest, CaseStudyDegradesGracefully) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusion;

  const auto run = [&](unsigned jobs) {
    core::CaseStudyOptions options;
    options.realizations = 26;
    options.runtime = guarded_options(jobs, "throw:every=13", 1);
    core::CaseStudyRunner runner = core::make_oahu_case_study(options);
    return runner.run(configs[0], scenario);
  };

  const core::ScenarioResult serial = run(1);
  EXPECT_TRUE(serial.degraded());
  EXPECT_EQ(serial.attempted, 26u);
  EXPECT_EQ(serial.completed, 24u);
  ASSERT_EQ(serial.failures.size(), 2u);  // indices 0 and 13
  EXPECT_EQ(serial.failures[0].realization, 0u);
  EXPECT_EQ(serial.failures[1].realization, 13u);
  EXPECT_EQ(serial.outcomes.total(), 24u);
  const util::Interval bound =
      serial.mass_bound(threat::OperationalState::kRed);
  EXPECT_LE(bound.lo, bound.hi);

  for (const unsigned jobs : job_counts()) {
    const core::ScenarioResult parallel = run(jobs);
    expect_same(serial, parallel, "degraded jobs " + std::to_string(jobs));
    ASSERT_EQ(parallel.failures.size(), serial.failures.size());
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
      EXPECT_EQ(parallel.failures[i].realization,
                serial.failures[i].realization);
    }
  }
}

/// run() and the sweep (run_all_resumable) share one table: whichever runs
/// first on a cache-on runner, the other folds over its memo with the same
/// counts and the same quarantine records, running no realization and
/// making no lookup. A clean table reaches the result cache; a degraded one
/// does not, so a second case study on the same runtime sweeps again.
TEST(EnsembleGuardedTest, SweepAndRunShareOneTable) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenarios = threat::all_scenarios();
  const std::vector<threat::ThreatScenario> scenario_list(scenarios.begin(),
                                                          scenarios.end());
  const std::size_t cells = configs.size() * scenarios.size();
  const auto options_for = [](const char* spec) {
    core::CaseStudyOptions options;
    options.realizations = kRealizations;
    options.runtime = guarded_options(4, spec, 1);
    options.runtime.cache = true;
    return options;
  };

  for (const std::string spec : {"none", "throw:every=13"}) {
    const bool clean = spec == "none";
    const core::CaseStudyOptions options = options_for(spec.c_str());
    const auto context = [&](std::size_t cell) {
      return spec + " cell " + std::to_string(cell);
    };

    // Sweep first, then run() on every cell (row-major order:
    // configuration fastest within a scenario).
    core::CaseStudyRunner sweep_first = core::make_oahu_case_study(options);
    const core::ResumableAnalysis sweep = sweep_first.run_all_resumable(
        configs, scenario_list, runtime::CheckpointOptions{});
    ASSERT_EQ(sweep.results.size(), cells);
    EXPECT_TRUE(sweep.swept);
    std::vector<core::ScenarioResult> batch;
    for (const threat::ThreatScenario scenario : scenarios) {
      for (const scada::Configuration& config : configs) {
        batch.push_back(sweep_first.run(config, scenario));
      }
    }
    EXPECT_EQ(sweep_first.runtime().cache_stats().lookups, 1u) << spec;
    for (std::size_t i = 0; i < cells; ++i) {
      expect_same(sweep.results[i], batch[i], context(i));
      expect_same_ledger(sweep.results[i], batch[i], context(i));
    }

    // run() first, then the sweep, on a fresh runner.
    core::CaseStudyRunner batch_first = core::make_oahu_case_study(options);
    std::vector<core::ScenarioResult> cold;
    for (const threat::ThreatScenario scenario : scenarios) {
      for (const scada::Configuration& config : configs) {
        cold.push_back(batch_first.run(config, scenario));
      }
    }
    const core::ResumableAnalysis warm = batch_first.run_all_resumable(
        configs, scenario_list, runtime::CheckpointOptions{});
    EXPECT_FALSE(warm.swept) << spec;
    EXPECT_EQ(warm.executed, 0u) << spec;
    EXPECT_EQ(batch_first.runtime().cache_stats().lookups, 1u) << spec;
    ASSERT_EQ(warm.results.size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
      expect_same(cold[i], warm.results[i], context(i));
      expect_same_ledger(cold[i], warm.results[i], context(i));
      expect_same(sweep.results[i], warm.results[i], context(i));
    }

    // Only the clean table was stored.
    core::CaseStudyRunner again(scada::oahu_topology(),
                                terrain::make_oahu_terrain(), options,
                                &batch_first.runtime());
    EXPECT_EQ(again.run_all_resumable(configs, scenario_list, {}).swept,
              !clean)
        << spec;

    if (!clean) {
      ASSERT_EQ(sweep.results[0].failures.size(), 4u);
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(sweep.results[0].failures[k].realization, 13 * k);
      }
    }
  }
}

// --- exit-code policy and failure summary -----------------------------------

core::ScenarioResult make_result(std::size_t attempted, std::size_t completed) {
  core::ScenarioResult r;
  r.config_name = "cfg";
  r.attempted = attempted;
  r.completed = completed;
  for (std::size_t i = completed; i < attempted; ++i) {
    runtime::FailureRecord f;
    f.realization = i;
    f.seed = 42;
    f.attempts = 3;
    f.code = util::ErrorCode::kFaultInjected;
    f.origin = "fault-injection";
    f.message = "injected";
    r.failures.push_back(std::move(f));
  }
  return r;
}

// --- storm-stage memo -----------------------------------------------------

constexpr std::size_t kPaperRealizations = 1000;

/// Restores the obs gate on exit: these tests read surge.node_steps, so
/// they switch collection on (CI also runs this suite with CT_OBS=0).
struct ObsGateGuard {
  bool was_enabled = obs::enabled();
  ~ObsGateGuard() { obs::set_enabled(was_enabled); }
};

/// A memo-enabled runner (in-memory cache on) that ignores CT_FAULT.
runtime::EnsembleOptions memo_options(unsigned jobs) {
  runtime::EnsembleOptions options = make_options(jobs, /*cache=*/true);
  options.fault_spec = "none";
  return options;
}

/// The storm stage for `config`: `runner`'s shared stage, as a served
/// session's engine gets it (the runner's storm memo serves engines on
/// it), or a private one when `runner` is null, as a case study that owns
/// its runtime builds it (the memo keeps nothing for it).
std::shared_ptr<const surge::StormStage> stage_for(
    runtime::EnsembleRunner* runner, const surge::RealizationConfig& config) {
  if (runner == nullptr) {
    return std::make_shared<const surge::StormStage>(
        terrain::make_oahu_terrain(), config);
  }
  return runner->storm_stage(terrain::make_oahu_terrain(), config);
}

/// An engine over the paper's storms at sea-level offset `offset_m`, on
/// stage_for(runner).
surge::RealizationEngine offset_engine(
    double offset_m, runtime::EnsembleRunner* runner = nullptr) {
  surge::RealizationConfig config;
  config.sea_level_offset_m = offset_m;
  return surge::RealizationEngine(stage_for(runner, config),
                                  scada::oahu_topology().exposed_assets(),
                                  config);
}

/// Every field of two realizations, doubles compared bit for bit.
void expect_bit_identical(const surge::HurricaneRealization& got,
                          const surge::HurricaneRealization& want,
                          const std::string& context) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(got.index, want.index) << context;
  EXPECT_EQ(bits(got.peak_wind_ms), bits(want.peak_wind_ms)) << context;
  EXPECT_EQ(bits(got.max_shoreline_wse_m), bits(want.max_shoreline_wse_m))
      << context;
  ASSERT_EQ(got.impacts.size(), want.impacts.size()) << context;
  for (std::size_t a = 0; a < want.impacts.size(); ++a) {
    const surge::AssetImpact& g = got.impacts[a];
    const surge::AssetImpact& w = want.impacts[a];
    EXPECT_EQ(g.asset_id, w.asset_id) << context;
    EXPECT_EQ(g.shoreline_station, w.shoreline_station) << context;
    EXPECT_EQ(bits(g.shoreline_wse_m), bits(w.shoreline_wse_m)) << context;
    EXPECT_EQ(bits(g.water_level_m), bits(w.water_level_m)) << context;
    EXPECT_EQ(bits(g.inundation_depth_m), bits(w.inundation_depth_m))
        << context;
    EXPECT_EQ(g.failed, w.failed) << context;
    EXPECT_EQ(bits(g.peak_wind_ms), bits(w.peak_wind_ms)) << context;
    EXPECT_EQ(g.wind_failed, w.wind_failed) << context;
  }
}

/// Engines over the paper's storms that differ in one bind knob each.
struct BindVariant {
  const char* name;
  std::function<void(surge::RealizationConfig&)> knob;
};

const std::vector<BindVariant>& bind_variants() {
  static const std::vector<BindVariant> variants = {
      {"paper", [](surge::RealizationConfig&) {}},
      {"offset",
       [](surge::RealizationConfig& c) { c.sea_level_offset_m = 0.4; }},
      {"amplification",
       [](surge::RealizationConfig& c) { c.harbor.amplification = 1.3; }},
      {"decay",
       [](surge::RealizationConfig& c) {
         c.inundation.decay_length_m = 2500.0;
       }},
      {"threshold",
       [](surge::RealizationConfig& c) {
         c.inundation.failure_threshold_m = 0.25;
       }},
      {"fragility",
       [](surge::RealizationConfig& c) { c.fragility.enabled = true; }},
  };
  return variants;
}

/// One engine per bind variant, each on stage_for(runner).
std::vector<std::unique_ptr<const surge::RealizationEngine>> variant_engines(
    runtime::EnsembleRunner* runner) {
  std::vector<std::unique_ptr<const surge::RealizationEngine>> engines;
  for (const BindVariant& v : bind_variants()) {
    surge::RealizationConfig config;
    v.knob(config);
    engines.push_back(std::make_unique<const surge::RealizationEngine>(
        stage_for(runner, config), scada::oahu_topology().exposed_assets(),
        config));
  }
  return engines;
}

/// engine.run over realizations [0, count) on `runner`'s pool.
std::vector<surge::HurricaneRealization> pooled_run(
    runtime::EnsembleRunner& runner, const surge::RealizationEngine& engine,
    std::size_t count) {
  std::vector<surge::HurricaneRealization> out(count);
  runner.pool().parallel_for_each(count, 1, [&](std::size_t i) {
    out[i] = engine.run(i);
  });
  return out;
}

/// The shoreline records `runner`'s memo keeps for realizations [0, count)
/// of `storm_digest` (the runner keys them by storm digest and index) are
/// engine.storm(i) bit for bit, and every engine binds them to its run(i).
void expect_memo_records(
    runtime::EnsembleRunner& runner,
    const std::vector<std::unique_ptr<const surge::RealizationEngine>>& engines,
    const std::vector<surge::ShorelineRecord>& storms,
    const std::vector<std::vector<surge::HurricaneRealization>>& reference) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::uint64_t i = 0; i < storms.size(); ++i) {
    const auto record = runner.store().lookup_shoreline(
        engines[0]->storm_digest() + "#" + std::to_string(i));
    ASSERT_NE(record, nullptr) << i;
    EXPECT_EQ(bits(record->peak_wind_ms), bits(storms[i].peak_wind_ms)) << i;
    ASSERT_EQ(record->station_wse_m.size(), storms[i].station_wse_m.size());
    for (std::size_t k = 0; k < storms[i].station_wse_m.size(); ++k) {
      EXPECT_EQ(bits(record->station_wse_m[k]),
                bits(storms[i].station_wse_m[k]))
          << i << " station " << k;
    }
    for (std::size_t e = 0; e < engines.size(); ++e) {
      expect_bit_identical(engines[e]->bind(i, *record), reference[e][i],
                           std::string(bind_variants()[e].name) + " bind " +
                               std::to_string(i));
    }
  }
}

/// The memo's masks equal engine.run's over all 1000 paper realizations,
/// for every bind knob on one runner's shared stage, at jobs 1 and 8, and
/// with an LRU small enough to evict records mid-sweep; the records it
/// keeps are the storm stage bit for bit and bind to run() bit for bit.
TEST(EnsembleMemoTest, MemoizedRealizationsBitIdenticalToRun) {
  // Reference: engine.run and engine.storm for every realization of
  // private-stage engines, on a pool, the memo out of the way.
  const auto engines = variant_engines(nullptr);
  runtime::EnsembleRunner pool(memo_options(8));
  std::vector<std::vector<surge::HurricaneRealization>> reference;
  for (const auto& engine : engines) {
    reference.push_back(pooled_run(pool, *engine, kPaperRealizations));
  }
  std::vector<surge::ShorelineRecord> storms(kPaperRealizations);
  pool.pool().parallel_for_each(kPaperRealizations, 1, [&](std::size_t i) {
    storms[i] = engines[0]->storm(i);
  });

  for (const unsigned jobs : {1u, 8u}) {
    runtime::EnsembleRunner runner(memo_options(jobs));
    // The first engine's sweep keeps every record; the rest bind them.
    const auto staged = variant_engines(&runner);
    for (std::size_t e = 0; e < staged.size(); ++e) {
      expect_masks_of(sweep_masks(runner, *staged[e], kPaperRealizations),
                      reference[e],
                      std::string(bind_variants()[e].name) + " jobs " +
                          std::to_string(jobs));
    }
    const runtime::ResultStore::Stats stats = runner.cache_stats();
    EXPECT_EQ(stats.memo_stores, kPaperRealizations);
    EXPECT_EQ(stats.memo_hits, (staged.size() - 1) * kPaperRealizations);
    if (jobs == 8) expect_memo_records(runner, staged, storms, reference);
  }

  // 100 entries against 1000 in-order realizations: every record is evicted
  // before the next engine asks for it again.
  runtime::EnsembleOptions small = memo_options(8);
  small.memory_entries = 100;
  runtime::EnsembleRunner evicting(small);
  const auto evicted = variant_engines(&evicting);
  for (const std::size_t e : {std::size_t{1}, std::size_t{4}}) {
    expect_masks_of(sweep_masks(evicting, *evicted[e], kPaperRealizations),
                    reference[e],
                    std::string(bind_variants()[e].name) + " evicting");
  }
  EXPECT_EQ(evicting.cache_stats().memo_stores, 2 * kPaperRealizations);
}

/// CT_FAULT's throw, delay and nan rules act around the memo, so they
/// quarantine the same indices, and the survivors have the same masks, with
/// the memo on and off.
TEST(EnsembleMemoTest, FaultsQuarantineSameIndicesWithMemoOnAndOff) {
  struct Case {
    const char* spec;
    std::size_t count;
    std::chrono::milliseconds timeout;
  };
  const Case cases[] = {
      {"throw:every=7", kRealizations, {}},
      {"nan:every=9", kRealizations, {}},
      {"delay:every=10,ms=500", 20, std::chrono::milliseconds(40)}};
  for (const Case& c : cases) {
    runtime::EnsembleOptions off_options = guarded_options(4, c.spec, 1);
    off_options.task_timeout = c.timeout;
    runtime::EnsembleOptions on_options = off_options;
    on_options.cache = true;
    runtime::EnsembleRunner memo_off(off_options);
    runtime::EnsembleRunner memo_on(on_options);
    const surge::RealizationEngine engines[] = {
        offset_engine(0.0, &memo_on), offset_engine(0.2, &memo_on),
        offset_engine(0.4, &memo_on)};
    for (const surge::RealizationEngine& engine : engines) {
      const runtime::FailureMasks want = sweep_masks(memo_off, engine, c.count);
      const runtime::FailureMasks got = sweep_masks(memo_on, engine, c.count);
      ASSERT_FALSE(want.ledger.failures.empty()) << c.spec;
      ASSERT_EQ(got.ledger.failures.size(), want.ledger.failures.size())
          << c.spec;
      for (std::size_t i = 0; i < want.ledger.failures.size(); ++i) {
        const runtime::FailureRecord& g = got.ledger.failures[i];
        const runtime::FailureRecord& w = want.ledger.failures[i];
        EXPECT_EQ(g.realization, w.realization) << c.spec;
        EXPECT_EQ(g.code, w.code) << c.spec;
        EXPECT_EQ(g.attempts, w.attempts) << c.spec;
      }
      expect_same_masks(got, want, c.spec);
    }
    EXPECT_GT(memo_on.cache_stats().memo_hits, 0u) << c.spec;
  }
}

/// The admission rule's other half: engines on private stages (a case
/// study that owns its runtime) keep no record, even at two offsets over
/// the same storms on one runner, the batch digest's probe included, and
/// even while the runner holds a live shared stage of the same key.
TEST(EnsembleMemoTest, PrivateStagesKeepNoRecord) {
  runtime::EnsembleRunner runner(memo_options(4));
  const surge::RealizationEngine shared = offset_engine(0.0, &runner);
  for (const double offset : {0.0, 0.2}) {
    const surge::RealizationEngine engine = offset_engine(offset);
    EXPECT_EQ(engine.stage().key(), shared.stage().key());
    runner.digest_engine_batch(engine, kRealizations);
    sweep_masks(runner, engine, kRealizations);
  }
  const runtime::ResultStore::Stats stats = runner.cache_stats();
  EXPECT_EQ(stats.memo_lookups, 0u);
  EXPECT_EQ(stats.memo_stores, 0u);
}

/// The first engine on a shared stage keeps every record, its batch
/// digest's probe included, so realization 0 runs once; every later offset
/// runs the bind stage only: it adds nothing to surge.node_steps and still
/// matches engine.run's masks.
TEST(EnsembleMemoTest, SecondEngineRunsNoStorm) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  runtime::EnsembleRunner runner(memo_options(4));
  const surge::RealizationEngine first = offset_engine(0.0, &runner);
  runner.digest_engine_batch(first, kRealizations);
  sweep_masks(runner, first, kRealizations);
  EXPECT_EQ(runner.cache_stats().memo_stores, kRealizations);
  EXPECT_EQ(runner.cache_stats().memo_hits, 1u);

  for (const double offset : {0.2, 0.4}) {
    const surge::RealizationEngine later = offset_engine(offset, &runner);
    const std::uint64_t before = node_steps.value();
    const runtime::FailureMasks got =
        sweep_masks(runner, later, kRealizations);
    EXPECT_EQ(node_steps.value() - before, 0u) << offset;
    expect_masks_of(got, offset_engine(offset).run_batch(kRealizations),
                    "offset " + std::to_string(offset));
  }
  EXPECT_EQ(runner.cache_stats().memo_hits, 1 + 2 * kRealizations);
  EXPECT_EQ(runner.cache_stats().memo_stores, kRealizations);
}

/// options.cache = false (--no-cache) bypasses the memo: every engine, on
/// a shared stage too, runs every storm stage.
TEST(EnsembleMemoTest, NoCacheRunsEveryStormStage) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  runtime::EnsembleOptions options = memo_options(4);
  options.cache = false;
  runtime::EnsembleRunner runner(options);
  std::vector<std::uint64_t> steps;
  for (const double offset : {0.0, 0.2, 0.4}) {
    const surge::RealizationEngine engine = offset_engine(offset, &runner);
    const std::uint64_t before = node_steps.value();
    sweep_masks(runner, engine, kRealizations);
    steps.push_back(node_steps.value() - before);
  }
  if (obs::compiled_in()) {
    EXPECT_GT(steps[0], 0u);
  }
  EXPECT_EQ(steps[1], steps[0]);
  EXPECT_EQ(steps[2], steps[0]);
  EXPECT_EQ(runner.cache_stats().memo_lookups, 0u);
  EXPECT_EQ(runner.cache_stats().memo_stores, 0u);
}

/// The runner hands engines that share a storm side one stage and keeps
/// only a weak reference to it: once the last engine on it is destroyed,
/// no stage is live, and the next engine gets a newly built one that runs
/// the same bits.
TEST(EnsembleStageTest, RegistryHoldsNoStageAfterTheLastEngine) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter builds("surge.stage_builds");
  const std::vector<surge::ExposedAsset> assets =
      scada::oahu_topology().exposed_assets();
  surge::RealizationConfig paper;
  surge::RealizationConfig offset = paper;
  offset.sea_level_offset_m = 0.4;
  runtime::EnsembleRunner runner(make_options(1));

  const std::uint64_t before = builds.value();
  std::weak_ptr<const surge::StormStage> watch;
  {
    auto first = std::make_unique<const surge::RealizationEngine>(
        runner.storm_stage(terrain::make_oahu_terrain(), paper), assets,
        paper);
    const surge::RealizationEngine second(
        runner.storm_stage(terrain::make_oahu_terrain(), offset), assets,
        offset);
    EXPECT_EQ(&first->stage(), &second.stage());
    watch = runner.storm_stage(terrain::make_oahu_terrain(), paper);
    first.reset();
    EXPECT_FALSE(watch.expired()) << "the second engine still holds it";
  }
  EXPECT_TRUE(watch.expired())
      << "the runner must not keep a stage no engine holds";

  const surge::RealizationEngine again(
      runner.storm_stage(terrain::make_oahu_terrain(), paper), assets, paper);
  if (obs::compiled_in()) {
    EXPECT_EQ(builds.value() - before, 2u);
  }
  const surge::RealizationEngine reference = offset_engine(0.0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    expect_bit_identical(again.run(i), reference.run(i),
                         "rebuilt stage " + std::to_string(i));
  }
}

TEST(ExitCodePolicyTest, CleanDegradedAndEmptyRuns) {
  const std::vector<core::ScenarioResult> clean = {make_result(10, 10)};
  EXPECT_EQ(core::analysis_exit_code(clean, /*strict=*/false), 0);
  EXPECT_EQ(core::analysis_exit_code(clean, /*strict=*/true), 0);

  const std::vector<core::ScenarioResult> degraded = {make_result(10, 10),
                                                      make_result(10, 8)};
  EXPECT_EQ(core::analysis_exit_code(degraded, /*strict=*/false), 0);
  EXPECT_EQ(core::analysis_exit_code(degraded, /*strict=*/true), 3);

  // Nothing completed: even best-effort has no data — exit 4 wins.
  const std::vector<core::ScenarioResult> empty = {make_result(10, 0)};
  EXPECT_EQ(core::analysis_exit_code(empty, /*strict=*/false), 4);
  EXPECT_EQ(core::analysis_exit_code(empty, /*strict=*/true), 4);
}

TEST(ExitCodePolicyTest, FailureSummaryHasOneRowPerQuarantine) {
  const std::vector<core::ScenarioResult> results = {make_result(10, 10),
                                                     make_result(10, 7)};
  const util::TextTable table = core::failure_summary_table(results);
  EXPECT_EQ(table.row_count(), 3u);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("fault-injected"), std::string::npos);
  EXPECT_NE(rendered.find("injected"), std::string::npos);
}

}  // namespace
}  // namespace ct
