// Determinism and cache-correctness tests for the EnsembleRunner — the
// acceptance gate of the parallel runtime: at any --jobs value the outcome
// histograms must be bit-identical to the serial sweep for all five paper
// configurations x four threat scenarios x multiple seeds, and the cache-
// hit path must reproduce the cold path exactly (including when the hit
// comes from disk, across runner instances).
//
// CT_TEST_JOBS adds one extra thread count to the matrix (CI runs the
// suite at 1 and 8).
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/case_study.h"
#include "core/pipeline.h"
#include "core/report.h"
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
constexpr std::uint64_t kSeeds[] = {20220627, 7, 424242};

std::vector<unsigned> job_counts() {
  std::vector<unsigned> jobs = {2, 4, 8};
  if (const char* env = std::getenv("CT_TEST_JOBS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) jobs.push_back(static_cast<unsigned>(n));
  }
  return jobs;
}

runtime::EnsembleOptions make_options(unsigned jobs, bool cache = false) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.chunk = 7;  // ragged chunking: exercises the merge order
  options.cache = cache;
  return options;
}

surge::RealizationEngine make_engine(std::uint64_t seed) {
  surge::RealizationConfig config;
  config.base_seed = seed;
  return surge::RealizationEngine(terrain::make_oahu_terrain(),
                                  scada::oahu_topology().exposed_assets(),
                                  config);
}

/// The realizations of a guarded generation that must have quarantined
/// nothing.
std::vector<surge::HurricaneRealization> clean_batch(
    runtime::EnsembleRunner& runner, const surge::RealizationEngine& engine,
    std::size_t count) {
  runtime::GeneratedBatch batch = runner.generate_guarded(engine, count);
  EXPECT_TRUE(batch.complete());
  return std::move(batch.realizations);
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

/// The full paper matrix: 5 configurations x 4 scenarios x 3 seeds, every
/// parallel jobs value against the serial reference.
TEST(EnsembleDeterminismTest, ParallelMatchesSerialAcrossPaperMatrix) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;

  for (const std::uint64_t seed : kSeeds) {
    const surge::RealizationEngine engine = make_engine(seed);

    // Serial reference: the engine's own loop, realizations one by one.
    const std::vector<surge::HurricaneRealization> reference =
        engine.run_batch(kRealizations);

    for (const unsigned jobs : job_counts()) {
      runtime::EnsembleRunner parallel(make_options(jobs));

      // Generation itself must be schedule-independent.
      const runtime::GeneratedBatch batch =
          parallel.generate_guarded(engine, kRealizations);
      ASSERT_TRUE(batch.complete());
      const std::vector<surge::HurricaneRealization>& generated =
          batch.realizations;
      ASSERT_EQ(generated.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(generated[i].index, reference[i].index);
        EXPECT_EQ(generated[i].peak_wind_ms, reference[i].peak_wind_ms);
        EXPECT_EQ(generated[i].max_shoreline_wse_m,
                  reference[i].max_shoreline_wse_m);
      }

      for (const auto& config : configs) {
        for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
          const core::ScenarioResult want =
              pipeline.analyze(config, scenario, reference);
          const core::ScenarioResult got = pipeline.analyze_lazy(
              config, scenario, [&] { return &batch; }, parallel, "");
          expect_same(want, got,
                      config.name + " / " +
                          std::string(threat::scenario_name(scenario)) +
                          " / seed " + std::to_string(seed) + " / jobs " +
                          std::to_string(jobs));
        }
      }
    }
  }
}

/// A cache hit must reproduce the cold result exactly and must be flagged.
TEST(EnsembleCacheTest, WarmHitIsByteIdenticalToColdPath) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);

  runtime::EnsembleRunner runner(make_options(4, /*cache=*/true));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);
  const std::string digest = runner.digest_engine_batch(engine, kRealizations);
  const runtime::EnsembleRunner::BatchFn provide = [&] { return &batch; };

  for (const auto& config : configs) {
    for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
      const core::ScenarioResult cold =
          pipeline.analyze_lazy(config, scenario, provide, runner, digest);
      const core::ScenarioResult warm =
          pipeline.analyze_lazy(config, scenario, provide, runner, digest);
      EXPECT_FALSE(cold.from_cache);
      EXPECT_TRUE(warm.from_cache) << config.name;
      expect_same(cold, warm, config.name);
    }
  }
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.hits, configs.size() * threat::all_scenarios().size());
}

/// On a hit the lazy path must not materialize the ensemble at all.
TEST(EnsembleCacheTest, LazyProviderSkippedOnHit) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleRunner runner(make_options(2, /*cache=*/true));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);

  int provider_calls = 0;
  const runtime::EnsembleRunner::BatchFn provide = [&] {
    ++provider_calls;
    return &batch;
  };
  const runtime::EnsembleRunner::OutcomeFn outcome =
      [](const surge::HurricaneRealization& r) {
        return r.impacts.empty() ? 0 : 1;
      };
  const std::string key = "ab12cd34ab12cd34ab12cd34ab12cd34";

  const auto cold = runner.count_outcomes_guarded(provide, outcome, key);
  EXPECT_EQ(provider_calls, 1);
  EXPECT_FALSE(cold.counts.from_cache);

  const auto warm = runner.count_outcomes_guarded(provide, outcome, key);
  EXPECT_EQ(provider_calls, 1) << "hit must not materialize the ensemble";
  EXPECT_TRUE(warm.counts.from_cache);
  EXPECT_EQ(warm.counts.counts, cold.counts.counts);
  EXPECT_EQ(warm.counts.total, cold.counts.total);
}

/// Disk cache: a second runner (fresh memory) in the same cache dir gets
/// the result without recomputing — the cross-process warm-rerun story.
TEST(EnsembleCacheTest, DiskCacheSharedAcrossRunnerInstances) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ct_ensemble_disk";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusionIsolation;

  runtime::EnsembleOptions options = make_options(2, /*cache=*/true);
  options.disk_cache = true;
  options.cache_dir = dir.string();

  core::ScenarioResult cold;
  {
    runtime::EnsembleRunner writer(options);
    const runtime::GeneratedBatch batch =
        writer.generate_guarded(engine, kRealizations);
    cold = pipeline.analyze_lazy(
        configs[0], scenario, [&] { return &batch; }, writer,
        writer.digest_engine_batch(engine, kRealizations));
    EXPECT_FALSE(cold.from_cache);
  }

  runtime::EnsembleRunner reader(options);
  runtime::GeneratedBatch unused;
  const core::ScenarioResult warm = pipeline.analyze_lazy(
      configs[0], scenario,
      [&] {
        ADD_FAILURE() << "a disk hit must not generate the batch";
        unused = reader.generate_guarded(engine, kRealizations);
        return &unused;
      },
      reader, reader.digest_engine_batch(engine, kRealizations));
  EXPECT_TRUE(warm.from_cache);
  expect_same(cold, warm, "disk round-trip");
  EXPECT_EQ(reader.cache_stats().disk_hits, 1u);

  fs::remove_all(dir);
}

/// The cheap engine-batch digest must identify the ensemble: same knobs ->
/// same key, any knob change (seed, SLR, count) -> different key, and it
/// must agree with itself without generating the batch.
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
}

/// Every input of job_key must reach the key on its own: each field of
/// the configuration and of every one of its control sites, the site
/// order, the scenario, the attacker tag and the realization-set digest.
TEST(EnsembleCacheTest, JobKeyTracksEveryField) {
  const scada::Configuration base = scada::make_config_6_6_6(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusion;
  const std::string_view greedy = core::AnalysisPipeline().attacker_tag();
  const auto key = [&](const scada::Configuration& config) {
    return runtime::EnsembleRunner::job_key(config, scenario, greedy, "set");
  };
  const std::string baseline = key(base);
  EXPECT_EQ(key(base), baseline);

  std::vector<std::pair<std::string, scada::Configuration>> variants;
  const auto vary = [&](std::string name, auto perturb) {
    scada::Configuration c = base;
    perturb(c);
    variants.emplace_back(std::move(name), std::move(c));
  };
  using scada::Configuration;
  vary("name", [](Configuration& c) { c.name += "'"; });
  vary("style", [](Configuration& c) {
    c.style = scada::ReplicationStyle::kPrimaryBackup;
  });
  vary("intrusion_tolerance_f",
       [](Configuration& c) { ++c.intrusion_tolerance_f; });
  vary("proactive_recovery_k",
       [](Configuration& c) { ++c.proactive_recovery_k; });
  vary("active_multisite",
       [](Configuration& c) { c.active_multisite = !c.active_multisite; });
  vary("min_active_sites", [](Configuration& c) { ++c.min_active_sites; });
  vary("sites.size", [](Configuration& c) { c.sites.pop_back(); });
  vary("sites.order",
       [](Configuration& c) { std::swap(c.sites[1], c.sites[2]); });
  for (std::size_t i = 0; i < base.sites.size(); ++i) {
    const std::string site = "sites[" + std::to_string(i) + "].";
    vary(site + "asset_id",
         [i](Configuration& c) { c.sites[i].asset_id += "'"; });
    vary(site + "role", [i](Configuration& c) {
      c.sites[i].role = c.sites[i].role == scada::SiteRole::kPrimary
                            ? scada::SiteRole::kBackup
                            : scada::SiteRole::kPrimary;
    });
    vary(site + "replicas", [i](Configuration& c) { ++c.sites[i].replicas; });
    vary(site + "hot",
         [i](Configuration& c) { c.sites[i].hot = !c.sites[i].hot; });
  }
  for (const auto& [name, config] : variants) {
    EXPECT_NE(key(config), baseline) << name;
  }

  for (const threat::ThreatScenario other : threat::all_scenarios()) {
    if (other == scenario) continue;
    EXPECT_NE(runtime::EnsembleRunner::job_key(base, other, greedy, "set"),
              baseline)
        << threat::scenario_name(other);
  }
  EXPECT_NE(runtime::EnsembleRunner::job_key(
                base, scenario,
                core::AnalysisPipeline(core::AttackerModel::kExhaustive)
                    .attacker_tag(),
                "set"),
            baseline)
      << "attacker tag";
  EXPECT_NE(runtime::EnsembleRunner::job_key(base, scenario, greedy, "set'"),
            baseline)
      << "realization-set digest";
}

/// End-to-end through the CaseStudyRunner facade: run_configs at several
/// jobs values matches the serial runner, and a repeated run() is served
/// from the cache.
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
    EXPECT_TRUE(again.from_cache);
    expect_same(want[0], again, "cached rerun");
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

/// Options for the guarded paths: fault_spec "none" (not "") so a CT_FAULT
/// set by a CI fault-matrix job cannot leak into clean-path expectations.
runtime::EnsembleOptions guarded_options(unsigned jobs, const char* spec,
                                         unsigned retries) {
  runtime::EnsembleOptions options = make_options(jobs);
  options.fault_spec = spec;
  options.max_retries = retries;
  return options;
}

int simple_outcome(const surge::HurricaneRealization& r) {
  return r.impacts.empty() ? 0 : (r.impacts.size() > 2 ? 2 : 1);
}

TEST(EnsembleGuardedTest, CleanGuardedRunMatchesUnguarded) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  // Unguarded reference: the engine's serial loop and a plain count.
  const auto reference = engine.run_batch(kRealizations);
  runtime::EnsembleCounts plain;
  for (const surge::HurricaneRealization& r : reference) {
    ++plain.counts[static_cast<std::size_t>(simple_outcome(r))];
    ++plain.total;
  }

  runtime::EnsembleRunner runner(guarded_options(4, "none", 2));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);
  EXPECT_TRUE(batch.complete());
  EXPECT_EQ(batch.attempted, kRealizations);
  ASSERT_EQ(batch.realizations.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batch.realizations[i].index, reference[i].index);
    EXPECT_EQ(batch.realizations[i].max_shoreline_wse_m,
              reference[i].max_shoreline_wse_m);
  }

  const runtime::EnsembleReport guarded = runner.count_outcomes_guarded(
      [&] { return &batch; }, simple_outcome, "");
  EXPECT_FALSE(guarded.degraded());
  EXPECT_EQ(guarded.attempted, guarded.completed);
  EXPECT_EQ(guarded.counts.counts, plain.counts);
  EXPECT_EQ(guarded.counts.total, plain.total);
}

/// The acceptance gate of the quarantine machinery: the ledger AND the
/// partial distribution must be bit-identical at any --jobs value.
TEST(EnsembleGuardedTest, QuarantineDeterministicAcrossJobs) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  constexpr const char* kSpec = "throw:every=7";  // fires on every attempt

  runtime::EnsembleRunner serial(guarded_options(1, kSpec, 1));
  const runtime::GeneratedBatch reference =
      serial.generate_guarded(engine, kRealizations);
  const runtime::EnsembleReport reference_report =
      serial.count_outcomes_guarded([&] { return &reference; },
                                    simple_outcome, "");

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
  EXPECT_EQ(reference.realizations.size(), kRealizations - 6);

  for (const unsigned jobs : job_counts()) {
    runtime::EnsembleRunner parallel(guarded_options(jobs, kSpec, 1));
    const runtime::GeneratedBatch batch =
        parallel.generate_guarded(engine, kRealizations);
    ASSERT_EQ(batch.realizations.size(), reference.realizations.size())
        << "jobs " << jobs;
    for (std::size_t i = 0; i < reference.realizations.size(); ++i) {
      EXPECT_EQ(batch.realizations[i].index, reference.realizations[i].index);
      EXPECT_EQ(batch.realizations[i].max_shoreline_wse_m,
                reference.realizations[i].max_shoreline_wse_m);
    }
    ASSERT_EQ(batch.ledger.failures.size(), reference.ledger.failures.size());
    for (std::size_t i = 0; i < reference.ledger.failures.size(); ++i) {
      EXPECT_EQ(batch.ledger.failures[i].realization,
                reference.ledger.failures[i].realization);
      EXPECT_EQ(batch.ledger.failures[i].attempts,
                reference.ledger.failures[i].attempts);
    }
    const runtime::EnsembleReport report = parallel.count_outcomes_guarded(
        [&] { return &batch; }, simple_outcome, "");
    EXPECT_EQ(report.counts.counts, reference_report.counts.counts)
        << "jobs " << jobs;
    EXPECT_EQ(report.counts.total, reference_report.counts.total);
  }
}

TEST(EnsembleGuardedTest, RetryHealsFirstAttemptFault) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  const auto reference = engine.run_batch(kRealizations);

  // The rule fires only on attempt 1: one retry (same seed) heals every
  // injected failure, so the batch is complete AND bit-identical.
  runtime::EnsembleRunner runner(guarded_options(4, "throw:every=5,attempts=1", 2));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);
  EXPECT_TRUE(batch.complete());
  EXPECT_EQ(batch.ledger.retries, 8u);  // indices 0, 5, ..., 35 healed
  ASSERT_EQ(batch.realizations.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batch.realizations[i].index, reference[i].index);
    EXPECT_EQ(batch.realizations[i].peak_wind_ms, reference[i].peak_wind_ms);
    EXPECT_EQ(batch.realizations[i].max_shoreline_wse_m,
              reference[i].max_shoreline_wse_m);
  }
}

TEST(EnsembleGuardedTest, NanGuardTripsAsTypedNumericFailure) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleRunner runner(guarded_options(2, "nan:every=9", 0));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);
  // Indices 0, 9, 18, 27, 36: the planted NaN must fail the realization
  // (typed, with provenance), never poison the distribution.
  ASSERT_EQ(batch.ledger.failures.size(), 5u);
  for (const runtime::FailureRecord& f : batch.ledger.failures) {
    EXPECT_EQ(f.code, util::ErrorCode::kNumeric);
    EXPECT_EQ(f.origin, "surge");
    EXPECT_EQ(f.seed, kSeeds[0]);
  }
  for (const surge::HurricaneRealization& r : batch.realizations) {
    EXPECT_TRUE(std::isfinite(r.max_shoreline_wse_m));
  }
}

TEST(EnsembleGuardedTest, WatchdogTimesOutDelayedRealizations) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleOptions options =
      guarded_options(2, "delay:every=10,ms=500", 0);
  options.task_timeout = std::chrono::milliseconds(40);
  runtime::EnsembleRunner runner(options);
  const runtime::GeneratedBatch batch = runner.generate_guarded(engine, 20);
  // Indices 0 and 10 stall past the deadline; the cooperative delay polls
  // the token, so each attempt unwinds as a typed timeout.
  ASSERT_EQ(batch.ledger.failures.size(), 2u);
  EXPECT_EQ(batch.ledger.failures[0].realization, 0u);
  EXPECT_EQ(batch.ledger.failures[1].realization, 10u);
  for (const runtime::FailureRecord& f : batch.ledger.failures) {
    EXPECT_EQ(f.code, util::ErrorCode::kTimeout);
  }
  EXPECT_EQ(batch.realizations.size(), 18u);
}

TEST(EnsembleGuardedTest, PartialResultIsNeverCached) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  const std::string key = "fe12fe12fe12fe12fe12fe12fe12fe12";

  runtime::EnsembleOptions degraded_options =
      guarded_options(2, "throw:every=7", 0);
  degraded_options.cache = true;
  runtime::EnsembleRunner degraded(degraded_options);
  const runtime::GeneratedBatch batch =
      degraded.generate_guarded(engine, kRealizations);
  // The batch carries the quarantine ledger; counting over it keeps the
  // generation failures in the report.
  const runtime::EnsembleRunner::BatchFn batch_fn = [&] { return &batch; };
  const runtime::EnsembleReport first =
      degraded.count_outcomes_guarded(batch_fn, simple_outcome, key);
  EXPECT_TRUE(first.degraded());
  EXPECT_FALSE(first.counts.from_cache);
  // A degraded result must NOT have been stored under the full-ensemble
  // key: the rerun recomputes instead of serving the partial histogram.
  const runtime::EnsembleReport second =
      degraded.count_outcomes_guarded(batch_fn, simple_outcome, key);
  EXPECT_FALSE(second.counts.from_cache);

  // A clean runner stores under the same key and the hit is complete.
  runtime::EnsembleOptions clean_options = guarded_options(2, "none", 0);
  clean_options.cache = true;
  runtime::EnsembleRunner clean(clean_options);
  const runtime::GeneratedBatch full =
      clean.generate_guarded(engine, kRealizations);
  const runtime::EnsembleReport cold = clean.count_outcomes_guarded(
      [&] { return &full; }, simple_outcome, key);
  EXPECT_FALSE(cold.counts.from_cache);
  const runtime::EnsembleReport warm = clean.count_outcomes_guarded(
      [&] { return &full; }, simple_outcome, key);
  EXPECT_TRUE(warm.counts.from_cache);
  EXPECT_EQ(warm.attempted, warm.completed);
  EXPECT_EQ(warm.counts.counts, cold.counts.counts);
}

TEST(EnsembleGuardedTest, MassBoundBracketsTrueProbability) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);

  // Ground truth: the clean full ensemble.
  runtime::EnsembleRunner clean(guarded_options(2, "none", 0));
  const runtime::GeneratedBatch full =
      clean.generate_guarded(engine, kRealizations);
  const runtime::EnsembleReport truth = clean.count_outcomes_guarded(
      [&] { return &full; }, simple_outcome, "");

  runtime::EnsembleRunner degraded(guarded_options(2, "throw:every=7", 0));
  const runtime::GeneratedBatch batch =
      degraded.generate_guarded(engine, kRealizations);
  const runtime::EnsembleReport partial = degraded.count_outcomes_guarded(
      [&] { return &batch; }, simple_outcome, "");
  ASSERT_TRUE(partial.degraded());
  EXPECT_EQ(partial.attempted, kRealizations);
  EXPECT_EQ(partial.completed, kRealizations - 6);

  for (std::size_t bucket = 0; bucket < 4; ++bucket) {
    const util::Interval bound = partial.mass_bound(bucket);
    EXPECT_GE(bound.lo, 0.0);
    EXPECT_LE(bound.hi, 1.0);
    EXPECT_LE(bound.lo, bound.hi);
    const double true_p =
        static_cast<double>(truth.counts.counts[bucket]) /
        static_cast<double>(truth.counts.total);
    EXPECT_TRUE(bound.contains(true_p))
        << "bucket " << bucket << ": true " << true_p << " not in ["
        << bound.lo << ", " << bound.hi << "]";
  }

  // A clean report's bound still contains its own point estimate.
  for (std::size_t bucket = 0; bucket < 4; ++bucket) {
    const util::Interval bound = truth.mass_bound(bucket);
    const double p = static_cast<double>(truth.counts.counts[bucket]) /
                     static_cast<double>(truth.counts.total);
    EXPECT_TRUE(bound.contains(p)) << "bucket " << bucket;
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

/// The batch path (run) and the sweep (run_all_resumable) share one job-key
/// space: whichever runs first on a cache-on runner, the other is served
/// from the cache with the same counts. A degraded run stores nothing, so
/// under a fault profile the second pass recomputes and quarantines the
/// same indices with the same records.
TEST(EnsembleGuardedTest, SweepAndBatchPathShareCachedCells) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenarios = threat::all_scenarios();
  const std::vector<threat::ThreatScenario> scenario_list(scenarios.begin(),
                                                          scenarios.end());
  const std::size_t cells = configs.size() * scenarios.size();
  const auto make_runner = [](const char* spec) {
    core::CaseStudyOptions options;
    options.realizations = kRealizations;
    options.runtime = guarded_options(4, spec, 1);
    options.runtime.cache = true;
    return core::make_oahu_case_study(options);
  };

  for (const std::string spec : {"none", "throw:every=13"}) {
    const bool clean = spec == "none";
    const auto context = [&](std::size_t cell) {
      return spec + " cell " + std::to_string(cell);
    };

    // Sweep first, then the batch path on every cell (row-major order:
    // configuration fastest within a scenario).
    core::CaseStudyRunner sweep_first = make_runner(spec.c_str());
    const core::ResumableAnalysis sweep = sweep_first.run_all_resumable(
        configs, scenario_list, runtime::CheckpointOptions{});
    ASSERT_EQ(sweep.results.size(), cells);
    EXPECT_EQ(sweep.cached_cells, 0u);
    std::size_t hits = 0;
    std::vector<core::ScenarioResult> batch;
    for (const threat::ThreatScenario scenario : scenarios) {
      for (const scada::Configuration& config : configs) {
        batch.push_back(sweep_first.run(config, scenario));
        if (batch.back().from_cache) ++hits;
      }
    }
    EXPECT_EQ(hits, clean ? cells : 0u) << spec;
    for (std::size_t i = 0; i < cells; ++i) {
      expect_same(sweep.results[i], batch[i], context(i));
      expect_same_ledger(sweep.results[i], batch[i], context(i));
    }

    // Batch path first, then the sweep, on a fresh runner.
    core::CaseStudyRunner batch_first = make_runner(spec.c_str());
    std::vector<core::ScenarioResult> cold;
    for (const threat::ThreatScenario scenario : scenarios) {
      for (const scada::Configuration& config : configs) {
        cold.push_back(batch_first.run(config, scenario));
        EXPECT_FALSE(cold.back().from_cache) << spec;
      }
    }
    const core::ResumableAnalysis warm = batch_first.run_all_resumable(
        configs, scenario_list, runtime::CheckpointOptions{});
    EXPECT_EQ(warm.cached_cells, clean ? cells : 0u) << spec;
    EXPECT_EQ(warm.executed, clean ? 0u : kRealizations) << spec;
    ASSERT_EQ(warm.results.size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
      expect_same(cold[i], warm.results[i], context(i));
      expect_same_ledger(cold[i], warm.results[i], context(i));
      expect_same(sweep.results[i], warm.results[i], context(i));
    }

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

/// An engine over the paper's storms at sea-level offset `offset_m`.
surge::RealizationEngine offset_engine(double offset_m) {
  surge::RealizationConfig config;
  config.sea_level_offset_m = offset_m;
  return surge::RealizationEngine(terrain::make_oahu_terrain(),
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

void expect_bit_identical(const std::vector<surge::HurricaneRealization>& got,
                          const std::vector<surge::HurricaneRealization>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_bit_identical(got[i], want[i],
                         context + " [" + std::to_string(i) + "]");
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

/// Records through the memo bind bit-identically to engine.run over all
/// 1000 paper realizations, for every bind knob, at jobs 1 and 8, and with
/// an LRU small enough to evict records mid-sweep.
TEST(EnsembleMemoTest, MemoizedRealizationsBitIdenticalToRun) {
  std::vector<std::unique_ptr<const surge::RealizationEngine>> engines;
  for (const BindVariant& v : bind_variants()) {
    surge::RealizationConfig config;
    v.knob(config);
    engines.push_back(std::make_unique<const surge::RealizationEngine>(
        terrain::make_oahu_terrain(), scada::oahu_topology().exposed_assets(),
        config));
  }

  // Reference: engine.run for every realization, memo bypassed.
  runtime::EnsembleOptions reference_options = memo_options(8);
  reference_options.cache = false;
  runtime::EnsembleRunner reference_runner(reference_options);
  std::vector<std::vector<surge::HurricaneRealization>> reference;
  for (const auto& engine : engines) {
    reference.push_back(
        clean_batch(reference_runner, *engine, kPaperRealizations));
  }

  for (const unsigned jobs : {1u, 8u}) {
    runtime::EnsembleRunner runner(memo_options(jobs));
    // One paper realization registers the first bind digest, so the next
    // engine's sweep is the one that keeps the records.
    runner.generate_guarded(*engines[0], 1);
    for (std::size_t e = 1; e < engines.size(); ++e) {
      expect_bit_identical(clean_batch(runner, *engines[e], kPaperRealizations),
                           reference[e],
                           std::string(bind_variants()[e].name) + " jobs " +
                               std::to_string(jobs));
    }
    expect_bit_identical(clean_batch(runner, *engines[0], kPaperRealizations),
                         reference[0], "paper jobs " + std::to_string(jobs));
    const runtime::ResultStore::Stats stats = runner.cache_stats();
    EXPECT_EQ(stats.memo_stores, kPaperRealizations);
    EXPECT_EQ(stats.memo_hits,
              (engines.size() - 1) * kPaperRealizations);
  }

  // 100 entries against 1000 in-order realizations: every record is evicted
  // before the next engine asks for it again.
  runtime::EnsembleOptions small = memo_options(8);
  small.memory_entries = 100;
  runtime::EnsembleRunner evicting(small);
  evicting.generate_guarded(*engines[0], 1);
  for (const std::size_t e : {std::size_t{1}, std::size_t{4}}) {
    expect_bit_identical(clean_batch(evicting, *engines[e], kPaperRealizations),
                         reference[e],
                         std::string(bind_variants()[e].name) + " evicting");
  }
  EXPECT_EQ(evicting.cache_stats().memo_stores, 2 * kPaperRealizations);
}

/// CT_FAULT's throw, delay and nan rules act around the memo, so they
/// quarantine the same indices, and the survivors are the same bits, with
/// the memo on and off.
TEST(EnsembleMemoTest, FaultsQuarantineSameIndicesWithMemoOnAndOff) {
  const surge::RealizationEngine engines[] = {
      offset_engine(0.0), offset_engine(0.2), offset_engine(0.4)};
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
    for (const surge::RealizationEngine& engine : engines) {
      const runtime::GeneratedBatch want =
          memo_off.generate_guarded(engine, c.count);
      const runtime::GeneratedBatch got =
          memo_on.generate_guarded(engine, c.count);
      ASSERT_FALSE(want.complete()) << c.spec;
      ASSERT_EQ(got.ledger.failures.size(), want.ledger.failures.size())
          << c.spec;
      for (std::size_t i = 0; i < want.ledger.failures.size(); ++i) {
        EXPECT_EQ(got.ledger.failures[i].realization,
                  want.ledger.failures[i].realization)
            << c.spec;
        EXPECT_EQ(got.ledger.failures[i].code, want.ledger.failures[i].code)
            << c.spec;
        EXPECT_EQ(got.ledger.failures[i].attempts,
                  want.ledger.failures[i].attempts)
            << c.spec;
      }
      expect_bit_identical(got.realizations, want.realizations, c.spec);
    }
    EXPECT_GT(memo_on.cache_stats().memo_hits, 0u) << c.spec;
  }
}

/// The admission rule: a runner that only ever serves one bind digest (any
/// number of identical engines, every entry point) keeps no record.
TEST(EnsembleMemoTest, RunnerServingOneEngineStoresNoRecord) {
  runtime::EnsembleRunner runner(memo_options(4));
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  const surge::RealizationEngine twin = make_engine(kSeeds[0]);
  runner.digest_engine_batch(engine, kRealizations);
  runner.generate_guarded(engine, kRealizations);
  runner.generate_guarded(twin, kRealizations);
  runtime::SweepSpec spec;
  spec.digest = "memo-admission";
  spec.count = kRealizations;
  spec.series = {"only"};
  runner.run_resumable(
      twin, spec, [](std::size_t, const surge::HurricaneRealization&) {
        return 0;
      },
      runtime::CheckpointOptions{});
  const runtime::ResultStore::Stats stats = runner.cache_stats();
  EXPECT_EQ(stats.memo_lookups, 0u);
  EXPECT_EQ(stats.memo_stores, 0u);
}

/// Once two offsets have asked, a third runs the bind stage only: it adds
/// nothing to surge.node_steps and still matches engine.run bit for bit.
TEST(EnsembleMemoTest, ThirdEngineRunsNoStorm) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  runtime::EnsembleRunner runner(memo_options(4));
  runner.generate_guarded(offset_engine(0.0), kRealizations);
  runner.generate_guarded(offset_engine(0.2), kRealizations);
  EXPECT_EQ(runner.cache_stats().memo_stores, kRealizations);

  const surge::RealizationEngine third = offset_engine(0.4);
  const std::uint64_t before = node_steps.value();
  const std::vector<surge::HurricaneRealization> got =
      clean_batch(runner, third, kRealizations);
  EXPECT_EQ(node_steps.value() - before, 0u);
  EXPECT_EQ(runner.cache_stats().memo_hits, kRealizations);
  EXPECT_EQ(runner.cache_stats().memo_stores, kRealizations);
  expect_bit_identical(got, third.run_batch(kRealizations), "third engine");
}

/// options.cache = false (--no-cache) bypasses the memo: every engine runs
/// every storm stage.
TEST(EnsembleMemoTest, NoCacheRunsEveryStormStage) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  runtime::EnsembleOptions options = memo_options(4);
  options.cache = false;
  runtime::EnsembleRunner runner(options);
  std::vector<std::uint64_t> steps;
  for (const double offset : {0.0, 0.2, 0.4}) {
    const std::uint64_t before = node_steps.value();
    runner.generate_guarded(offset_engine(offset), kRealizations);
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
