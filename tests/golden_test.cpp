// Golden outputs: what the analysis commands print, pinned by digest.
//
// Each output below runs at 1000 realizations through
// service::execute_request, the one code path behind both `ctctl` and
// `ctserved`, on one shared runtime (in-memory cache, no faults, no crash
// points). The digest covers the printed report and the exit code, not
// the cache-stats line. Printed percentages cannot see a last-bit change
// in the surge (a reordered smoothing sum, say), so one more entry,
// `realizations`, pins every double of the 1000 realizations the outputs
// are computed from. That entry is the one a different libm could move.
//
// golden_outputs.txt holds one `name digest` line per entry. On a
// mismatch the test prints the output's text and writes every actual line
// to golden_outputs.actual in the working directory; to regenerate, copy
// that file over tests/golden_outputs.txt and say in CHANGES.md which
// output changed and why.
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/ensemble_runner.h"
#include "service/exec.h"
#include "surge/realization.h"
#include "util/digest.h"

namespace ct {
namespace {

unsigned test_jobs() {
  if (const char* env = std::getenv("CT_TEST_JOBS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 4;
}

struct Golden {
  std::string name;
  service::Request request;
};

/// The pinned outputs, in run order: analyze at the defaults (Figs. 6-9),
/// with Kahe as backup (Figs. 10-11) and at +0.4 m sea level; downtime;
/// backup siting.
std::vector<Golden> goldens() {
  service::Request analyze;
  analyze.kind = service::RequestKind::kAnalyze;
  analyze.realizations = 1000;
  service::Request kahe = analyze;
  kahe.backup = "kahe_cc";
  service::Request slr = analyze;
  slr.sea_level_offset_m = 0.4;
  service::Request downtime = analyze;
  downtime.kind = service::RequestKind::kDowntime;
  service::Request siting = analyze;
  siting.kind = service::RequestKind::kSiting;
  return {{"analyze", analyze},
          {"analyze_backup_kahe_cc", kahe},
          {"analyze_slr_0.4", slr},
          {"downtime", downtime},
          {"siting", siting}};
}

/// Digest of every field of every realization, doubles as their bits.
std::string realizations_digest(
    const std::vector<surge::HurricaneRealization>& batch) {
  util::Digest d;
  for (const surge::HurricaneRealization& r : batch) {
    d.u64(r.index).f64(r.peak_wind_ms).f64(r.max_shoreline_wse_m);
    for (const surge::AssetImpact& a : r.impacts) {
      d.str(a.asset_id).u64(a.shoreline_station).f64(a.shoreline_wse_m);
      d.f64(a.water_level_m).f64(a.inundation_depth_m).boolean(a.failed);
      d.f64(a.peak_wind_ms).boolean(a.wind_failed);
    }
  }
  return d.hex();
}

TEST(Golden, CommandOutputsMatchCommittedDigests) {
  std::map<std::string, std::string> want;
  std::ifstream committed(CT_GOLDEN_FILE);
  for (std::string name, digest; committed >> name >> digest;) {
    want[name] = digest;
  }

  core::CaseStudyOptions defaults;
  defaults.runtime.jobs = test_jobs();
  defaults.runtime.fault_spec = "none";
  runtime::EnsembleRunner shared(defaults.runtime);
  runtime::CheckpointOptions ckpt;
  ckpt.crash_spec = "none";

  std::ostringstream actual;
  const auto check = [&](const std::string& name, const std::string& digest,
                         const std::string& what) {
    actual << name << ' ' << digest << '\n';
    const auto it = want.find(name);
    EXPECT_TRUE(it != want.end() && it->second == digest)
        << name << " changed: " << what;
  };

  // Requests with one session key share a case study, as on the server.
  std::map<std::string, std::unique_ptr<core::CaseStudyRunner>> sessions;
  for (const Golden& golden : goldens()) {
    auto& session = sessions[service::session_key(golden.request, defaults)];
    if (!session) {
      session = service::make_case_study(golden.request, defaults, &shared);
    }
    const service::ExecOutcome out =
        service::execute_request(golden.request, *session, ckpt);
    util::Digest d;
    d.str(out.output).i64(out.exit_code);
    check(golden.name, d.hex(),
          "exit code " + std::to_string(out.exit_code) + ", it printed:\n" +
              out.output);
  }
  // The default session's realizations, run on the shared pool.
  const core::CaseStudyRunner& session =
      *sessions[service::session_key(goldens().front().request, defaults)];
  std::vector<surge::HurricaneRealization> batch(
      session.options().realizations);
  shared.pool().parallel_for_each(batch.size(), 1, [&](std::size_t i) {
    batch[i] = session.engine().run(i);
  });
  check("realizations", realizations_digest(batch),
        "a bit of the realizations the outputs are computed from moved");
  if (HasFailure()) {
    std::ofstream("golden_outputs.actual") << actual.str();
    ADD_FAILURE() << "actual digests written to golden_outputs.actual";
  }
}

}  // namespace
}  // namespace ct
