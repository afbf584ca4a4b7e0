#include "surge/realization.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace ct::surge {

namespace {

/// Envelope work of the hot path: node-steps in range, node-steps the
/// pruned kernel actually evaluated, and the tile bounds it built.
struct SurgeMetrics {
  obs::Counter node_steps{"surge.node_steps"};
  obs::Counter node_evals{"surge.node_evals"};
  obs::Counter tile_bounds{"surge.tile_bounds"};
};

SurgeMetrics& surge_metrics() {
  static SurgeMetrics m;
  return m;
}

}  // namespace

const AssetImpact* HurricaneRealization::find_impact(
    const std::string& id) const {
  if (asset_index) {
    const auto it = asset_index->find(id);
    if (it != asset_index->end()) {
      const std::size_t pos = it->second;
      // Verify before trusting: user code may hold a filtered/reordered
      // impacts vector next to the engine's index. Fall through to the
      // scan on any mismatch.
      if (pos < impacts.size() && impacts[pos].asset_id == id) {
        return &impacts[pos];
      }
    } else {
      // The index covers every engine asset, but only trust a miss when
      // the impacts list still matches the engine's asset count.
      if (impacts.size() == asset_index->size()) return nullptr;
    }
  }
  for (const AssetImpact& impact : impacts) {
    if (impact.asset_id == id) return &impact;
  }
  return nullptr;
}

bool HurricaneRealization::asset_failed(const std::string& id) const {
  const AssetImpact* impact = find_impact(id);
  return impact != nullptr && impact->failed;
}

double HurricaneRealization::asset_depth(const std::string& id) const {
  const AssetImpact* impact = find_impact(id);
  return impact != nullptr ? impact->inundation_depth_m : 0.0;
}

bool HurricaneRealization::asset_wind_failed(const std::string& id) const {
  const AssetImpact* impact = find_impact(id);
  return impact != nullptr && impact->wind_failed;
}

std::size_t HurricaneRealization::wind_damage_count() const {
  std::size_t count = 0;
  for (const AssetImpact& impact : impacts) {
    if (impact.wind_failed) ++count;
  }
  return count;
}

namespace {
const terrain::Terrain& require_terrain(
    const std::shared_ptr<const terrain::Terrain>& terrain) {
  if (!terrain) throw std::invalid_argument("RealizationEngine: null terrain");
  return *terrain;
}

/// Maximum of `values` with a fused finiteness check. A plain max_element
/// can silently SKIP a NaN (NaN comparisons are false both ways), so the
/// guard must ride the same scan. Bit-identical to max_element on finite
/// data. Returns 0 for an empty vector.
double guarded_max(const std::vector<double>& values, std::uint64_t index,
                   std::uint64_t base_seed) {
  double max = 0.0;
  bool first = true;
  for (const double v : values) {
    if (!std::isfinite(v)) {
      throw util::Error(util::ErrorCode::kNumeric, "surge",
                        "non-finite shoreline WSE", index, base_seed);
    }
    if (first || v > max) {
      max = v;
      first = false;
    }
  }
  return max;
}
}  // namespace

void validate_realization(const HurricaneRealization& realization,
                          std::uint64_t base_seed) {
  const auto fail = [&](const char* what) {
    throw util::Error(util::ErrorCode::kNumeric, "surge", what,
                      realization.index, base_seed);
  };
  if (!std::isfinite(realization.peak_wind_ms)) {
    fail("non-finite peak surface wind");
  }
  if (!std::isfinite(realization.max_shoreline_wse_m)) {
    fail("non-finite max shoreline WSE");
  }
  for (const AssetImpact& impact : realization.impacts) {
    if (!std::isfinite(impact.inundation_depth_m) ||
        !std::isfinite(impact.peak_wind_ms)) {
      fail("non-finite asset impact");
    }
  }
}

RealizationEngine::RealizationEngine(
    std::shared_ptr<const terrain::Terrain> terrain,
    std::vector<ExposedAsset> assets, RealizationConfig config)
    : terrain_(std::move(terrain)), assets_(std::move(assets)),
      config_(config),
      cm_(mesh::build_coastal_mesh(require_terrain(terrain_), config_.mesh)),
      generator_(config_.ensemble), solver_(config_.surge),
      mapper_(cm_, terrain_->projection(), config_.inundation),
      bindings_(cm_, terrain_->projection(), config_.surge, mapper_, assets_,
                config_.smoothing_band_m, config_.smoothing_passes) {
  if (config_.harbor.enabled) {
    sheltered_ = sheltered_stations(cm_, *terrain_, config_.harbor);
    harbor_sources_ = harbor_source_map(cm_, sheltered_);
  } else {
    sheltered_.assign(cm_.stations.size(), false);
    harbor_sources_.resize(cm_.stations.size());
    for (std::size_t i = 0; i < harbor_sources_.size(); ++i) {
      harbor_sources_[i] = i;
    }
  }
  CT_LOG(kInfo, "surge") << "coastal mesh: " << cm_.mesh.node_count()
                         << " nodes, " << cm_.mesh.element_count()
                         << " elements, " << cm_.stations.size()
                         << " shoreline stations, "
                         << bindings_.active_nodes().size()
                         << " active surge nodes";
}

void RealizationEngine::apply_wind_fragility(const storm::StormTrack& track,
                                             std::uint64_t index,
                                             HurricaneRealization& out) const {
  const geo::EnuProjection& proj = terrain_->projection();
  const storm::HollandWindField wind_field(config_.surge.wind_options);
  util::Rng rng =
      util::Rng(config_.base_seed, "wind-damage").child("realization", index);
  for (std::size_t a = 0; a < assets_.size(); ++a) {
    AssetImpact& impact = out.impacts[a];
    impact.peak_wind_ms =
        peak_wind_at(track, proj, proj.to_enu(assets_[a].location),
                     wind_field, config_.fragility.scan_dt_s);
    const FragilityCurve* curve = nullptr;
    switch (assets_[a].exposure_class) {
      case ExposureClass::kFacility: break;  // wind-hardened building
      case ExposureClass::kPowerPlant:
        curve = &config_.fragility.power_plant;
        break;
      case ExposureClass::kSubstation:
        curve = &config_.fragility.substation;
        break;
    }
    if (curve != nullptr) {
      impact.wind_failed =
          rng.bernoulli(damage_probability(*curve, impact.peak_wind_ms));
    }
  }
}

HurricaneRealization RealizationEngine::run(std::uint64_t index) const {
  // One scratch per worker thread: TaskPool workers, run_batch_parallel
  // threads, and the caller's own thread each reuse their own buffers.
  thread_local RealizationScratch scratch;
  return run(index, scratch);
}

HurricaneRealization RealizationEngine::run(std::uint64_t index,
                                            RealizationScratch& scratch) const {
  const storm::StormTrack track =
      generator_.generate(config_.base_seed, index);
  const geo::EnuProjection& proj = terrain_->projection();

  const EnvelopeWork work =
      bindings_.accumulate_envelope(track, proj, scratch.envelope);
  SurgeMetrics& metrics = surge_metrics();
  metrics.node_steps.inc(work.node_steps);
  metrics.node_evals.inc(work.node_evals);
  metrics.tile_bounds.inc(work.tile_bounds);
  mesh::shoreline_average_and_extend(cm_, bindings_.shoreline_plan(),
                                     scratch.envelope, scratch.field_scratch);
  mesh::shoreline_values(cm_, scratch.envelope, scratch.shore_wse);
  alongshore_average(scratch.shore_wse, sheltered_, config_.alongshore_window,
                     scratch.station_snapshot);
  if (config_.sea_level_offset_m != 0.0) {
    for (double& wse : scratch.shore_wse) wse += config_.sea_level_offset_m;
  }
  if (config_.harbor.enabled) {
    apply_harbor_transfer(scratch.shore_wse, sheltered_, harbor_sources_,
                          config_.harbor.amplification,
                          scratch.station_snapshot);
  }

  HurricaneRealization out;
  out.index = index;
  bindings_.impacts_into(scratch.shore_wse, out.impacts);
  out.asset_index = bindings_.asset_index();
  out.peak_wind_ms = track.peak_surface_wind_ms();

  // Optional wind-fragility stage (extension; see fragility.h).
  if (config_.fragility.enabled) {
    apply_wind_fragility(track, index, out);
  }
  out.max_shoreline_wse_m =
      guarded_max(scratch.shore_wse, index, config_.base_seed);
  validate_realization(out, config_.base_seed);
  return out;
}

HurricaneRealization RealizationEngine::run_reference(
    std::uint64_t index) const {
  const storm::StormTrack track =
      generator_.generate(config_.base_seed, index);
  const geo::EnuProjection& proj = terrain_->projection();

  mesh::NodeField envelope = solver_.max_envelope(cm_, track, proj);
  envelope = mesh::shoreline_average_and_extend(
      cm_, envelope, config_.smoothing_band_m, config_.smoothing_passes);
  std::vector<double> shore_wse = mesh::shoreline_values(cm_, envelope);
  alongshore_average(shore_wse, sheltered_, config_.alongshore_window);
  if (config_.sea_level_offset_m != 0.0) {
    for (double& wse : shore_wse) wse += config_.sea_level_offset_m;
  }
  if (config_.harbor.enabled) {
    apply_harbor_transfer(shore_wse, sheltered_, harbor_sources_,
                          config_.harbor.amplification);
  }

  HurricaneRealization out;
  out.index = index;
  out.impacts = mapper_.impacts(assets_, shore_wse);
  out.asset_index = bindings_.asset_index();
  out.peak_wind_ms = track.peak_surface_wind_ms();

  if (config_.fragility.enabled) {
    apply_wind_fragility(track, index, out);
  }
  out.max_shoreline_wse_m = guarded_max(shore_wse, index, config_.base_seed);
  validate_realization(out, config_.base_seed);
  return out;
}

std::vector<HurricaneRealization> RealizationEngine::run_batch(
    std::size_t count) const {
  std::vector<HurricaneRealization> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(run(static_cast<std::uint64_t>(i)));
  }
  return out;
}

std::vector<HurricaneRealization> RealizationEngine::run_batch_parallel(
    std::size_t count, unsigned threads) const {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads <= 1 || count < 2) return run_batch(count);
  threads = std::min<unsigned>(threads, static_cast<unsigned>(count));

  std::vector<HurricaneRealization> out(count);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    RealizationScratch scratch;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      out[i] = run(static_cast<std::uint64_t>(i), scratch);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace ct::surge
