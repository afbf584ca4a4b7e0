#include "surge/realization.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/digest.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace ct::surge {

namespace {

/// Envelope work of the hot path (node-steps in range, node-steps the
/// pruned kernel actually evaluated, and the tile bounds it built) and the
/// storm stages built, shared or private.
struct SurgeMetrics {
  obs::Counter node_steps{"surge.node_steps"};
  obs::Counter node_evals{"surge.node_evals"};
  obs::Counter tile_bounds{"surge.tile_bounds"};
  obs::Counter stage_builds{"surge.stage_builds"};
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
  if (!terrain) throw std::invalid_argument("StormStage: null terrain");
  return *terrain;
}

std::shared_ptr<const StormStage> require_stage(
    std::shared_ptr<const StormStage> stage) {
  if (!stage) throw std::invalid_argument("RealizationEngine: null stage");
  return stage;
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

/// One scratch per worker thread: TaskPool workers and the caller's own
/// thread each reuse their own buffers.
RealizationScratch& thread_scratch() {
  thread_local RealizationScratch scratch;
  return scratch;
}

// The partition of RealizationConfig's 50 fields between the two stages.
// A field the storm stage reads goes in the storm digest; a field only the
// bind stage reads goes in the bind digest. A field added to any of these
// structs belongs in exactly one of the two functions (and in
// fastpath_test's kConfigKnobs) — a missed field would let a cached result
// or a shoreline record answer for the OLD semantics.

/// The 40 storm-side fields.
void digest_storm_fields(util::Digest& d, const RealizationConfig& c) {
  d.f64(c.mesh.shore_spacing_m)
      .f64(c.mesh.cross_shore_spacing_m)
      .f64(c.mesh.offshore_extent_m)
      .f64(c.mesh.inland_extent_m);
  d.f64(c.surge.dt_s)
      .f64(c.surge.wind_setup_scale_m)
      .f64(c.surge.wind_setup_exponent)
      .f64(c.surge.wave_setup_per_ms)
      .f64(c.surge.min_depth_m)
      .f64(c.surge.max_considered_distance_m)
      .f64(c.surge.wind_options.surface_wind_factor)
      .f64(c.surge.wind_options.inflow_angle_deg)
      .f64(c.surge.wind_options.translation_fraction);
  const storm::TrackEnsembleConfig& e = c.ensemble;
  d.f64(e.base_aim.lat_deg)
      .f64(e.base_aim.lon_deg)
      .f64(e.base_heading_deg)
      .f64(e.approach_distance_m)
      .f64(e.departure_distance_m)
      .f64(e.forward_speed_ms)
      .f64(e.forward_speed_jitter_ms)
      .f64(e.cross_track_sigma_m)
      .f64(e.heading_sigma_deg)
      .f64(e.pressure_deficit_pa)
      .f64(e.pressure_deficit_sigma_pa)
      .f64(e.rmax_m)
      .f64(e.rmax_sigma_m)
      .f64(e.rmax_min_m)
      .f64(e.rmax_max_m)
      .f64(e.holland_b)
      .f64(e.holland_b_sigma)
      .f64(e.fix_interval_s)
      .f64(e.ambient_pressure_pa);
  // The shelter mask feeds the alongshore average; the amplification is
  // the bind stage's.
  d.boolean(c.harbor.enabled)
      .f64(c.harbor.ray_length_m)
      .f64(c.harbor.ray_step_m)
      .f64(c.harbor.ray_clearance_m);
  d.f64(c.smoothing_band_m)
      .i64(c.smoothing_passes)
      .i64(c.alongshore_window)
      .u64(c.base_seed);
}

/// The 10 bind-side fields.
void digest_bind_fields(util::Digest& d, const RealizationConfig& c) {
  d.f64(c.sea_level_offset_m).f64(c.harbor.amplification);
  d.f64(c.inundation.decay_length_m).f64(c.inundation.failure_threshold_m);
  d.boolean(c.fragility.enabled)
      .f64(c.fragility.substation.median_wind_ms)
      .f64(c.fragility.substation.beta)
      .f64(c.fragility.power_plant.median_wind_ms)
      .f64(c.fragility.power_plant.beta)
      .f64(c.fragility.scan_dt_s);
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

util::Digest storm_stage_key(const terrain::Terrain& terrain,
                             const RealizationConfig& config) {
  util::Digest d;
  d.str("ct-storm-stage");
  digest_storm_fields(d, config);
  terrain::digest_terrain(terrain, d);
  return d;
}

StormStage::StormStage(std::shared_ptr<const terrain::Terrain> terrain,
                       const RealizationConfig& config)
    : terrain_(std::move(terrain)), config_(config),
      cm_(mesh::build_coastal_mesh(require_terrain(terrain_), config_.mesh)),
      generator_(config_.ensemble), solver_(config_.surge),
      envelope_(cm_, config_.surge, config_.smoothing_band_m,
                config_.smoothing_passes) {
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
  surge_metrics().stage_builds.inc();
  CT_LOG(kInfo, "surge") << "coastal mesh: " << cm_.mesh.node_count()
                         << " nodes, " << cm_.mesh.element_count()
                         << " elements, " << cm_.stations.size()
                         << " shoreline stations, "
                         << envelope_.active_nodes().size()
                         << " active surge nodes";
}

const std::string& StormStage::key() const {
  digest();  // computes both
  return key_;
}

const std::string& StormStage::digest() const {
  std::call_once(digest_once_, [this] {
    util::Digest d = storm_stage_key(*terrain_, config_);
    key_ = d.hex();
    envelope_.digest_envelope_into(d);
    digest_ = d.hex();
  });
  return digest_;
}

RealizationEngine::RealizationEngine(
    std::shared_ptr<const terrain::Terrain> terrain,
    std::vector<ExposedAsset> assets, RealizationConfig config)
    : RealizationEngine(
          std::make_shared<const StormStage>(std::move(terrain), config),
          std::move(assets), config) {}

RealizationEngine::RealizationEngine(std::shared_ptr<const StormStage> stage,
                                     std::vector<ExposedAsset> assets,
                                     RealizationConfig config)
    : stage_(require_stage(std::move(stage))), assets_(std::move(assets)),
      config_(config),
      mapper_(stage_->coastal_mesh(), stage_->terrain().projection(),
              config_.inundation),
      bindings_(std::shared_ptr<const EnvelopeBindings>(
                    stage_, &stage_->envelope()),
                stage_->terrain().projection(), mapper_, assets_) {}

void RealizationEngine::apply_wind_fragility(const storm::StormTrack& track,
                                             std::uint64_t index,
                                             HurricaneRealization& out) const {
  const geo::EnuProjection& proj = stage_->terrain().projection();
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
  return run(index, thread_scratch());
}

HurricaneRealization RealizationEngine::run(std::uint64_t index,
                                            RealizationScratch& scratch) const {
  const double peak_wind_ms = storm_into(index, scratch);
  return bind_in_place(index, peak_wind_ms, scratch);
}

ShorelineRecord RealizationEngine::storm(std::uint64_t index) const {
  RealizationScratch& scratch = thread_scratch();
  ShorelineRecord record;
  record.peak_wind_ms = storm_into(index, scratch);
  record.station_wse_m = scratch.shore_wse;
  return record;
}

HurricaneRealization RealizationEngine::bind(
    std::uint64_t index, const ShorelineRecord& record) const {
  if (record.station_wse_m.size() != stage_->coastal_mesh().stations.size()) {
    throw std::invalid_argument(
        "RealizationEngine::bind: record/station size mismatch");
  }
  RealizationScratch& scratch = thread_scratch();
  scratch.shore_wse.assign(record.station_wse_m.begin(),
                           record.station_wse_m.end());
  return bind_in_place(index, record.peak_wind_ms, scratch);
}

double RealizationEngine::storm_into(std::uint64_t index,
                                     RealizationScratch& scratch) const {
  const StormStage& stage = *stage_;
  const storm::StormTrack track =
      stage.generator().generate(config_.base_seed, index);
  const geo::EnuProjection& proj = stage.terrain().projection();

  const EnvelopeWork work =
      stage.envelope().accumulate_envelope(track, proj, scratch.envelope);
  SurgeMetrics& metrics = surge_metrics();
  metrics.node_steps.inc(work.node_steps);
  metrics.node_evals.inc(work.node_evals);
  metrics.tile_bounds.inc(work.tile_bounds);
  const mesh::CoastalMesh& cm = stage.coastal_mesh();
  mesh::shoreline_average_and_extend(cm, stage.envelope().shoreline_plan(),
                                     scratch.envelope, scratch.field_scratch);
  mesh::shoreline_values(cm, scratch.envelope, scratch.shore_wse);
  alongshore_average(scratch.shore_wse, stage.sheltered(),
                     config_.alongshore_window, scratch.station_snapshot);
  return track.peak_surface_wind_ms();
}

HurricaneRealization RealizationEngine::bind_in_place(
    std::uint64_t index, double peak_wind_ms,
    RealizationScratch& scratch) const {
  if (config_.sea_level_offset_m != 0.0) {
    for (double& wse : scratch.shore_wse) wse += config_.sea_level_offset_m;
  }
  if (config_.harbor.enabled) {
    apply_harbor_transfer(scratch.shore_wse, stage_->sheltered(),
                          stage_->harbor_sources(),
                          config_.harbor.amplification,
                          scratch.station_snapshot);
  }

  HurricaneRealization out;
  out.index = index;
  bindings_.impacts_into(scratch.shore_wse, out.impacts);
  out.asset_index = bindings_.asset_index();
  out.peak_wind_ms = peak_wind_ms;

  // Optional wind-fragility stage (extension; see fragility.h). The track
  // is a pure function of (base_seed, index), so redrawing it here gives
  // the storm stage's track.
  if (config_.fragility.enabled) {
    apply_wind_fragility(
        stage_->generator().generate(config_.base_seed, index), index, out);
  }
  out.max_shoreline_wse_m =
      guarded_max(scratch.shore_wse, index, config_.base_seed);
  validate_realization(out, config_.base_seed);
  return out;
}

const std::string& RealizationEngine::bind_digest() const {
  std::call_once(bind_once_, [this] {
    util::Digest bind;
    bind.str("ct-bind-stage");
    digest_bind_fields(bind, config_);
    bind.u64(assets_.size());
    for (const ExposedAsset& a : assets_) {
      bind.str(a.id)
          .f64(a.location.lat_deg)
          .f64(a.location.lon_deg)
          .f64(a.ground_elevation_m)
          .i64(static_cast<int>(a.exposure_class));
    }
    bind_digest_ = bind.hex();
  });
  return bind_digest_;
}

HurricaneRealization RealizationEngine::run_reference(
    std::uint64_t index) const {
  const StormStage& stage = *stage_;
  const storm::StormTrack track =
      stage.generator().generate(config_.base_seed, index);
  const geo::EnuProjection& proj = stage.terrain().projection();

  const mesh::CoastalMesh& cm = stage.coastal_mesh();
  mesh::NodeField envelope = stage.solver().max_envelope(cm, track, proj);
  envelope = mesh::shoreline_average_and_extend(
      cm, envelope, config_.smoothing_band_m, config_.smoothing_passes);
  std::vector<double> shore_wse = mesh::shoreline_values(cm, envelope);
  alongshore_average(shore_wse, stage.sheltered(), config_.alongshore_window);
  if (config_.sea_level_offset_m != 0.0) {
    for (double& wse : shore_wse) wse += config_.sea_level_offset_m;
  }
  if (config_.harbor.enabled) {
    apply_harbor_transfer(shore_wse, stage.sheltered(), stage.harbor_sources(),
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

}  // namespace ct::surge
