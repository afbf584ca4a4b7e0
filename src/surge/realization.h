// Hurricane realization engine: the paper's natural-disaster input stage.
// Each realization draws one storm from the CAT-2 ensemble, runs the surge
// solver over the coastal mesh, applies the shoreline averaging/extension
// post-processing, and records per-asset peak inundation. 1000 realizations
// form the natural-disaster input to the compound-threat framework.
//
// Two execution paths produce bit-identical results (tests/fastpath_test):
//  - run(): the hot path over the MeshBindings precompute — per-step storm
//    kernel, pruned active-node envelope, in-place smoothing, reusable
//    scratch.
//  - run_reference(): the original allocating pipeline, kept as the oracle.
//
// run() is two stages (DESIGN.md §10). The storm stage (track, envelope,
// smoothing, alongshore average) yields a ShorelineRecord that depends only
// on the fields storm_digest() covers; the bind stage (sea-level offset,
// harbor transfer, asset impacts, wind fragility) reads only the record and
// the fields bind_digest() covers. run(i) is bind(i, storm(i)) bit for bit,
// which is what lets the ensemble runtime reuse one storm across engines
// that differ only in bind knobs. The inputs split the same way: a
// StormStage holds what the storm stage reads (mesh, generator, envelope
// precompute, harbor shelter mask), the engine what the bind stage adds, so
// engines that differ only in bind knobs can share one StormStage object.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mesh/coastal_builder.h"
#include "mesh/field.h"
#include "storm/generator.h"
#include "surge/fragility.h"
#include "surge/harbor.h"
#include "surge/inundation.h"
#include "surge/mesh_bindings.h"
#include "surge/surge_model.h"
#include "terrain/terrain.h"
#include "util/digest.h"

namespace ct::surge {

/// Everything that parameterizes the realization pipeline.
struct RealizationConfig {
  mesh::CoastalMeshConfig mesh;
  SurgeConfig surge;
  InundationConfig inundation;
  storm::TrackEnsembleConfig ensemble;
  HarborConfig harbor;
  /// Wind damage to grid assets (extension, default off — see fragility.h).
  WindFragilityConfig fragility;
  /// Shoreline smoothing band and passes (paper §V-A averaging step).
  double smoothing_band_m = 2500.0;
  int smoothing_passes = 2;
  /// Along-shore moving-average half-window in stations (the second part
  /// of the paper's shoreline averaging; 8 stations ~ 16 km).
  int alongshore_window = 8;
  /// Constant water-level offset (m) added to every shoreline station:
  /// models sea-level rise (planning studies) or astronomical tide phase.
  double sea_level_offset_m = 0.0;
  /// Base seed of the whole experiment; realization i is a pure function
  /// of (base_seed, i).
  std::uint64_t base_seed = 20220627;  // DSN-W 2022 date
};

/// One hurricane realization's outcome.
struct HurricaneRealization {
  std::uint64_t index = 0;
  /// Impacts in the same order as the engine's asset list.
  std::vector<AssetImpact> impacts;
  /// Peak surface wind of the drawn storm (m/s).
  double peak_wind_ms = 0.0;
  /// Maximum smoothed shoreline WSE anywhere on the island (m).
  double max_shoreline_wse_m = 0.0;
  /// Shared id -> impacts-position map attached by the engine; lookups
  /// fall back to a linear scan when absent (e.g. cache-deserialized or
  /// hand-built realizations).
  std::shared_ptr<const AssetIndex> asset_index;

  /// True if the asset with this id failed by FLOODING (the paper's
  /// failure mode). O(1) via asset_index when attached, O(n) otherwise.
  bool asset_failed(const std::string& id) const;
  /// Inundation depth for this asset id (0 when absent).
  double asset_depth(const std::string& id) const;
  /// True if the asset failed by wind damage (extension; false when the
  /// fragility stage is disabled).
  bool asset_wind_failed(const std::string& id) const;
  /// Count of wind-damaged assets in this realization.
  std::size_t wind_damage_count() const;

 private:
  /// Impact for `id`, or nullptr when absent.
  const AssetImpact* find_impact(const std::string& id) const;
};

/// Output of the storm stage for one realization: the alongshore-averaged
/// shoreline WSE at every station (before any sea-level offset or harbor
/// transfer) and the storm's peak surface wind.
struct ShorelineRecord {
  std::vector<double> station_wse_m;
  double peak_wind_ms = 0.0;
};

/// Per-worker reusable buffers for the realization hot path. One instance
/// per thread (run() keeps a thread_local one); after the first realization
/// the steady state allocates nothing but the output impact strings.
struct RealizationScratch {
  mesh::NodeField envelope;
  mesh::NodeField field_scratch;
  std::vector<double> shore_wse;
  std::vector<double> station_snapshot;
};

/// Validates a realization's numeric outputs: throws ct::Error{kNumeric}
/// (with realization/seed provenance) when the peak wind, shoreline WSE,
/// or any asset depth is NaN/Inf. The engine calls this on both execution
/// paths so a numerically exploded realization fails ITSELF — a typed,
/// quarantinable error — instead of leaking poisoned values into the
/// outcome distribution. The ensemble runtime also re-validates after
/// fault injection (RuntimeFaultProfile nan rule).
void validate_realization(const HurricaneRealization& realization,
                          std::uint64_t base_seed);

/// The storm stage's key as a digest in progress: "ct-storm-stage", the 40
/// storm-side RealizationConfig fields and the terrain. Two (terrain,
/// config) pairs with equal keys build equal stages, bit for bit; the
/// stage's digest() is the key finished with its envelope precompute.
util::Digest storm_stage_key(const terrain::Terrain& terrain,
                             const RealizationConfig& config);

/// The storm side of the pipeline: everything the storm stage reads, built
/// once from the terrain and the 40 storm-side fields of a config — the
/// coastal mesh, the track generator, the surge solver, the envelope half
/// of the precompute and the harbor shelter mask and sources. Immutable
/// once built, so any number of engines that differ only in bind-side
/// knobs share one (EnsembleRunner::storm_stage hands them out).
class StormStage {
 public:
  /// Builds the stage. Only `config`'s storm-side fields are read.
  StormStage(std::shared_ptr<const terrain::Terrain> terrain,
             const RealizationConfig& config);
  StormStage(const StormStage&) = delete;
  StormStage& operator=(const StormStage&) = delete;

  const terrain::Terrain& terrain() const noexcept { return *terrain_; }
  const mesh::CoastalMesh& coastal_mesh() const noexcept { return cm_; }
  const storm::TrackGenerator& generator() const noexcept {
    return generator_;
  }
  const SurgeSolver& solver() const noexcept { return solver_; }
  const EnvelopeBindings& envelope() const noexcept { return envelope_; }
  /// Shelter classification of shoreline stations (harbor treatment).
  const std::vector<bool>& sheltered() const noexcept { return sheltered_; }
  /// Per station, the station it inherits from (identity unless sheltered).
  const std::vector<std::size_t>& harbor_sources() const noexcept {
    return harbor_sources_;
  }

  /// Hex of storm_stage_key: the stage's registry key. Computed once, on
  /// first use, with digest().
  const std::string& key() const;
  /// Digest of everything the storm stage reads: the key plus the envelope
  /// precompute. Computed once, on first use.
  const std::string& digest() const;

 private:
  std::shared_ptr<const terrain::Terrain> terrain_;
  /// The config the stage was built from; only its storm-side fields (the
  /// digest's) are read.
  RealizationConfig config_;
  mesh::CoastalMesh cm_;
  storm::TrackGenerator generator_;
  SurgeSolver solver_;
  EnvelopeBindings envelope_;
  std::vector<bool> sheltered_;
  std::vector<std::size_t> harbor_sources_;
  mutable std::once_flag digest_once_;
  mutable std::string key_;
  mutable std::string digest_;
};

/// Deterministic Monte-Carlo engine: a storm stage (shared or private) and
/// its own bind side — the inundation mapper, the asset stencils and index,
/// and the bind digest. Construct once, then run realizations on demand.
/// Thread-compatible: `run` is const and all shared state is read-only, so
/// realizations may be computed concurrently.
class RealizationEngine {
 public:
  /// Builds a private storm stage for `config`, then the bind side.
  RealizationEngine(std::shared_ptr<const terrain::Terrain> terrain,
                    std::vector<ExposedAsset> assets,
                    RealizationConfig config = {});
  /// Binds `assets` over `stage`, which must have been built for
  /// `config`'s storm side (equal storm_stage_key).
  RealizationEngine(std::shared_ptr<const StormStage> stage,
                    std::vector<ExposedAsset> assets,
                    RealizationConfig config);

  /// Runs realization `index` (deterministic in (config.base_seed, index))
  /// on the hot path, reusing a thread-local scratch. Bit-identical to
  /// run_reference.
  HurricaneRealization run(std::uint64_t index) const;

  /// Hot path with caller-owned scratch (for callers managing worker
  /// lifetimes themselves).
  HurricaneRealization run(std::uint64_t index,
                           RealizationScratch& scratch) const;

  /// Storm stage of realization `index`: everything up to and including
  /// the alongshore average.
  ShorelineRecord storm(std::uint64_t index) const;

  /// Bind stage of realization `index` over `record`, which must come from
  /// storm(index) of an engine with this engine's storm_digest().
  /// bind(i, storm(i)) is bit-identical to run(i).
  HurricaneRealization bind(std::uint64_t index,
                            const ShorelineRecord& record) const;

  /// The storm stage's digest (StormStage::digest): the terrain, the
  /// envelope-side precompute and the 40 storm-side RealizationConfig
  /// fields (mesh, surge, ensemble, harbor shelter detection, smoothing,
  /// alongshore window, base seed).
  const std::string& storm_digest() const { return stage_->digest(); }
  /// Digest of what the bind stage adds: the 10 bind-side fields (sea-level
  /// offset, harbor amplification, inundation, fragility) and the asset
  /// list. Computed once, on first use. storm_digest() and bind_digest()
  /// together identify every output of run(); the asset stencils derive
  /// from both (mesh and assets), so the engine-batch key mixes them in
  /// beside the two.
  const std::string& bind_digest() const;

  /// The original allocating pipeline, kept as the equivalence oracle and
  /// for apples-to-apples benchmarking: fastpath_test compares run() with
  /// it bit for bit.
  HurricaneRealization run_reference(std::uint64_t index) const;

  /// Runs realizations [0, count) serially: the reference tests compare
  /// the runtime's mask sweep with (benches and examples use it for small
  /// batches).
  std::vector<HurricaneRealization> run_batch(std::size_t count) const;

  const StormStage& stage() const noexcept { return *stage_; }
  const std::vector<ExposedAsset>& assets() const noexcept { return assets_; }
  const mesh::CoastalMesh& coastal_mesh() const noexcept {
    return stage_->coastal_mesh();
  }
  const RealizationConfig& config() const noexcept { return config_; }
  const terrain::Terrain& terrain() const noexcept {
    return stage_->terrain();
  }
  /// Shelter classification of shoreline stations (harbor treatment).
  const std::vector<bool>& sheltered() const noexcept {
    return stage_->sheltered();
  }
  /// The precompute: the stage's envelope half and this engine's stencils.
  const MeshBindings& bindings() const noexcept { return bindings_; }

 private:
  /// Storm stage into scratch.shore_wse; returns the peak surface wind.
  double storm_into(std::uint64_t index, RealizationScratch& scratch) const;
  /// Bind stage over scratch.shore_wse, which it modifies in place.
  HurricaneRealization bind_in_place(std::uint64_t index, double peak_wind_ms,
                                     RealizationScratch& scratch) const;
  /// Wind-fragility stage shared by both paths (track-scan + sampling).
  void apply_wind_fragility(const storm::StormTrack& track,
                            std::uint64_t index,
                            HurricaneRealization& out) const;

  std::shared_ptr<const StormStage> stage_;
  std::vector<ExposedAsset> assets_;
  RealizationConfig config_;
  InundationMapper mapper_;
  MeshBindings bindings_;
  mutable std::once_flag bind_once_;
  mutable std::string bind_digest_;
};

}  // namespace ct::surge
