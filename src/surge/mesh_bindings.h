// Per-(terrain, mesh config) precompute for the realization hot path.
//
// Every one of the 1000 realizations used to re-derive the same facts from
// the mesh: which nodes can ever influence the shoreline output, each
// node's onshore direction and depth floor, which station each asset
// binds to, and the inland decay factor. MeshBindings freezes all of
// that (shared read-only across realizations and threads) and exposes
// allocation-free kernels over the frozen arrays. Its envelope half
// (EnvelopeBindings) reads only storm-side inputs, so engines on one storm
// stage share it; the asset stencils are each engine's own.
//
// Equivalence contract: every kernel here is BIT-IDENTICAL to the legacy
// path it replaces for all values the pipeline consumes. The envelope is
// only ever read at the smoothing band, its one-hop neighbors, and the
// shoreline nodes (the extension step overwrites onshore nodes and the
// output is the per-station shoreline WSE), so `accumulate_envelope`
// evaluates exactly those nodes with the same IEEE-754 operation sequence
// the reference SurgeSolver uses and leaves the rest at 0. It also skips
// every (node, step) whose WSE provably cannot raise that node's running
// max, which cannot change a bit of a max. See DESIGN.md §10 for the full
// argument.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/geopoint.h"
#include "geo/vec2.h"
#include "mesh/coastal_builder.h"
#include "mesh/field.h"
#include "storm/holland.h"
#include "storm/track.h"
#include "surge/inundation.h"
#include "surge/surge_model.h"
#include "util/digest.h"

namespace ct::surge {

/// Frozen binding of one asset to the shoreline.
struct AssetStencil {
  /// Shoreline station the asset draws water from (same index the
  /// InundationMapper's nearest-station query returns).
  std::size_t station = 0;
  double station_distance_m = 0.0;
  /// Precomputed inland decay exp(-distance / decay_length) — the exact
  /// factor the legacy impact() computes per realization.
  double decay = 1.0;
};

/// Asset id -> position in the engine's asset list (first occurrence wins
/// for duplicate ids, matching the legacy linear scan).
using AssetIndex = std::unordered_map<std::string, std::uint32_t>;

/// Active nodes of one station column (a run of active indices). They
/// share the station's onshore direction.
struct EnvelopeColumn {
  std::uint32_t begin = 0;  ///< first active index
  std::uint32_t end = 0;    ///< one past the last active index
  geo::Vec2 onshore;        ///< -outward_normal of the station
};

/// Active nodes of 4 consecutive station columns (a run of active indices
/// and of columns) and a circle enclosing them.
struct EnvelopeTile {
  std::uint32_t begin = 0;         ///< first active index
  std::uint32_t end = 0;           ///< one past the last active index
  std::uint32_t column_begin = 0;  ///< first column
  std::uint32_t column_end = 0;    ///< one past the last column
  geo::Vec2 center;
  double radius_m = 0.0;
};

/// Bound, margins included, on the WSE at the nodes that share one onshore
/// direction: `per_inv_gdepth / (g * depth) + offset`. The default bounds
/// nothing: it is NaN, and a NaN bound never lets a node be skipped.
struct ColumnBound {
  double per_inv_gdepth = 0.0;
  double offset = std::numeric_limits<double>::quiet_NaN();

  /// The bound at a node whose 1 / (g * depth) is `inv_gdepth`.
  double at(double inv_gdepth) const noexcept {
    return per_inv_gdepth * inv_gdepth + offset;
  }
};

/// Upper bound on the WSE one storm step can produce anywhere in the region
/// of `wind` (a disk, or every point beyond a radius). Margins of 1e-9
/// relative and 1e-9 m absolute cover the rounding of both the bound and
/// the solver, which is many orders of magnitude smaller.
struct EnvelopeBound {
  storm::DiskBound wind;
  double speed_ms = 0.0;    ///< >= the wind speed anywhere in the region
  double wind_coeff = 0.0;  ///< wind-setup scale * max speed^(exponent - 1)
  double pressure_m = 0.0;  ///< inverse-barometer term at the max deficit
  double wave_per_ms = 0.0;

  /// The bound at nodes whose onshore wind is at most `u_on`.
  ColumnBound for_onshore_wind(double u_on) const noexcept;
  /// The bound at nodes whose onshore direction is `onshore`: the largest
  /// onshore share of a wind within the direction cone.
  ColumnBound column(geo::Vec2 onshore) const noexcept;
  /// column(onshore) at a node whose g * depth is `gdepth`; +inf when
  /// `gdepth` is not positive. Only tests call it: fastpath_test checks
  /// the solver's WSE against this per-node form of the bound.
  double at(geo::Vec2 onshore, double gdepth) const noexcept;
};

/// The bound of `kernel`'s step (ambient pressure `ambient_pa`) over the
/// disk (`disk_center`, `radius`), or empty when it does not apply: the
/// storm side's arguments fail (see StormStepKernel::bound_over_disk), or
/// `surge` has a wind-setup exponent below 1 or a negative wind-setup
/// scale or wave-setup factor.
std::optional<EnvelopeBound> envelope_bound(
    const SurgeConfig& surge, const storm::StormStepKernel& kernel,
    double ambient_pa, geo::Vec2 disk_center, double radius);

/// Work of one accumulate_envelope call.
struct EnvelopeWork {
  /// Active nodes x storm steps inside the far-skip radius: what an
  /// unpruned envelope evaluates.
  std::uint64_t node_steps = 0;
  /// The node-steps actually evaluated.
  std::uint64_t node_evals = 0;
  /// The (tile, step) envelope bounds built: the tile visits.
  std::uint64_t tile_bounds = 0;
};

/// The envelope half of the precompute: far-skip geometry, smoothing plan,
/// active nodes and their columns and tiles. It is a function of the mesh,
/// the surge config and the smoothing band and passes, all storm-side, so
/// every engine on one storm stage shares one (realization.h).
class EnvelopeBindings {
 public:
  /// Builds the envelope half. `cm` must outlive it (the storm stage owns
  /// both).
  EnvelopeBindings(const mesh::CoastalMesh& cm, const SurgeConfig& surge,
                   double smoothing_band_m, int smoothing_passes);

  /// Writes the MEOW envelope of `track` into `envelope` (resized to the
  /// node count; non-active nodes stay 0). Bit-equal on every consumed
  /// node to SurgeSolver::max_envelope with the same config. Each tile
  /// visits the steps nearest-first, then alternately outward along the
  /// track, and stops a direction once one bound over all its remaining
  /// steps cannot raise any node of the tile. A visit evaluates a node only
  /// when its column's envelope_bound exceeds the node's running max.
  /// Thread-safe: const over frozen arrays; mutation goes to `envelope` and
  /// thread-local buffers.
  EnvelopeWork accumulate_envelope(const storm::StormTrack& track,
                                   const geo::EnuProjection& proj,
                                   mesh::NodeField& envelope) const;

  const mesh::CoastalMesh& coastal_mesh() const noexcept { return cm_; }
  const mesh::ShorelinePlan& shoreline_plan() const noexcept { return plan_; }
  /// Nodes whose envelope values the pipeline can consume (ascending).
  const std::vector<mesh::NodeId>& active_nodes() const noexcept {
    return active_nodes_;
  }
  /// Partition of the active nodes the envelope prunes by.
  const std::vector<EnvelopeTile>& tiles() const noexcept { return tiles_; }
  /// The station columns the tiles are made of.
  const std::vector<EnvelopeColumn>& columns() const noexcept {
    return columns_;
  }

  /// Folds the frozen content (far-skip geometry, smoothing plan, active
  /// nodes and their columns) into a digest. Part of the storm digest, so
  /// any terrain- or mesh-derived change to the precompute invalidates disk
  /// caches and shoreline records.
  void digest_envelope_into(util::Digest& d) const;

 private:
  const mesh::CoastalMesh& cm_;
  SurgeConfig surge_;

  // Far-skip geometry, identical to SurgeSolver::max_envelope.
  geo::Vec2 mesh_center_;
  double mesh_radius_ = 0.0;

  mesh::ShorelinePlan plan_;

  // Structure-of-arrays over the active node set.
  std::vector<mesh::NodeId> active_nodes_;
  std::vector<geo::Vec2> active_positions_;
  std::vector<double> active_gdepth_;      ///< kGravity * floored depth
  std::vector<double> active_inv_gdepth_;  ///< 1 / gdepth, +inf if not > 0
  std::vector<EnvelopeColumn> columns_;
  std::vector<EnvelopeTile> tiles_;
};

/// The whole precompute of one engine: an envelope half, which engines on
/// one storm stage share, and the engine's own asset stencils.
class MeshBindings {
 public:
  /// Builds both halves, the envelope half privately. `cm`, `mapper`, and
  /// `proj` must outlive the bindings.
  MeshBindings(const mesh::CoastalMesh& cm, const geo::EnuProjection& proj,
               const SurgeConfig& surge, const InundationMapper& mapper,
               const std::vector<ExposedAsset>& assets,
               double smoothing_band_m, int smoothing_passes);
  /// Binds `assets` over `envelope` (and its mesh).
  MeshBindings(std::shared_ptr<const EnvelopeBindings> envelope,
               const geo::EnuProjection& proj, const InundationMapper& mapper,
               const std::vector<ExposedAsset>& assets);

  const EnvelopeBindings& envelope() const noexcept { return *envelope_; }
  /// The envelope half's kernel and arrays (EnvelopeBindings).
  EnvelopeWork accumulate_envelope(const storm::StormTrack& track,
                                   const geo::EnuProjection& proj,
                                   mesh::NodeField& envelope) const {
    return envelope_->accumulate_envelope(track, proj, envelope);
  }
  const mesh::ShorelinePlan& shoreline_plan() const noexcept {
    return envelope_->shoreline_plan();
  }
  const std::vector<mesh::NodeId>& active_nodes() const noexcept {
    return envelope_->active_nodes();
  }
  const std::vector<EnvelopeTile>& tiles() const noexcept {
    return envelope_->tiles();
  }
  const std::vector<EnvelopeColumn>& columns() const noexcept {
    return envelope_->columns();
  }

  /// Per-asset impacts from the smoothed shoreline WSE, written into `out`
  /// (cleared first). Bit-equal to InundationMapper::impacts.
  void impacts_into(const std::vector<double>& shoreline_wse,
                    std::vector<AssetImpact>& out) const;

  const std::vector<AssetStencil>& stencils() const noexcept {
    return stencils_;
  }
  /// Shared id->index map handed to every realization for O(1) lookups.
  const std::shared_ptr<const AssetIndex>& asset_index() const noexcept {
    return asset_index_;
  }

  /// Folds the frozen asset stencils (station, distance, decay) into a
  /// digest. They derive from the mesh and the asset list alike, so the
  /// engine-batch key mixes them in beside the engine's storm and bind
  /// digests.
  void digest_stencils_into(util::Digest& d) const;

 private:
  std::shared_ptr<const EnvelopeBindings> envelope_;
  std::size_t stations_ = 0;
  double failure_threshold_m_ = 0.0;

  std::vector<std::string> asset_ids_;
  std::vector<double> asset_ground_m_;
  std::vector<AssetStencil> stencils_;
  std::shared_ptr<const AssetIndex> asset_index_;
};

}  // namespace ct::surge
