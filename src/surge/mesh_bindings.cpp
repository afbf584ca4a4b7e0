#include "surge/mesh_bindings.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geo/polygon.h"
#include "storm/holland.h"

namespace ct::surge {

namespace {

/// Station columns per envelope tile.
constexpr std::uint32_t kTileStations = 4;

/// rho*g, the same product the reference inverse-barometer term divides by.
constexpr double kRhoG = kWaterDensity * kGravity;

/// One storm step inside the far-skip radius.
struct EnvelopeStep {
  storm::StormStepKernel kernel;
  geo::Vec2 center;
  double ambient_pa = 0.0;
};

/// Radii (m) of each step's direction-free tail bound. A run of steps whose
/// nearest distance from a tile's nodes is r takes the bound at the largest
/// radius <= r. Short, because each radius costs one Holland profile per
/// step.
constexpr std::array<double, 4> kTailRadii = {75.0e3, 110.0e3, 165.0e3,
                                              250.0e3};

/// Per-thread buffers of accumulate_envelope, reused across calls.
struct EnvelopeScratch {
  std::vector<EnvelopeStep> steps;
  /// Running max of every active node, in active order.
  std::vector<double> env;
  /// Per tile: the nearest step center over steps [0, s] and [s, n).
  std::vector<double> near_before;
  std::vector<double> near_after;
  /// Per tail radius j, at [j * n + s]: the max of the steps' tail bounds
  /// over [0, s] and [s, n).
  std::vector<ColumnBound> before;
  std::vector<ColumnBound> after;
};

/// Whether each WSE term rises with the onshore wind, the speed and the
/// pressure deficit; NaN fails.
bool surge_boundable(const SurgeConfig& surge) {
  return surge.wind_setup_exponent >= 1.0 && surge.wind_setup_scale_m >= 0.0 &&
         surge.wave_setup_per_ms >= 0.0;
}

/// The WSE bound of a wind bound, for a boundable `surge`.
EnvelopeBound surge_bound(const SurgeConfig& surge,
                          const storm::DiskBound& wind, double ambient_pa) {
  EnvelopeBound out;
  out.wind = wind;
  out.speed_ms = wind.vortex_ms + wind.asymmetry_ms.norm();
  out.wind_coeff = surge.wind_setup_scale_m *
                   std::pow(out.speed_ms, surge.wind_setup_exponent - 1.0);
  // Argument order keeps a NaN pressure NaN.
  out.pressure_m = std::max(ambient_pa - wind.pressure_pa, 0.0) / kRhoG;
  out.wave_per_ms = surge.wave_setup_per_ms;
  return out;
}

ColumnBound max_of(const ColumnBound& a, const ColumnBound& b) {
  return {std::max(a.per_inv_gdepth, b.per_inv_gdepth),
          std::max(a.offset, b.offset)};
}

}  // namespace

EnvelopeBindings::EnvelopeBindings(const mesh::CoastalMesh& cm,
                                   const SurgeConfig& surge,
                                   double smoothing_band_m,
                                   int smoothing_passes)
    : cm_(cm), surge_(surge) {
  // Far-skip geometry, computed exactly as SurgeSolver::max_envelope does.
  geo::BBox box;
  for (const mesh::Node& node : cm.mesh.nodes()) box.expand(node.position);
  mesh_center_ = box.center();
  mesh_radius_ = std::max(box.width(), box.height()) / 2.0 +
                 surge_.max_considered_distance_m;

  plan_ = mesh::make_shoreline_plan(cm, smoothing_band_m, smoothing_passes);

  // Active set: the only values the pipeline consumes are the per-station
  // shoreline values AFTER the averaging passes (alongshore averaging,
  // harbor transfer, impacts, and max_shoreline_wse_m all read those; the
  // extension step overwrites onshore nodes). A node's initial envelope
  // value can reach a shore node only by flowing through smoothing-band
  // nodes, one hop per pass: S_0 = shore nodes, S_k = S_{k-1} union
  // neighbors(S_{k-1} intersect band). Everything outside S_passes is
  // write-only in the legacy pipeline and never surfaces in the output.
  std::vector<char> active(cm.mesh.node_count(), 0);
  std::vector<char> in_band(cm.mesh.node_count(), 0);
  for (const mesh::NodeId n : plan_.band_nodes) in_band[n] = 1;
  std::vector<mesh::NodeId> frontier;
  for (const mesh::NodeId n : cm.shore_nodes) {
    if (!active[n]) {
      active[n] = 1;
      frontier.push_back(n);
    }
  }
  std::vector<mesh::NodeId> next;
  for (int pass = 0; pass < smoothing_passes && !frontier.empty(); ++pass) {
    next.clear();
    for (const mesh::NodeId n : frontier) {
      if (!in_band[n]) continue;  // only band nodes are re-averaged
      for (const mesh::NodeId m : cm.mesh.neighbors(n)) {
        if (!active[m]) {
          active[m] = 1;
          next.push_back(m);
        }
      }
    }
    frontier.swap(next);
  }

  // Columns: maximal runs of active nodes of one station, which share its
  // onshore direction. The builder lays nodes out station by station, so a
  // station is one run; any other layout only splits columns.
  std::vector<std::size_t> column_station;
  for (mesh::NodeId n = 0; n < cm.mesh.node_count(); ++n) {
    if (!active[n]) continue;
    const std::size_t station = cm.station_of_node[n];
    if (column_station.empty() || column_station.back() != station) {
      column_station.push_back(station);
      EnvelopeColumn column;
      column.begin = static_cast<std::uint32_t>(active_nodes_.size());
      column.onshore = cm.stations[station].outward_normal * -1.0;
      columns_.push_back(column);
    }
    const mesh::Node& node = cm.mesh.node(n);
    active_nodes_.push_back(n);
    active_positions_.push_back(node.position);
    const double depth = std::max(surge_.min_depth_m, -node.elevation_m);
    const double gdepth = kGravity * depth;
    active_gdepth_.push_back(gdepth);
    // +inf for a non-positive g * depth: the node's bound is then +inf or
    // NaN, so the node is always evaluated.
    active_inv_gdepth_.push_back(
        gdepth > 0.0 ? 1.0 / gdepth : std::numeric_limits<double>::infinity());
    columns_.back().end = static_cast<std::uint32_t>(active_nodes_.size());
  }

  // Envelope tiles: maximal runs of columns in the same group of
  // kTileStations stations.
  for (std::size_t first = 0; first < columns_.size();) {
    const std::size_t group = column_station[first] / kTileStations;
    std::size_t last = first + 1;
    while (last < columns_.size() &&
           column_station[last] / kTileStations == group) {
      ++last;
    }
    EnvelopeTile tile;
    tile.begin = columns_[first].begin;
    tile.end = columns_[last - 1].end;
    tile.column_begin = static_cast<std::uint32_t>(first);
    tile.column_end = static_cast<std::uint32_t>(last);
    geo::BBox tile_box;
    for (std::uint32_t k = tile.begin; k < tile.end; ++k) {
      tile_box.expand(active_positions_[k]);
    }
    tile.center = tile_box.center();
    for (std::uint32_t k = tile.begin; k < tile.end; ++k) {
      tile.radius_m = std::max(
          tile.radius_m, geo::distance(active_positions_[k], tile.center));
    }
    tiles_.push_back(tile);
    first = last;
  }
}

MeshBindings::MeshBindings(const mesh::CoastalMesh& cm,
                           const geo::EnuProjection& proj,
                           const SurgeConfig& surge,
                           const InundationMapper& mapper,
                           const std::vector<ExposedAsset>& assets,
                           double smoothing_band_m, int smoothing_passes)
    : MeshBindings(std::make_shared<const EnvelopeBindings>(
                       cm, surge, smoothing_band_m, smoothing_passes),
                   proj, mapper, assets) {}

MeshBindings::MeshBindings(std::shared_ptr<const EnvelopeBindings> envelope,
                           const geo::EnuProjection& proj,
                           const InundationMapper& mapper,
                           const std::vector<ExposedAsset>& assets)
    : envelope_(std::move(envelope)),
      stations_(envelope_->coastal_mesh().stations.size()),
      failure_threshold_m_(mapper.config().failure_threshold_m) {
  const mesh::CoastalMesh& cm = envelope_->coastal_mesh();
  const double decay_length_m = mapper.config().decay_length_m;
  auto index = std::make_shared<AssetIndex>();
  asset_ids_.reserve(assets.size());
  asset_ground_m_.reserve(assets.size());
  stencils_.reserve(assets.size());
  for (std::size_t a = 0; a < assets.size(); ++a) {
    const ExposedAsset& asset = assets[a];
    asset_ids_.push_back(asset.id);
    asset_ground_m_.push_back(asset.ground_elevation_m);
    index->emplace(asset.id, static_cast<std::uint32_t>(a));  // first wins

    const geo::Vec2 enu = proj.to_enu(asset.location);
    AssetStencil s;
    s.station = mapper.nearest_station(enu);
    s.station_distance_m = geo::distance(enu, cm.stations[s.station].position);
    s.decay = std::exp(-s.station_distance_m / decay_length_m);
    stencils_.push_back(s);
  }
  asset_index_ = std::move(index);
}

ColumnBound EnvelopeBound::for_onshore_wind(double u_on) const noexcept {
  // wind_coeff * u_on / gdepth + pressure_m + wave_per_ms * u_on, grown by
  // the 1e-9 relative margin, plus the 1e-9 m absolute one.
  constexpr double kGrow = 1.0 + 1e-9;
  ColumnBound out;
  out.per_inv_gdepth = wind_coeff * u_on * kGrow;
  out.offset = (pressure_m + wave_per_ms * u_on) * kGrow + 1e-9;
  return out;
}

ColumnBound EnvelopeBound::column(geo::Vec2 onshore) const noexcept {
  // Largest projection on `onshore` of a unit vector within the half-angle
  // of the vortex direction: a cos(psi) + b sin(psi) over |psi| <= half is
  // |onshore| cos(max(0, theta0 - half)), theta0 = atan2(b, a) in [0, pi].
  // theta0 <= half exactly when a >= |onshore| cos(half), for any half in
  // [0, pi]; half = pi (cos_half = -1) allows every direction.
  const double a = wind.vortex_dir.dot(onshore);
  const double b = std::abs(wind.vortex_dir.cross(onshore));
  const double norm = std::sqrt(a * a + b * b);
  const double along = a >= norm * wind.cos_half
                           ? norm
                           : a * wind.cos_half + b * wind.sin_half;
  // Argument order keeps a NaN NaN, so it never turns into a skip.
  return for_onshore_wind(wind.vortex_ms * std::max(along, 0.0) +
                          std::max(wind.asymmetry_ms.dot(onshore), 0.0));
}

double EnvelopeBound::at(geo::Vec2 onshore, double gdepth) const noexcept {
  return gdepth > 0.0 ? column(onshore).at(1.0 / gdepth)
                      : std::numeric_limits<double>::infinity();
}

std::optional<EnvelopeBound> envelope_bound(
    const SurgeConfig& surge, const storm::StormStepKernel& kernel,
    double ambient_pa, geo::Vec2 disk_center, double radius) {
  if (!surge_boundable(surge)) return std::nullopt;
  const std::optional<storm::DiskBound> wind =
      kernel.bound_over_disk(disk_center, radius);
  if (!wind) return std::nullopt;
  return surge_bound(surge, *wind, ambient_pa);
}

EnvelopeWork EnvelopeBindings::accumulate_envelope(
    const storm::StormTrack& track, const geo::EnuProjection& proj,
    mesh::NodeField& envelope) const {
  envelope.assign(cm_.mesh.node_count(), 0.0);
  // Folded exactly as the reference solver writes it: (exponent - 1.0)
  // feeds pow unchanged.
  const double exponent_m1 = surge_.wind_setup_exponent - 1.0;

  thread_local EnvelopeScratch scratch;
  std::vector<EnvelopeStep>& steps = scratch.steps;
  steps.clear();
  for (double t = track.start_time(); t <= track.end_time();
       t += surge_.dt_s) {
    const storm::StormState state = track.state_at(t, proj);
    const geo::Vec2 center = proj.to_enu(state.center);
    if (geo::distance(center, mesh_center_) > mesh_radius_) continue;
    steps.push_back({storm::StormStepKernel(surge_.wind_options, state.vortex,
                                            center, state.translation_ms),
                     center, state.vortex.ambient_pressure_pa});
  }

  EnvelopeWork work;
  work.node_steps = steps.size() * active_nodes_.size();
  if (steps.empty()) return work;

  const std::size_t n = steps.size();
  std::vector<double>& env = scratch.env;
  env.assign(active_nodes_.size(), 0.0);
  scratch.near_before.resize(n);
  scratch.near_after.resize(n);
  scratch.before.resize(kTailRadii.size() * n);
  scratch.after.resize(kTailRadii.size() * n);
  const bool bounded = surge_boundable(surge_);

  // The max over steps is order-free, so each tile takes its steps in the
  // order that raises its envelope soonest, and a (node, step) is skipped
  // when its bound cannot beat the running max. Both keep every bit.
  const auto visit = [&](const EnvelopeTile& tile, const EnvelopeStep& step) {
    std::optional<EnvelopeBound> bound;
    if (bounded) {
      ++work.tile_bounds;
      bound = envelope_bound(surge_, step.kernel, step.ambient_pa,
                             tile.center, tile.radius_m);
    }
    for (std::uint32_t c = tile.column_begin; c < tile.column_end; ++c) {
      const EnvelopeColumn& column = columns_[c];
      const ColumnBound skip = bound ? bound->column(column.onshore)
                                     : ColumnBound{};
      for (std::uint32_t k = column.begin; k < column.end; ++k) {
        if (skip.at(active_inv_gdepth_[k]) <= env[k]) continue;
        ++work.node_evals;
        const storm::WindSample w = step.kernel.sample(active_positions_[k]);
        const double u_on = std::max(0.0, w.velocity_ms.dot(column.onshore));
        const double eta_wind = surge_.wind_setup_scale_m * u_on *
                                std::pow(w.speed_ms, exponent_m1) /
                                active_gdepth_[k];
        const double eta_pressure =
            std::max(0.0, step.ambient_pa - w.pressure_pa) / kRhoG;
        const double eta_wave = surge_.wave_setup_per_ms * u_on;
        const double wse = eta_wind + eta_pressure + eta_wave;
        env[k] = std::max(env[k], wse);
      }
    }
  };

  // The tail tables. A step's tail bound at radius j covers every point at
  // least kTailRadii[j] from its center, in any direction: station normals
  // are unit vectors, so the onshore wind u_on <= |v| <= the speed bound.
  if (bounded) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < kTailRadii.size(); ++j) {
      ColumnBound* before = &scratch.before[j * n];
      ColumnBound* after = &scratch.after[j * n];
      for (std::size_t s = 0; s < n; ++s) {
        ColumnBound tail{kInf, kInf};
        if (const std::optional<storm::DiskBound> wind =
                steps[s].kernel.bound_beyond(kTailRadii[j])) {
          const EnvelopeBound bound =
              surge_bound(surge_, *wind, steps[s].ambient_pa);
          const ColumnBound b = bound.for_onshore_wind(bound.speed_ms);
          // A NaN would vanish in the max below.
          if (b.per_inv_gdepth >= 0.0 && b.offset >= 0.0) tail = b;
        }
        before[s] = s > 0 ? max_of(tail, before[s - 1]) : tail;
        after[s] = tail;
      }
      for (std::size_t s = n - 1; s-- > 0;) {
        after[s] = max_of(after[s], after[s + 1]);
      }
    }
  }

  // Whether no step of a run can raise any node of `tile`: `near_m` is the
  // distance of the run's nearest step center, and `table` holds its folded
  // tail bounds at [j * n + s]. Every node lies at least near_m - radius
  // from every step of the run, so at least the radius read.
  const auto run_cannot_raise = [&](const EnvelopeTile& tile, double near_m,
                                    const std::vector<ColumnBound>& table,
                                    std::size_t s) {
    const double r = near_m - tile.radius_m;
    std::size_t j = kTailRadii.size();
    while (j > 0 && !(kTailRadii[j - 1] <= r)) --j;
    if (j-- == 0) return false;
    const ColumnBound bound = table[j * n + s];
    for (std::uint32_t k = tile.begin; k < tile.end; ++k) {
      if (!(bound.at(active_inv_gdepth_[k]) <= env[k])) return false;
    }
    return true;
  };

  for (const EnvelopeTile& tile : tiles_) {
    // The nearest step (the first on ties), and the nearest step center of
    // every run [0, s] and [s, n).
    std::size_t nearest = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const double d = geo::distance(steps[s].center, tile.center);
      const bool nearer = s == 0 || d < scratch.near_before[s - 1];
      if (nearer) nearest = s;
      scratch.near_before[s] = nearer ? d : scratch.near_before[s - 1];
      scratch.near_after[s] = d;
    }
    for (std::size_t s = n - 1; s-- > 0;) {
      scratch.near_after[s] =
          std::min(scratch.near_after[s], scratch.near_after[s + 1]);
    }
    visit(tile, steps[nearest]);
    // Steps [below, above) are done; widen one step each way in turn, and
    // stop a direction once its remaining run cannot raise the tile.
    std::size_t below = nearest;
    std::size_t above = nearest + 1;
    while (below > 0 || above < n) {
      if (above < n) {
        if (bounded && run_cannot_raise(tile, scratch.near_after[above],
                                        scratch.after, above)) {
          above = n;
        } else {
          visit(tile, steps[above++]);
        }
      }
      if (below > 0) {
        if (bounded && run_cannot_raise(tile, scratch.near_before[below - 1],
                                        scratch.before, below - 1)) {
          below = 0;
        } else {
          visit(tile, steps[--below]);
        }
      }
    }
  }

  for (std::size_t k = 0; k < active_nodes_.size(); ++k) {
    envelope[active_nodes_[k]] = env[k];
  }
  return work;
}

void MeshBindings::impacts_into(const std::vector<double>& shoreline_wse,
                                std::vector<AssetImpact>& out) const {
  if (shoreline_wse.size() != stations_) {
    throw std::invalid_argument("MeshBindings: WSE/station size mismatch");
  }
  out.clear();
  out.reserve(asset_ids_.size());
  for (std::size_t a = 0; a < asset_ids_.size(); ++a) {
    const AssetStencil& s = stencils_[a];
    AssetImpact impact;
    impact.asset_id = asset_ids_[a];
    impact.shoreline_station = s.station;
    impact.shoreline_wse_m = shoreline_wse[s.station];
    impact.water_level_m = impact.shoreline_wse_m * s.decay;
    impact.inundation_depth_m =
        std::max(0.0, impact.water_level_m - asset_ground_m_[a]);
    impact.failed = impact.inundation_depth_m > failure_threshold_m_;
    out.push_back(std::move(impact));
  }
}

void EnvelopeBindings::digest_envelope_into(util::Digest& d) const {
  d.str("ct-mesh-bindings");
  d.f64(mesh_center_.x).f64(mesh_center_.y).f64(mesh_radius_);
  d.u64(plan_.band_nodes.size())
      .u64(plan_.extend_targets.size())
      .i64(plan_.passes);
  d.u64(active_nodes_.size());
  for (const EnvelopeColumn& column : columns_) {
    for (std::uint32_t k = column.begin; k < column.end; ++k) {
      d.u64(active_nodes_[k])
          .f64(active_positions_[k].x)
          .f64(active_positions_[k].y)
          .f64(column.onshore.x)
          .f64(column.onshore.y)
          .f64(active_gdepth_[k]);
    }
  }
}

void MeshBindings::digest_stencils_into(util::Digest& d) const {
  d.u64(stencils_.size());
  for (const AssetStencil& s : stencils_) {
    d.u64(s.station).f64(s.station_distance_m).f64(s.decay);
  }
}

}  // namespace ct::surge
