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

}  // namespace

MeshBindings::MeshBindings(const mesh::CoastalMesh& cm,
                           const geo::EnuProjection& proj,
                           const SurgeConfig& surge,
                           const InundationMapper& mapper,
                           const std::vector<ExposedAsset>& assets,
                           double smoothing_band_m, int smoothing_passes)
    : cm_(cm), surge_(surge), inundation_(mapper.config()) {
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

  for (mesh::NodeId n = 0; n < cm.mesh.node_count(); ++n) {
    if (!active[n]) continue;
    const mesh::Node& node = cm.mesh.node(n);
    active_nodes_.push_back(n);
    active_positions_.push_back(node.position);
    active_onshore_.push_back(
        cm.stations[cm.station_of_node[n]].outward_normal * -1.0);
    const double depth = std::max(surge_.min_depth_m, -node.elevation_m);
    active_gdepth_.push_back(kGravity * depth);
  }

  // Envelope tiles: maximal runs of active nodes in the same group of
  // kTileStations station columns. The builder lays nodes out station by
  // station, so a group is one run; any other layout only splits tiles.
  const auto group_of = [&](std::size_t k) {
    return cm.station_of_node[active_nodes_[k]] / kTileStations;
  };
  for (std::size_t begin = 0; begin < active_nodes_.size();) {
    std::size_t end = begin + 1;
    while (end < active_nodes_.size() && group_of(end) == group_of(begin)) {
      ++end;
    }
    geo::BBox tile_box;
    for (std::size_t k = begin; k < end; ++k) {
      tile_box.expand(active_positions_[k]);
    }
    EnvelopeTile tile;
    tile.begin = static_cast<std::uint32_t>(begin);
    tile.end = static_cast<std::uint32_t>(end);
    tile.center = tile_box.center();
    for (std::size_t k = begin; k < end; ++k) {
      tile.radius_m = std::max(
          tile.radius_m, geo::distance(active_positions_[k], tile.center));
    }
    tiles_.push_back(tile);
    begin = end;
  }

  auto index = std::make_shared<AssetIndex>();
  asset_ids_.reserve(assets.size());
  asset_ground_m_.reserve(assets.size());
  stencils_.reserve(assets.size());
  for (std::size_t a = 0; a < assets.size(); ++a) {
    const ExposedAsset& asset = assets[a];
    asset_ids_.push_back(asset.id);
    asset_ground_m_.push_back(asset.ground_elevation_m);
    index->emplace(asset.id, static_cast<std::uint32_t>(a));  // first wins

    AssetStencil s;
    s.enu = proj.to_enu(asset.location);
    s.station = mapper.nearest_station(s.enu);
    s.station_distance_m = geo::distance(s.enu, cm.stations[s.station].position);
    s.decay = std::exp(-s.station_distance_m / inundation_.decay_length_m);
    s.nearest_node = cm.mesh.nearest_node(s.enu);
    if (const auto bary = cm.mesh.locate(s.enu)) {
      s.inside_mesh = true;
      s.element = bary->element;
      s.stencil_nodes = cm.mesh.element(bary->element).nodes;
      s.stencil_weights = bary->weights;
    }
    stencils_.push_back(s);
  }
  asset_index_ = std::move(index);
}

double EnvelopeBound::at(geo::Vec2 onshore, double gdepth) const noexcept {
  // Largest projection on `onshore` of a unit vector within the half-angle
  // of the vortex direction: a cos(psi) + b sin(psi) over |psi| <= half
  // peaks at |onshore| when its angle atan2(b, a) lies inside, else at the
  // edge. This is cos(max(0, theta0 - half)) for a unit `onshore`.
  const double a = wind.vortex_dir.dot(onshore);
  const double b = std::abs(wind.vortex_dir.cross(onshore));
  const double along = a > 0.0 && b * wind.cos_half <= a * wind.sin_half
                           ? std::sqrt(a * a + b * b)
                           : a * wind.cos_half + b * wind.sin_half;
  const double u_on = wind.vortex_ms * std::max(0.0, along) +
                      std::max(0.0, wind.asymmetry_ms.dot(onshore));
  const double wse =
      wind_coeff * u_on / gdepth + pressure_m + wave_per_ms * u_on;
  return gdepth > 0.0 ? wse + wse * 1e-9 + 1e-9
                      : std::numeric_limits<double>::infinity();
}

std::optional<EnvelopeBound> envelope_bound(
    const SurgeConfig& surge, const storm::StormStepKernel& kernel,
    double ambient_pa, geo::Vec2 disk_center, double radius) {
  // Each WSE term must rise with the onshore wind, the speed and the
  // pressure deficit; NaN fails these tests too.
  if (!(surge.wind_setup_exponent >= 1.0 && surge.wind_setup_scale_m >= 0.0 &&
        surge.wave_setup_per_ms >= 0.0)) {
    return std::nullopt;
  }
  const std::optional<storm::DiskBound> wind =
      kernel.bound_over_disk(disk_center, radius);
  if (!wind) return std::nullopt;
  EnvelopeBound out;
  out.wind = *wind;
  const double speed = wind->vortex_ms + wind->asymmetry_ms.norm();
  out.wind_coeff = surge.wind_setup_scale_m *
                   std::pow(speed, surge.wind_setup_exponent - 1.0);
  out.pressure_m = std::max(0.0, ambient_pa - wind->pressure_pa) / kRhoG;
  out.wave_per_ms = surge.wave_setup_per_ms;
  return out;
}

EnvelopeWork MeshBindings::accumulate_envelope(
    const storm::StormTrack& track, const geo::EnuProjection& proj,
    mesh::NodeField& envelope) const {
  envelope.assign(cm_.mesh.node_count(), 0.0);
  // Folded exactly as the reference solver writes it: (exponent - 1.0)
  // feeds pow unchanged.
  const double exponent_m1 = surge_.wind_setup_exponent - 1.0;

  thread_local std::vector<EnvelopeStep> steps;
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

  // The max over steps is order-free, so each tile takes its steps in the
  // order that raises its envelope soonest, and a (node, step) is skipped
  // when its bound cannot beat the running max. Both keep every bit.
  const auto visit = [&](const EnvelopeTile& tile, const EnvelopeStep& step) {
    const std::optional<EnvelopeBound> bound = envelope_bound(
        surge_, step.kernel, step.ambient_pa, tile.center, tile.radius_m);
    for (std::uint32_t k = tile.begin; k < tile.end; ++k) {
      double& env = envelope[active_nodes_[k]];
      if (bound && bound->at(active_onshore_[k], active_gdepth_[k]) <= env) {
        continue;
      }
      ++work.node_evals;
      const storm::WindSample w = step.kernel.sample(active_positions_[k]);
      const double u_on =
          std::max(0.0, w.velocity_ms.dot(active_onshore_[k]));
      const double eta_wind = surge_.wind_setup_scale_m * u_on *
                              std::pow(w.speed_ms, exponent_m1) /
                              active_gdepth_[k];
      const double eta_pressure =
          std::max(0.0, step.ambient_pa - w.pressure_pa) / kRhoG;
      const double eta_wave = surge_.wave_setup_per_ms * u_on;
      const double wse = eta_wind + eta_pressure + eta_wave;
      env = std::max(env, wse);
    }
  };

  for (const EnvelopeTile& tile : tiles_) {
    std::size_t nearest = 0;
    double nearest_m = geo::distance(steps[0].center, tile.center);
    for (std::size_t s = 1; s < steps.size(); ++s) {
      const double d = geo::distance(steps[s].center, tile.center);
      if (d < nearest_m) {
        nearest_m = d;
        nearest = s;
      }
    }
    visit(tile, steps[nearest]);
    // Steps [below, above) are done; widen one step each way in turn.
    std::size_t below = nearest;
    std::size_t above = nearest + 1;
    while (below > 0 || above < steps.size()) {
      if (above < steps.size()) visit(tile, steps[above++]);
      if (below > 0) visit(tile, steps[--below]);
    }
  }
  return work;
}

void MeshBindings::impacts_into(const std::vector<double>& shoreline_wse,
                                std::vector<AssetImpact>& out) const {
  if (shoreline_wse.size() != cm_.stations.size()) {
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
    impact.failed = impact.inundation_depth_m > inundation_.failure_threshold_m;
    out.push_back(std::move(impact));
  }
}

double MeshBindings::interpolate_at(const mesh::NodeField& field,
                                    std::size_t asset) const {
  if (field.size() != cm_.mesh.node_count()) {
    throw std::invalid_argument("MeshBindings::interpolate_at: size mismatch");
  }
  const AssetStencil& s = stencils_.at(asset);
  if (s.inside_mesh) {
    double v = 0.0;
    for (int i = 0; i < 3; ++i) {
      v += s.stencil_weights[i] * field[s.stencil_nodes[i]];
    }
    return v;
  }
  return field[s.nearest_node];
}

void MeshBindings::digest_into(util::Digest& d) const {
  d.str("ct-mesh-bindings");
  d.f64(mesh_center_.x).f64(mesh_center_.y).f64(mesh_radius_);
  d.u64(plan_.band_nodes.size())
      .u64(plan_.extend_targets.size())
      .i64(plan_.passes);
  d.u64(active_nodes_.size());
  for (std::size_t k = 0; k < active_nodes_.size(); ++k) {
    d.u64(active_nodes_[k])
        .f64(active_positions_[k].x)
        .f64(active_positions_[k].y)
        .f64(active_onshore_[k].x)
        .f64(active_onshore_[k].y)
        .f64(active_gdepth_[k]);
  }
  d.u64(stencils_.size());
  for (const AssetStencil& s : stencils_) {
    d.u64(s.station)
        .f64(s.station_distance_m)
        .f64(s.decay)
        .u64(s.nearest_node)
        .boolean(s.inside_mesh);
    for (int i = 0; i < 3; ++i) {
      d.u64(s.stencil_nodes[i]).f64(s.stencil_weights[i]);
    }
  }
}

}  // namespace ct::surge
