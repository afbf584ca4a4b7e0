// Harbor/embayment treatment of shoreline surge. Wind setup is an
// open-coast phenomenon; inside a narrow harbor or loch the water level
// follows the open coast at the mouth (propagated as a long wave), often
// slightly amplified by funneling.
//
// A station is SHELTERED when the ray cast seaward along its outward
// normal re-enters land within a short distance — i.e. the station faces
// another shore across a narrow channel, as inside Pearl Harbor. A station
// on a broad open bay (e.g. Mamala Bay at Honolulu) shoots its ray to open
// ocean and stays EXPOSED. Sheltered stations inherit the surge of their
// nearest exposed station.
//
// On Oahu this couples Waiau (head of Pearl Harbor) to the open south
// shore — the mechanism behind the paper's observation that Waiau floods
// in every realization that floods Honolulu.
#pragma once

#include <vector>

#include "mesh/coastal_builder.h"
#include "terrain/terrain.h"

namespace ct::surge {

struct HarborConfig {
  /// How far the seaward normal ray is traced (m).
  double ray_length_m = 6000.0;
  /// Sampling step along the ray (m).
  double ray_step_m = 100.0;
  /// The ray must stay over water for this long before a land hit counts
  /// (skips the surf zone right at the station).
  double ray_clearance_m = 200.0;
  /// Funneling amplification applied to the inherited level.
  double amplification = 1.08;
  /// Master switch (ablation benches disable it).
  bool enabled = true;
};

/// Per-station shelter classification (true = sheltered).
std::vector<bool> sheltered_stations(const mesh::CoastalMesh& cm,
                                     const terrain::Terrain& terrain,
                                     const HarborConfig& config);

/// For each sheltered station, the index of the nearest exposed station
/// (by euclidean distance). Identity for exposed stations and when every
/// station is sheltered. Uses a grid index with an expanding-radius query;
/// guaranteed to return the same map as harbor_source_map_reference
/// (candidate radii are inflated past any floating-point rounding of the
/// distance, then ties resolve to the lowest station index, which is what
/// the reference scan's strict `<` picks).
std::vector<std::size_t> harbor_source_map(const mesh::CoastalMesh& cm,
                                           const std::vector<bool>& sheltered);

/// Reference O(stations^2) scan the indexed version is tested against; no
/// engine runs it.
std::vector<std::size_t> harbor_source_map_reference(
    const mesh::CoastalMesh& cm, const std::vector<bool>& sheltered);

/// Applies the transfer in place: sheltered stations get
/// `amplification * wse[source]`.
void apply_harbor_transfer(std::vector<double>& shore_wse,
                           const std::vector<bool>& sheltered,
                           const std::vector<std::size_t>& source_map,
                           double amplification);

/// Allocation-free variant: `snapshot` supplies the pre-transfer copy the
/// in-place rule reads from (reused across realizations by the engine
/// scratch). Bit-identical to the two-argument form.
void apply_harbor_transfer(std::vector<double>& shore_wse,
                           const std::vector<bool>& sheltered,
                           const std::vector<std::size_t>& source_map,
                           double amplification,
                           std::vector<double>& snapshot);

/// Along-shore moving average over EXPOSED stations (paper §V-A: "we
/// averaged the water surface elevations near the shoreline"). Each
/// exposed station is replaced by the mean of the exposed stations within
/// `window` index positions along the shoreline walk (the walk is
/// circular). Sheltered stations are left untouched — run this BEFORE
/// apply_harbor_transfer so harbors inherit the averaged open-coast level.
void alongshore_average(std::vector<double>& shore_wse,
                        const std::vector<bool>& sheltered, int window);

/// Allocation-free variant with a caller-provided snapshot buffer.
/// Bit-identical to the three-argument form.
void alongshore_average(std::vector<double>& shore_wse,
                        const std::vector<bool>& sheltered, int window,
                        std::vector<double>& snapshot);

}  // namespace ct::surge
