#include "graph/multi_level_graph.h"

#include <algorithm>
#include <cstring>

#include "graph/features.h"

namespace m2g::graph {

namespace {

/// Exact node identity: bitwise continuous row + discrete ids. memcmp is
/// deliberately stricter than float equality (NaN-safe, -0 != +0), so an
/// insert is located exactly.
bool SameNode(const LevelGraph& a, int i, const LevelGraph& b, int j) {
  if (a.node_aoi_id[i] != b.node_aoi_id[j]) return false;
  if (a.node_aoi_type[i] != b.node_aoi_type[j]) return false;
  const int d = a.node_continuous.cols();
  if (d != b.node_continuous.cols()) return false;
  return std::memcmp(a.node_continuous.data() + static_cast<size_t>(i) * d,
                     b.node_continuous.data() + static_cast<size_t>(j) * d,
                     sizeof(float) * d) == 0;
}

}  // namespace

LevelGraphDelta DiffLevelGraph(const LevelGraph& before,
                               const LevelGraph& after) {
  LevelGraphDelta delta;
  if (before.n <= 0 || after.n <= 0 ||
      before.node_continuous.cols() != after.node_continuous.cols()) {
    return delta;  // kStructural
  }
  if (after.n == before.n) {
    delta.kind = LevelDeltaKind::kSameNodes;
    return delta;
  }
  if (after.n == before.n + 1) {
    int p = before.n;  // default: appended at the end
    for (int i = 0; i < before.n; ++i) {
      if (!SameNode(before, i, after, i)) {
        p = i;
        break;
      }
    }
    for (int i = p; i < before.n; ++i) {
      if (!SameNode(before, i, after, i + 1)) return delta;  // kStructural
    }
    delta.kind = LevelDeltaKind::kInsert;
    delta.pos = p;
    return delta;
  }
  return delta;  // kStructural
}

LevelGraph BuildLocationGraph(const synth::Sample& sample,
                              const GraphConfig& config) {
  LevelGraph g;
  g.n = sample.num_locations();
  g.node_continuous = LocationNodeFeatures(sample);
  g.node_aoi_id.reserve(g.n);
  g.node_aoi_type.reserve(g.n);
  std::vector<geo::LatLng> points;
  std::vector<double> deadlines;
  for (const synth::LocationTask& task : sample.locations) {
    g.node_aoi_id.push_back(task.aoi_id);
    g.node_aoi_type.push_back(task.aoi_type);
    points.push_back(task.pos);
    deadlines.push_back(task.deadline_min);
  }
  g.adjacency = KnnConnectivity(points, deadlines, config.k_neighbors);
  g.edge_features = EdgeFeatures(points, deadlines, g.adjacency);
  return g;
}

MultiLevelGraph BuildMultiLevelGraph(const synth::Sample& sample,
                                     const GraphConfig& config) {
  MultiLevelGraph mlg;
  mlg.location = BuildLocationGraph(sample, config);
  mlg.loc_to_aoi = sample.loc_to_aoi;

  LevelGraph& a = mlg.aoi;
  a.n = sample.num_aois();
  a.node_continuous = AoiNodeFeatures(sample);
  std::vector<geo::LatLng> centroids = AoiCentroids(sample);
  std::vector<double> earliest_deadline(a.n, 1e18);
  for (int i = 0; i < sample.num_locations(); ++i) {
    earliest_deadline[sample.loc_to_aoi[i]] =
        std::min(earliest_deadline[sample.loc_to_aoi[i]],
                 sample.locations[i].deadline_min);
  }
  a.node_aoi_id = sample.aoi_node_ids;
  a.node_aoi_type.resize(a.n, 0);
  // Recover each AOI node's type from any member location.
  for (int i = 0; i < sample.num_locations(); ++i) {
    a.node_aoi_type[sample.loc_to_aoi[i]] = sample.locations[i].aoi_type;
  }
  a.adjacency =
      KnnConnectivity(centroids, earliest_deadline, config.k_neighbors);
  a.edge_features = EdgeFeatures(centroids, earliest_deadline, a.adjacency);
  return mlg;
}

}  // namespace m2g::graph
