#ifndef M2G_GRAPH_MULTI_LEVEL_GRAPH_H_
#define M2G_GRAPH_MULTI_LEVEL_GRAPH_H_

#include <vector>

#include "synth/dataset.h"
#include "tensor/matrix.h"

namespace m2g::graph {

struct GraphConfig {
  /// k for the k-nearest spatial and temporal neighbourhoods (Eq. 15).
  int k_neighbors = 5;
};

/// One level (locations or AOIs) of the multi-level graph. Continuous node
/// features are already normalized; discrete features stay as ids for the
/// embedding layers (Eq. 18).
struct LevelGraph {
  int n = 0;
  /// (n, d) continuous node features; see features.h for the layout.
  Matrix node_continuous;
  /// Discrete node features, parallel arrays of length n.
  std::vector<int> node_aoi_id;
  std::vector<int> node_aoi_type;
  /// (n*n, d_e) edge features, row-major by (i, j); layout in features.h.
  Matrix edge_features;
  /// e^{con}_{ij} == 1 (Eq. 15), row-major n*n. Symmetric, self-loops set.
  std::vector<bool> adjacency;

  bool AdjacentTo(int i, int j) const { return adjacency[i * n + j]; }
};

/// Definition 3: G = (G^l, G^a, E^la). The cross-level edge set is the
/// location -> AOI-node assignment.
struct MultiLevelGraph {
  LevelGraph location;
  LevelGraph aoi;
  std::vector<int> loc_to_aoi;  // E^la: location idx -> AOI node idx
};

/// How one level graph evolved into another, from the incremental
/// re-encode path's point of view. The diff only aligns node indices;
/// the delta encoder compares every aligned row and pair by content and
/// recomputes what changed, so the kind decides what a delta step costs,
/// never its bits.
enum class LevelDeltaKind {
  /// Same node count: node i of `after` aligns with node i of `before`.
  /// Drifted features, replaced nodes, rewired kNN edges and
  /// reorderings are all rows the delta encoder finds dirty.
  kSameNodes,
  /// `after` is `before` with one node inserted at index `pos` (an order
  /// arriving).
  kInsert,
  /// Any other count change (an order picked up, multi-node churn):
  /// falls back to a full encode.
  kStructural,
};

struct LevelGraphDelta {
  LevelDeltaKind kind = LevelDeltaKind::kStructural;
  /// kInsert: after-index of the new node. -1 otherwise.
  int pos = -1;

  /// Before-index of after-node `i` (-1 for an inserted node). Only
  /// meaningful for the delta-encodable kinds.
  int OldIndex(int i) const {
    switch (kind) {
      case LevelDeltaKind::kSameNodes:
        return i;
      case LevelDeltaKind::kInsert:
        if (i == pos) return -1;
        return i < pos ? i : i - 1;
      case LevelDeltaKind::kStructural:
        return -1;
    }
    return -1;
  }
};

/// Cheap structural diff between two level graphs. Equal node counts are
/// kSameNodes without a scan. One more node in `after` is kInsert at the
/// first row where the graphs differ, provided every later `before` row
/// reappears one index down (node identity is the bitwise continuous row
/// plus the discrete ids); otherwise, and for every other count change,
/// kStructural. O(n d) worst case.
LevelGraphDelta DiffLevelGraph(const LevelGraph& before,
                               const LevelGraph& after);

/// Builds the full multi-level graph for one RTP request.
MultiLevelGraph BuildMultiLevelGraph(const synth::Sample& sample,
                                     const GraphConfig& config);

/// Builds only the location level (used by the "w/o AOI" ablation and the
/// Graph2Route baseline, which are single-level).
LevelGraph BuildLocationGraph(const synth::Sample& sample,
                              const GraphConfig& config);

}  // namespace m2g::graph

#endif  // M2G_GRAPH_MULTI_LEVEL_GRAPH_H_
