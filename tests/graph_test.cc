#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "graph/features.h"
#include "graph/multi_level_graph.h"

namespace m2g::graph {
namespace {

synth::Sample MakeSample() {
  synth::DataConfig config;
  config.seed = 31;
  config.world.num_aois = 60;
  config.world.num_districts = 3;
  config.couriers.num_couriers = 4;
  config.num_days = 4;
  synth::DatasetSplits splits = synth::BuildDataset(config);
  // Find a sample with at least 2 AOIs and 5 locations.
  for (const synth::Sample& s : splits.train.samples) {
    if (s.num_aois() >= 2 && s.num_locations() >= 5) return s;
  }
  ADD_FAILURE() << "no suitable sample generated";
  return splits.train.samples.front();
}

TEST(FeaturesTest, LocationFeatureShapesAndValues) {
  synth::Sample s = MakeSample();
  Matrix x = LocationNodeFeatures(s);
  EXPECT_EQ(x.rows(), s.num_locations());
  EXPECT_EQ(x.cols(), kLocationContinuousDim);
  for (int i = 0; i < x.rows(); ++i) {
    // Distance column equals the stored distance.
    EXPECT_NEAR(x.At(i, 2), s.locations[i].dist_from_courier_m / 1000.0,
                1e-4);
    // Offset magnitude matches distance (Pythagoras).
    const double r = std::sqrt(x.At(i, 0) * x.At(i, 0) +
                               x.At(i, 1) * x.At(i, 1));
    EXPECT_NEAR(r, x.At(i, 2), 0.02);
    // Deadline time-of-day fraction in [0,1).
    EXPECT_GE(x.At(i, 5), 0.0f);
    EXPECT_LT(x.At(i, 5), 1.0f);
  }
}

TEST(FeaturesTest, AoiFeaturesAggregateMembers) {
  synth::Sample s = MakeSample();
  Matrix x = AoiNodeFeatures(s);
  EXPECT_EQ(x.rows(), s.num_aois());
  EXPECT_EQ(x.cols(), kAoiContinuousDim);
  // Column 4 * 5 = member counts; they must sum to n.
  double total = 0;
  for (int k = 0; k < x.rows(); ++k) total += x.At(k, 4) * 5.0;
  EXPECT_NEAR(total, s.num_locations(), 1e-3);
}

TEST(FeaturesTest, GlobalFeaturesEncodeCourier) {
  synth::Sample s = MakeSample();
  Matrix g = GlobalContinuousFeatures(s);
  EXPECT_EQ(g.rows(), 1);
  EXPECT_EQ(g.cols(), kGlobalContinuousDim);
  EXPECT_NEAR(g.At(0, 2), s.courier.attendance, 1e-6);
}

TEST(KnnConnectivityTest, SelfLoopsAndSymmetry) {
  synth::Sample s = MakeSample();
  std::vector<geo::LatLng> pts;
  std::vector<double> deadlines;
  for (const auto& task : s.locations) {
    pts.push_back(task.pos);
    deadlines.push_back(task.deadline_min);
  }
  const int n = static_cast<int>(pts.size());
  auto adj = KnnConnectivity(pts, deadlines, 3);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(adj[i * n + i]);
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(adj[i * n + j], adj[j * n + i]);
    }
  }
}

TEST(KnnConnectivityTest, DegreeAtLeastKWhenEnoughNodes) {
  std::vector<geo::LatLng> pts;
  std::vector<double> deadlines;
  Rng rng(9);
  geo::LatLng base{30.25, 120.17};
  for (int i = 0; i < 12; ++i) {
    pts.push_back(geo::OffsetMeters(base, rng.Uniform(-3000, 3000),
                                    rng.Uniform(-3000, 3000)));
    deadlines.push_back(rng.Uniform(0, 600));
  }
  const int k = 4;
  auto adj = KnnConnectivity(pts, deadlines, k);
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    int degree = 0;
    for (int j = 0; j < n; ++j) {
      if (j != i && adj[i * n + j]) ++degree;
    }
    EXPECT_GE(degree, k);  // at least the spatial k
  }
}

TEST(KnnConnectivityTest, FullyConnectedWhenKLarge) {
  std::vector<geo::LatLng> pts(4, geo::LatLng{30.0, 120.0});
  std::vector<double> deadlines = {1, 2, 3, 4};
  auto adj = KnnConnectivity(pts, deadlines, 10);
  for (bool b : adj) EXPECT_TRUE(b);
}

TEST(EdgeFeaturesTest, DiagonalAndSymmetryProperties) {
  synth::Sample s = MakeSample();
  std::vector<geo::LatLng> pts;
  std::vector<double> deadlines;
  for (const auto& task : s.locations) {
    pts.push_back(task.pos);
    deadlines.push_back(task.deadline_min);
  }
  const int n = static_cast<int>(pts.size());
  auto adj = KnnConnectivity(pts, deadlines, 3);
  Matrix e = EdgeFeatures(pts, deadlines, adj);
  EXPECT_EQ(e.rows(), n * n);
  EXPECT_EQ(e.cols(), kEdgeDim);
  for (int i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(e.At(i * n + i, 0), 0.0f);  // zero self-distance
    EXPECT_FLOAT_EQ(e.At(i * n + i, 1), 0.0f);  // zero self-gap
    EXPECT_FLOAT_EQ(e.At(i * n + i, 2), 1.0f);  // self-loop connected
    for (int j = 0; j < n; ++j) {
      EXPECT_FLOAT_EQ(e.At(i * n + j, 0), e.At(j * n + i, 0));
      EXPECT_FLOAT_EQ(e.At(i * n + j, 1), e.At(j * n + i, 1));
    }
  }
}

TEST(MultiLevelGraphTest, LevelsAreConsistentWithSample) {
  synth::Sample s = MakeSample();
  GraphConfig config;
  MultiLevelGraph g = BuildMultiLevelGraph(s, config);
  EXPECT_EQ(g.location.n, s.num_locations());
  EXPECT_EQ(g.aoi.n, s.num_aois());
  EXPECT_EQ(g.loc_to_aoi, s.loc_to_aoi);
  // Cross-level consistency: each location's global AOI id matches its
  // AOI node's id.
  for (int i = 0; i < g.location.n; ++i) {
    EXPECT_EQ(g.location.node_aoi_id[i],
              g.aoi.node_aoi_id[g.loc_to_aoi[i]]);
  }
}

/// Level graph with node/pair content a pure function of stable node ids
/// — the invariant the serving feature path provides — so membership
/// edits are the only difference between two builds.
LevelGraph DiffLevelFromIds(const std::vector<int>& ids) {
  const int n = static_cast<int>(ids.size());
  LevelGraph level;
  level.n = n;
  level.node_continuous = Matrix(n, kLocationContinuousDim);
  level.node_aoi_id.resize(n);
  level.node_aoi_type.resize(n);
  for (int i = 0; i < n; ++i) {
    Rng rng(5000 + static_cast<uint64_t>(ids[i]));
    for (int c = 0; c < kLocationContinuousDim; ++c) {
      level.node_continuous.At(i, c) = static_cast<float>(rng.NextDouble());
    }
    level.node_aoi_id[i] = ids[i] % 512;
    level.node_aoi_type[i] = ids[i] % synth::kNumAoiTypes;
  }
  level.edge_features = Matrix(n * n, kEdgeDim);
  level.adjacency.assign(static_cast<size_t>(n) * n, false);
  for (int i = 0; i < n; ++i) {
    level.adjacency[static_cast<size_t>(i) * n + i] = true;
    for (int j = 0; j < n; ++j) {
      Rng rng(9000 +
              static_cast<uint64_t>(std::min(ids[i], ids[j])) * 65537 +
              static_cast<uint64_t>(std::max(ids[i], ids[j])));
      for (int c = 0; c < kEdgeDim; ++c) {
        level.edge_features.At(i * n + j, c) =
            static_cast<float>(rng.NextDouble());
      }
      if (i != j && rng.Bernoulli(0.4)) {
        level.adjacency[static_cast<size_t>(i) * n + j] = true;
        level.adjacency[static_cast<size_t>(j) * n + i] = true;
      }
    }
  }
  return level;
}

TEST(DiffLevelGraphTest, ClassifiesRandomEditSequences) {
  // Property test: drive a random id set through inserts, removals,
  // permutations, feature drift and no-ops; every diff must classify
  // exactly, with the right position. Only an insert needs aligning;
  // a removal is structural, and a same-count edit (permutation, drift,
  // no-op) is kSameNodes, whose rows the delta encoder diffs itself.
  Rng rng(20260807);
  std::vector<int> ids{2, 5, 9, 14};
  LevelGraph before = DiffLevelFromIds(ids);
  for (int step = 0; step < 120; ++step) {
    const int op = rng.UniformInt(0, 4);
    std::vector<int> next_ids = ids;
    if (op == 0) {
      // Insert an id not present; sorted order decides the position.
      int id;
      do {
        id = rng.UniformInt(0, 99);
      } while (std::find(next_ids.begin(), next_ids.end(), id) !=
               next_ids.end());
      auto it = std::lower_bound(next_ids.begin(), next_ids.end(), id);
      const int pos = static_cast<int>(it - next_ids.begin());
      next_ids.insert(it, id);
      LevelGraph after = DiffLevelFromIds(next_ids);
      LevelGraphDelta delta = DiffLevelGraph(before, after);
      ASSERT_EQ(delta.kind, LevelDeltaKind::kInsert) << "step " << step;
      EXPECT_EQ(delta.pos, pos);
      // Round-trip: the index mapping recovers `before` exactly.
      for (int i = 0; i < after.n; ++i) {
        const int oi = delta.OldIndex(i);
        if (oi < 0) continue;
        EXPECT_EQ(std::memcmp(
                      after.node_continuous.data() +
                          static_cast<size_t>(i) * kLocationContinuousDim,
                      before.node_continuous.data() +
                          static_cast<size_t>(oi) * kLocationContinuousDim,
                      sizeof(float) * kLocationContinuousDim),
                  0);
        EXPECT_EQ(after.node_aoi_id[i], before.node_aoi_id[oi]);
      }
      before = std::move(after);
      ids = std::move(next_ids);
    } else if (op == 1 && ids.size() > 2) {
      const int pos = rng.UniformInt(0, static_cast<int>(ids.size()) - 1);
      next_ids.erase(next_ids.begin() + pos);
      LevelGraph after = DiffLevelFromIds(next_ids);
      LevelGraphDelta delta = DiffLevelGraph(before, after);
      ASSERT_EQ(delta.kind, LevelDeltaKind::kStructural) << "step " << step;
      EXPECT_EQ(delta.pos, -1);
      before = std::move(after);
      ids = std::move(next_ids);
    } else if (op == 2 && ids.size() > 1) {
      // A permutation keeps the count: index-aligned, every moved row
      // is content the delta encoder finds dirty.
      std::vector<int> shuffled = ids;
      do {
        rng.Shuffle(&shuffled);
      } while (shuffled == ids);
      LevelGraph after = DiffLevelFromIds(shuffled);
      const LevelGraphDelta delta = DiffLevelGraph(before, after);
      EXPECT_EQ(delta.kind, LevelDeltaKind::kSameNodes) << "step " << step;
      for (int i = 0; i < after.n; ++i) EXPECT_EQ(delta.OldIndex(i), i);
      // Not applied: keep `before` aligned with `ids`.
    } else if (op == 3) {
      // Feature drift on one aligned node.
      LevelGraph after = DiffLevelFromIds(ids);
      const int i = rng.UniformInt(0, static_cast<int>(ids.size()) - 1);
      after.node_continuous.At(i, 1) += 0.75f;
      EXPECT_EQ(DiffLevelGraph(before, after).kind,
                LevelDeltaKind::kSameNodes)
          << "step " << step;
    } else {
      LevelGraph same = DiffLevelFromIds(ids);
      EXPECT_EQ(DiffLevelGraph(before, same).kind,
                LevelDeltaKind::kSameNodes)
          << "step " << step;
    }
  }
}

TEST(DiffLevelGraphTest, MultiNodeChurnAndCountJumpsAreStructural) {
  LevelGraph base = DiffLevelFromIds({1, 2, 3, 4, 5});
  // Two nodes replaced in place: still index-aligned, so it is
  // kSameNodes — the delta encoder marks both rows dirty and stays
  // exact (or bails to a full encode past the dirty-spread guard).
  EXPECT_EQ(DiffLevelGraph(base, DiffLevelFromIds({1, 2, 30, 40, 5})).kind,
            LevelDeltaKind::kSameNodes);
  // Count jumps by two.
  EXPECT_EQ(DiffLevelGraph(base, DiffLevelFromIds({1, 2, 3, 4, 5, 6, 7}))
                .kind,
            LevelDeltaKind::kStructural);
  EXPECT_EQ(DiffLevelGraph(base, DiffLevelFromIds({1, 2, 3})).kind,
            LevelDeltaKind::kStructural);
  // A single removal (a pick-up) is structural as well.
  EXPECT_EQ(DiffLevelGraph(base, DiffLevelFromIds({1, 2, 4, 5})).kind,
            LevelDeltaKind::kStructural);
  // An insert whose later rows do not shift by one is not an insert.
  EXPECT_EQ(DiffLevelGraph(base, DiffLevelFromIds({1, 2, 9, 3, 4, 6})).kind,
            LevelDeltaKind::kStructural);
  // Same nodes, one adjacency bit flipped: kSameNodes (masks may drift —
  // the delta encoder owns that).
  LevelGraph rewired = DiffLevelFromIds({1, 2, 3, 4, 5});
  rewired.adjacency[0 * 5 + 4] = !rewired.adjacency[0 * 5 + 4];
  rewired.adjacency[4 * 5 + 0] = rewired.adjacency[0 * 5 + 4];
  EXPECT_EQ(DiffLevelGraph(base, rewired).kind, LevelDeltaKind::kSameNodes);
  // Edge-feature drift alone: kSameNodes as well.
  LevelGraph edge_drift = DiffLevelFromIds({1, 2, 3, 4, 5});
  edge_drift.edge_features.At(7, 0) += 0.5f;
  EXPECT_EQ(DiffLevelGraph(base, edge_drift).kind,
            LevelDeltaKind::kSameNodes);
}

TEST(MultiLevelGraphTest, SingleAoiSampleStillBuilds) {
  synth::DataConfig config;
  config.seed = 33;
  config.world.num_aois = 40;
  config.couriers.num_couriers = 4;
  config.num_days = 4;
  synth::DatasetSplits splits = synth::BuildDataset(config);
  for (const synth::Sample& s : splits.train.samples) {
    if (s.num_aois() == 1) {
      MultiLevelGraph g = BuildMultiLevelGraph(s, GraphConfig{});
      EXPECT_EQ(g.aoi.n, 1);
      EXPECT_TRUE(g.aoi.AdjacentTo(0, 0));
      return;
    }
  }
  GTEST_SKIP() << "no single-AOI sample in this seed";
}

}  // namespace
}  // namespace m2g::graph
