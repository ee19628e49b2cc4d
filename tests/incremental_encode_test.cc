// Incremental re-encode parity suite: a delta step over a warm
// LevelEncodeCache must reproduce a from-scratch EncodeFast bit for bit —
// for appends, middle inserts, swapped nodes and pure feature drift,
// under pooled AND plain tensor storage, with removals refused — and
// PredictIncremental must match Predict exactly on order-arrival request
// streams while reporting the documented fallback reasons (structural
// diffs, capacity growth, scheduled refresh, global-embedding drift,
// grad mode). A seeded random edit stream checks the session path
// against the autograd encode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/incremental_encode.h"
#include "core/model.h"
#include "graph/features.h"
#include "graph/multi_level_graph.h"
#include "obs/metrics.h"
#include "serve/feature_extractor.h"
#include "synth/world.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::core {
namespace {

/// Forces the pool globally on or off for a scope, restoring the prior
/// setting on exit.
class PoolMode {
 public:
  explicit PoolMode(bool enabled) : saved_(TensorPool::enabled()) {
    TensorPool::set_enabled(enabled);
  }
  ~PoolMode() { TensorPool::set_enabled(saved_); }

 private:
  bool saved_;
};

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

void ExpectLevelBitEqual(const EncodedLevel& got, const EncodedLevel& want,
                         const char* what) {
  ExpectBitEqual(got.nodes.value(), want.nodes.value(), what);
  ExpectBitEqual(got.edges.value(), want.edges.value(), what);
}

/// Node/pair content derived deterministically from stable node ids, so a
/// graph built from any id subset agrees bitwise with any other subset on
/// shared nodes and shared pairs — exactly the single-node-delta contract
/// the serving feature path provides (node features are per-task, edge
/// features are pair-local).
/// `version` > 0 gives the node drifted features under the same id.
Matrix NodeRow(int id, int version, int cont_dim) {
  Rng rng(1000 + static_cast<uint64_t>(id) +
          static_cast<uint64_t>(version) * 1000003);
  return Matrix::Random(1, cont_dim, -1, 1, &rng);
}

uint64_t PairSeed(int a, int b) {
  return 7777 + static_cast<uint64_t>(std::min(a, b)) * 131071 +
         static_cast<uint64_t>(std::max(a, b));
}

/// `versions`, when given, is indexed by node id (see NodeRow).
graph::LevelGraph LevelFromIds(
    const std::vector<int>& ids, const std::vector<int>* versions = nullptr,
    int cont_dim = graph::kLocationContinuousDim) {
  const int n = static_cast<int>(ids.size());
  graph::LevelGraph level;
  level.n = n;
  level.node_continuous = Matrix(n, cont_dim);
  level.node_aoi_id.resize(n);
  level.node_aoi_type.resize(n);
  for (int i = 0; i < n; ++i) {
    const Matrix row = NodeRow(
        ids[i], versions != nullptr ? (*versions)[ids[i]] : 0, cont_dim);
    std::memcpy(level.node_continuous.data() +
                    static_cast<size_t>(i) * cont_dim,
                row.data(), sizeof(float) * cont_dim);
    level.node_aoi_id[i] = ids[i] % 512;
    level.node_aoi_type[i] = ids[i] % synth::kNumAoiTypes;
  }
  level.edge_features = Matrix(n * n, graph::kEdgeDim);
  level.adjacency.assign(static_cast<size_t>(n) * n, false);
  for (int i = 0; i < n; ++i) {
    level.adjacency[static_cast<size_t>(i) * n + i] = true;
    for (int j = 0; j < n; ++j) {
      Rng rng(PairSeed(ids[i], ids[j]));
      Matrix e = Matrix::Random(1, graph::kEdgeDim, 0, 1, &rng);
      std::memcpy(level.edge_features.data() +
                      (static_cast<size_t>(i) * n + j) * graph::kEdgeDim,
                  e.data(), sizeof(float) * graph::kEdgeDim);
      if (i != j && rng.Bernoulli(0.45)) {
        level.adjacency[static_cast<size_t>(i) * n + j] = true;
        level.adjacency[static_cast<size_t>(j) * n + i] = true;
      }
    }
  }
  return level;
}

/// Paper-sized encoder (hidden 48, 4 heads, 2 layers — exercises both the
/// concat hidden layer and the averaged last layer).
struct EncoderFixture {
  explicit EncoderFixture(uint64_t seed = 901,
                          int cont_dim = graph::kLocationContinuousDim)
      : rng(seed) {
    config.seed = 11;
    encoder = std::make_unique<LevelEncoder>(config, cont_dim, &rng);
    global =
        Tensor::Constant(Matrix::Random(1, config.courier_dim, -1, 1, &rng));
  }

  EncodedLevel Full(const graph::LevelGraph& level) {
    EncodePlan plan(level.n, config.hidden_dim);
    return encoder->EncodeFast(level, global, &plan);
  }

  ModelConfig config;
  Rng rng;
  std::unique_ptr<LevelEncoder> encoder;
  Tensor global;
};

/// Warms a cache on `start` then drives it through `steps`, asserting
/// every delta-encoded step bitwise against a fresh full encode. Returns
/// how many steps actually took the delta path.
int DriveStream(EncoderFixture* f, const std::vector<int>& start,
                const std::vector<std::vector<int>>& steps,
                const char* what) {
  NoGradGuard no_grad;
  LevelEncodeCache cache;
  graph::LevelGraph prev = LevelFromIds(start);
  {
    EncodePlan plan(prev.n, f->config.hidden_dim);
    EncodedLevel warm =
        f->encoder->EncodeFastCached(prev, f->global, &plan, &cache);
    ExpectLevelBitEqual(warm, f->Full(prev), what);
  }
  int delta_steps = 0;
  for (const std::vector<int>& ids : steps) {
    graph::LevelGraph next = LevelFromIds(ids);
    const graph::LevelGraphDelta delta = graph::DiffLevelGraph(prev, next);
    EncodePlan plan(std::max(prev.n, next.n), f->config.hidden_dim);
    std::optional<EncodedLevel> got = f->encoder->EncodeDelta(
        next, prev, delta, f->global, &plan, &cache);
    if (got.has_value()) {
      ++delta_steps;
      ExpectLevelBitEqual(*got, f->Full(next), what);
    } else {
      // Fallback: re-warm, as PredictIncremental would.
      EncodedLevel full =
          f->encoder->EncodeFastCached(next, f->global, &plan, &cache);
      ExpectLevelBitEqual(full, f->Full(next), what);
    }
    prev = std::move(next);
  }
  return delta_steps;
}

TEST(IncrementalEncodeTest, CachedWarmEncodeMatchesEncodeFastBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    NoGradGuard no_grad;
    for (int n : {1, 2, 5, 17}) {
      EncoderFixture f(700 + n);
      std::vector<int> ids;
      for (int i = 0; i < n; ++i) ids.push_back(3 * i);
      graph::LevelGraph level = LevelFromIds(ids);
      LevelEncodeCache cache;
      EncodePlan plan(n, f.config.hidden_dim);
      EncodedLevel cached =
          f.encoder->EncodeFastCached(level, f.global, &plan, &cache);
      ExpectLevelBitEqual(cached, f.Full(level), "warm vs EncodeFast");
      EXPECT_EQ(cache.n, n);
      EXPECT_GT(cache.bytes(), 0u);
    }
  }
}

TEST(IncrementalEncodeTest, AppendArrivalStreamBitwise) {
  // The common serving case: orders arrive with ascending ids, so every
  // new node appends at the end of the ordering (index-stable, no remap).
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    EncoderFixture f(811);
    std::vector<int> ids{0, 2, 4, 6, 8};
    std::vector<std::vector<int>> steps;
    for (int id = 10; id <= 20; id += 2) {
      ids.push_back(id);
      steps.push_back(ids);
    }
    const int deltas = DriveStream(&f, {0, 2, 4, 6, 8}, steps, "append");
    // With pair-local features every append is single-node-explainable;
    // expect the delta path to carry (nearly) the whole stream.
    EXPECT_GE(deltas, 5) << "append stream barely used the delta path";
  }
}

TEST(IncrementalEncodeTest, MiddleInsertAndRemoveBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    EncoderFixture f(823);
    // Insert into the middle (remap), then an insert right after the
    // remap; removals in the middle and at the end are structural and
    // re-warm, and the append after them delta-encodes again.
    const std::vector<std::vector<int>> steps = {
        {10, 20, 25, 30, 40, 50},      // middle insert (pos 2)
        {10, 15, 20, 25, 30, 40, 50},  // middle insert (pos 1)
        {10, 15, 20, 25, 40, 50},      // middle remove: full encode
        {10, 15, 20, 25, 40},          // end remove: full encode
        {10, 15, 20, 25, 40, 60},      // append
    };
    const int deltas =
        DriveStream(&f, {10, 20, 30, 40, 50}, steps, "insert/remove");
    EXPECT_EQ(deltas, 3);
  }
}

TEST(IncrementalEncodeTest, FeatureDriftOnAlignedNodesBitwise) {
  // Same node set, one node's features drift (e.g. an AOI centroid moved
  // when an order joined it): classified kSameNodes, delta-encoded.
  EncoderFixture f(829);
  NoGradGuard no_grad;
  const std::vector<int> ids{1, 3, 5, 7, 9, 11};
  graph::LevelGraph before = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(before.n, f.config.hidden_dim);
  f.encoder->EncodeFastCached(before, f.global, &plan, &cache);

  graph::LevelGraph after = LevelFromIds(ids);
  after.node_continuous.At(2, 0) += 0.25f;
  after.node_continuous.At(2, 3) -= 0.5f;
  const graph::LevelGraphDelta delta = graph::DiffLevelGraph(before, after);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kSameNodes);
  std::optional<EncodedLevel> got =
      f.encoder->EncodeDelta(after, before, delta, f.global, &plan, &cache);
  ASSERT_TRUE(got.has_value());
  ExpectLevelBitEqual(*got, f.Full(after), "feature drift");
}

TEST(IncrementalEncodeTest, IdenticalGraphDeltaEncodesBitwise) {
  EncoderFixture f(831);
  NoGradGuard no_grad;
  const std::vector<int> ids{2, 4, 6, 8};
  graph::LevelGraph level = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(level.n, f.config.hidden_dim);
  f.encoder->EncodeFastCached(level, f.global, &plan, &cache);
  graph::LevelGraph same = LevelFromIds(ids);
  // No dirty row: the delta recomputes nothing and serves the cache.
  const graph::LevelGraphDelta delta = graph::DiffLevelGraph(level, same);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kSameNodes);
  std::optional<EncodedLevel> got =
      f.encoder->EncodeDelta(same, level, delta, f.global, &plan, &cache);
  ASSERT_TRUE(got.has_value());
  ExpectLevelBitEqual(*got, f.Full(same), "identical");
}

TEST(IncrementalEncodeTest, StructuralAndOversizeDeltasRefuse) {
  EncoderFixture f(837);
  NoGradGuard no_grad;
  const std::vector<int> ids{5, 10, 15, 20};
  graph::LevelGraph level = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(32, f.config.hidden_dim);
  f.encoder->EncodeFastCached(level, f.global, &plan, &cache);

  // Removal (a pick-up): structural.
  graph::LevelGraph removed = LevelFromIds({5, 15, 20});
  graph::LevelGraphDelta delta = graph::DiffLevelGraph(level, removed);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kStructural);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(removed, level, delta, f.global, &plan, &cache)
          .has_value());

  // A graph past the cache capacity refuses regardless of the diff.
  std::vector<int> big_ids;
  for (int i = 0; i <= cache.cap; ++i) big_ids.push_back(i);
  graph::LevelGraph big = LevelFromIds(big_ids);
  delta = graph::DiffLevelGraph(level, big);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(big, level, delta, f.global, &plan, &cache)
          .has_value());

  // A cold cache refuses everything.
  LevelEncodeCache cold;
  delta = graph::DiffLevelGraph(level, level);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(level, level, delta, f.global, &plan, &cold)
          .has_value());
}

TEST(IncrementalEncodeTest, DirtySpreadBailsOutToFullEncode) {
  // Every node's features move (the courier walked): the delta would
  // recompute more than half the rows, so it declines and the caller
  // re-warms.
  EncoderFixture f(839);
  NoGradGuard no_grad;
  const std::vector<int> ids{1, 2, 3, 4, 5, 6};
  graph::LevelGraph before = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(before.n, f.config.hidden_dim);
  f.encoder->EncodeFastCached(before, f.global, &plan, &cache);
  graph::LevelGraph after = LevelFromIds(ids);
  for (int i = 0; i < after.n; ++i) after.node_continuous.At(i, 0) += 1.0f;
  const graph::LevelGraphDelta delta = graph::DiffLevelGraph(before, after);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kSameNodes);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(after, before, delta, f.global, &plan, &cache)
          .has_value());
  // The cache survives a refusal well enough to re-warm correctly.
  EncodedLevel full =
      f.encoder->EncodeFastCached(after, f.global, &plan, &cache);
  ExpectLevelBitEqual(full, f.Full(after), "re-warm after refusal");
}

TEST(IncrementalEncodeTest, RandomEditStreamMatchesLegacyBitwise) {
  // A seeded stream of random inserts, removals (pick-ups anywhere,
  // cancellations mid-list), two-node swaps and node-feature drifts at
  // random positions, on a location-level and an AOI-level encoder.
  // The node count wanders between 2 and 24, so it outgrows the first
  // cache capacity (16) and forces a regrow. After every edit the session
  // encode (EncodeDelta, or the EncodeFastCached re-warm a refusal falls
  // back to) must equal the autograd encode bit for bit.
  constexpr int kSteps = 240;
  constexpr int kMaxNodes = 24;
  struct Level {
    const char* name;
    int cont_dim;
    uint64_t seed;
  };
  for (const Level& lv : {Level{"location", graph::kLocationContinuousDim, 71},
                          Level{"aoi", graph::kAoiContinuousDim, 72}}) {
    SCOPED_TRACE(lv.name);
    EncoderFixture f(lv.seed, lv.cont_dim);
    NoGradGuard no_grad;
    Rng rng(lv.seed);
    std::vector<int> ids{0, 1, 2, 3, 4, 5};
    std::vector<int> versions(ids.size() + kSteps, 0);  // by node id
    int next_id = static_cast<int>(ids.size());
    const auto build = [&] {
      return LevelFromIds(ids, &versions, lv.cont_dim);
    };
    LevelEncodeCache cache;
    graph::LevelGraph prev = build();
    {
      EncodePlan plan(prev.n, f.config.hidden_dim);
      ExpectLevelBitEqual(
          f.encoder->EncodeFastCached(prev, f.global, &plan, &cache),
          f.encoder->EncodeLegacy(prev, f.global), "warm");
    }
    int delta_steps = 0;
    int swap_deltas = 0;
    int capacity_crossings = 0;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE(step);
      const int n = static_cast<int>(ids.size());
      const double u = rng.NextDouble();
      bool swap = false;
      if (n < kMaxNodes && (n <= 2 || u < 0.40)) {
        ids.insert(ids.begin() + rng.UniformInt(0, n), next_id++);
      } else if (u < 0.55) {
        ids.erase(ids.begin() + rng.UniformInt(0, n - 1));
      } else if (n > 3 && u < 0.65) {
        ids.erase(ids.begin() + rng.UniformInt(1, n - 2));
      } else if (u < 0.80) {
        const int a = rng.UniformInt(0, n - 1);
        const int b = (a + rng.UniformInt(1, n - 1)) % n;
        std::swap(ids[a], ids[b]);
        swap = true;
      } else {
        ++versions[ids[rng.UniformInt(0, n - 1)]];
      }
      graph::LevelGraph next = build();
      const graph::LevelGraphDelta delta = graph::DiffLevelGraph(prev, next);
      capacity_crossings += next.n > cache.cap ? 1 : 0;
      EncodePlan plan(std::max(prev.n, next.n), f.config.hidden_dim);
      std::optional<EncodedLevel> got = f.encoder->EncodeDelta(
          next, prev, delta, f.global, &plan, &cache);
      delta_steps += got.has_value() ? 1 : 0;
      swap_deltas += swap && got.has_value() ? 1 : 0;
      if (!got.has_value()) {
        got = f.encoder->EncodeFastCached(next, f.global, &plan, &cache);
      }
      ExpectLevelBitEqual(*got, f.encoder->EncodeLegacy(next, f.global),
                          "session vs legacy");
      prev = std::move(next);
    }
    EXPECT_GE(capacity_crossings, 1);
    EXPECT_GE(delta_steps, kSteps / 2) << "the stream lived on fallbacks";
    EXPECT_GE(swap_deltas, 1) << "no swap took the delta path";
  }
}

/// World + untrained (seed-initialized) model for end-to-end
/// PredictIncremental parity. Training is irrelevant to parity and slow.
struct ModelFixture {
  synth::DataConfig data_config;
  synth::BuiltWorld built;
  std::unique_ptr<M2g4Rtp> model;
  std::unique_ptr<serve::FeatureExtractor> extractor;
  const synth::Sample* sample = nullptr;  // richest test sample

  ModelFixture()
      : data_config([] {
          synth::DataConfig dc;
          dc.seed = 424;
          dc.world.num_aois = 60;
          dc.world.num_districts = 3;
          dc.couriers.num_couriers = 5;
          dc.num_days = 6;
          return dc;
        }()),
        built(synth::BuildWorldAndDataset(data_config)) {
    model = std::make_unique<M2g4Rtp>(SmallConfig());
    extractor = std::make_unique<serve::FeatureExtractor>(&built.world);
    for (const synth::Sample& s : built.splits.test.samples) {
      if (sample == nullptr ||
          s.num_locations() > sample->num_locations()) {
        sample = &s;
      }
    }
    M2G_CHECK(sample != nullptr);
    M2G_CHECK_GE(sample->num_locations(), 4);
  }

  static ModelConfig SmallConfig() {
    ModelConfig mc;
    mc.hidden_dim = 16;
    mc.num_heads = 2;
    mc.num_layers = 2;
    mc.aoi_id_embed_dim = 4;
    mc.aoi_type_embed_dim = 2;
    mc.lstm_hidden_dim = 16;
    mc.courier_dim = 8;
    mc.pos_enc_dim = 4;
    mc.seed = 97;
    return mc;
  }

  serve::RtpRequest RequestWithOrders(int count) const {
    serve::RtpRequest req;
    req.courier = sample->courier;
    req.courier_pos = sample->courier_pos;
    req.query_time_min = sample->query_time_min;
    req.weather = sample->weather;
    req.weekday = sample->weekday;
    for (int i = 0; i < count && i < sample->num_locations(); ++i) {
      const synth::LocationTask& task = sample->locations[i];
      synth::Order o;
      o.id = task.order_id;
      o.pos = task.pos;
      o.aoi_id = task.aoi_id;
      o.accept_time_min = task.accept_time_min;
      o.deadline_min = task.deadline_min;
      req.pending.push_back(o);
    }
    return req;
  }
};

void ExpectPredictionBitEqual(const RtpPrediction& got,
                              const RtpPrediction& want) {
  EXPECT_EQ(got.location_route, want.location_route);
  EXPECT_EQ(got.aoi_route, want.aoi_route);
  ASSERT_EQ(got.location_times_min.size(), want.location_times_min.size());
  for (size_t i = 0; i < want.location_times_min.size(); ++i) {
    EXPECT_EQ(got.location_times_min[i], want.location_times_min[i]) << i;
  }
  ASSERT_EQ(got.aoi_times_min.size(), want.aoi_times_min.size());
  for (size_t i = 0; i < want.aoi_times_min.size(); ++i) {
    EXPECT_EQ(got.aoi_times_min[i], want.aoi_times_min[i]) << i;
  }
}

TEST(PredictIncrementalTest, ArrivalStreamMatchesPredictBitwise) {
  // Orders arrive one at a time, then complete one at a time: every
  // response must match the stateless Predict bitwise, pooled and plain.
  ModelFixture f;
  const int total = f.sample->num_locations();
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    NoGradGuard no_grad;
    IncrementalState state;
    int delta_steps = 0;
    auto serve_one = [&](int count) {
      synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(count));
      IncrementalResult res;
      RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
      RtpPrediction want = f.model->Predict(s);
      ExpectPredictionBitEqual(got, want);
      delta_steps += res.delta ? 1 : 0;
    };
    for (int count = 2; count <= total; ++count) serve_one(count);
    for (int count = total - 1; count >= 2; --count) serve_one(count);
    // The stream must actually exercise the delta path, not live on
    // fallbacks.
    EXPECT_GT(delta_steps, 0) << "pooled=" << pooled;
  }
}

TEST(PredictIncrementalTest, RefreshPeriodForcesScheduledFullEncode) {
  ModelFixture f;
  NoGradGuard no_grad;
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(5));
  IncrementalResult res;
  f.model->PredictIncremental(s, &state, &res);
  EXPECT_EQ(res.fallback, IncrementalFallback::kCold);
  // period - 1 consecutive deltas...
  constexpr int kPeriod = ModelConfig::incremental_refresh_period;
  for (int i = 1; i < kPeriod; ++i) {
    f.model->PredictIncremental(s, &state, &res);
    ASSERT_TRUE(res.delta) << "delta " << i;
  }
  EXPECT_EQ(state.deltas_since_full, static_cast<uint64_t>(kPeriod - 1));
  // ...then deltas_since_full + 1 reaches the period: scheduled refresh.
  RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
  EXPECT_FALSE(res.delta);
  EXPECT_EQ(res.fallback, IncrementalFallback::kRefresh);
  ExpectPredictionBitEqual(got, f.model->Predict(s));
  // And the cycle restarts.
  f.model->PredictIncremental(s, &state, &res);
  EXPECT_TRUE(res.delta);
}

TEST(PredictIncrementalTest, GlobalEmbeddingDriftFallsBack) {
  ModelFixture f;
  NoGradGuard no_grad;
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(5));
  f.model->PredictIncremental(s, &state, nullptr);
  // A different weather bucket changes the global embedding bitwise.
  serve::RtpRequest req = f.RequestWithOrders(5);
  req.weather = (req.weather + 1) % synth::kNumWeatherCodes;
  synth::Sample drifted = f.extractor->BuildSample(req);
  IncrementalResult res;
  RtpPrediction got = f.model->PredictIncremental(drifted, &state, &res);
  EXPECT_FALSE(res.delta);
  EXPECT_EQ(res.fallback, IncrementalFallback::kGlobalChanged);
  ExpectPredictionBitEqual(got, f.model->Predict(drifted));
  // The re-warm adopted the new embedding: the next identical request
  // delta-encodes again.
  f.model->PredictIncremental(drifted, &state, &res);
  EXPECT_TRUE(res.delta);
}

TEST(PredictIncrementalTest, CapacityGrowthFallsBackOnce) {
  ModelFixture f;
  NoGradGuard no_grad;
  IncrementalState state;
  const int total = f.sample->num_locations();
  // Warm small, then grow the pending set one by one; when a level
  // outgrows its padded capacity the step full-encodes (kCapacity) and
  // regrows, and the stream resumes delta-encoding.
  bool saw_capacity = false;
  for (int count = 2; count <= total; ++count) {
    synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(count));
    IncrementalResult res;
    RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
    ExpectPredictionBitEqual(got, f.model->Predict(s));
    saw_capacity |= res.fallback == IncrementalFallback::kCapacity;
  }
  if (total > 16) {
    // kMinCapacity is 16: a stream past it must have hit the growth path.
    EXPECT_TRUE(saw_capacity);
  }
}

TEST(PredictIncrementalTest, GradModeDisablesSessionsAndMatchesPredict) {
  ModelFixture f;
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(4));
  IncrementalResult res;
  RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
  EXPECT_FALSE(res.delta);
  EXPECT_EQ(res.fallback, IncrementalFallback::kDisabled);
  EXPECT_FALSE(state.warm);
  EXPECT_EQ(state.bytes(), 0u);
  ExpectPredictionBitEqual(got, f.model->Predict(s));
}

TEST(PredictIncrementalTest, ConcurrentStatesAreIndependent) {
  // One shared const model, one IncrementalState per thread (the session
  // store's locking discipline): streams must stay bitwise-correct and
  // data-race-free (TSan job).
  ModelFixture f;
  const int total = std::min(f.sample->num_locations(), 8);
  std::vector<RtpPrediction> want(total + 1);
  {
    NoGradGuard no_grad;
    for (int count = 2; count <= total; ++count) {
      want[count] = f.model->Predict(
          f.extractor->BuildSample(f.RequestWithOrders(count)));
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      NoGradGuard no_grad;
      IncrementalState state;
      for (int round = 0; round < 2; ++round) {
        for (int count = 2; count <= total; ++count) {
          synth::Sample s =
              f.extractor->BuildSample(f.RequestWithOrders(count));
          RtpPrediction got =
              f.model->PredictIncremental(s, &state, nullptr);
          ExpectPredictionBitEqual(got, want[count]);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(PredictIncrementalTest, DeltaStepsMoveTheCounters) {
  ModelFixture f;
  NoGradGuard no_grad;
  obs::SetEnabled(true);
  obs::Counter& deltas =
      obs::MetricsRegistry::Global().counter("encode.delta_steps");
  const uint64_t before = deltas.Value();
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(5));
  f.model->PredictIncremental(s, &state, nullptr);
  f.model->PredictIncremental(s, &state, nullptr);
  obs::SetEnabled(false);
  EXPECT_GT(deltas.Value(), before);
}

}  // namespace
}  // namespace m2g::core
