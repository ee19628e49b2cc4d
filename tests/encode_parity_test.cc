// Encode fast-path parity suite: the fused no-grad GAT-e kernels driven
// through a per-request EncodePlan must reproduce the legacy autograd
// encode bit for bit — under pooled AND plain storage, against the legacy
// path in grad mode AND under NoGradGuard, serial AND concurrent. Also
// pins full-model Predict parity between no-grad (fused encode) and grad
// mode (legacy encode), the grad-mode dispatch back to legacy, and the
// zero steady-state pool-miss property of a planned encode.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/model.h"
#include "graph/features.h"
#include "obs/metrics.h"
#include "synth/world.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::core {
namespace {

/// Forces the pool globally on or off for a scope, restoring the prior
/// setting on exit — the suite runs every parity check both ways.
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

/// Random but structurally valid level graph: symmetric adjacency with
/// self-loops, ids within the embedding vocabularies.
graph::LevelGraph MakeLevel(int n, uint64_t seed) {
  Rng rng(seed);
  graph::LevelGraph level;
  level.n = n;
  level.node_continuous =
      Matrix::Random(n, graph::kLocationContinuousDim, -1, 1, &rng);
  level.node_aoi_id.resize(n);
  level.node_aoi_type.resize(n);
  for (int i = 0; i < n; ++i) {
    level.node_aoi_id[i] = rng.UniformInt(0, 511);
    level.node_aoi_type[i] = rng.UniformInt(0, synth::kNumAoiTypes - 1);
  }
  level.edge_features = Matrix::Random(n * n, graph::kEdgeDim, 0, 1, &rng);
  level.adjacency.assign(static_cast<size_t>(n) * n, false);
  for (int i = 0; i < n; ++i) {
    level.adjacency[static_cast<size_t>(i) * n + i] = true;
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) {
        level.adjacency[static_cast<size_t>(i) * n + j] = true;
        level.adjacency[static_cast<size_t>(j) * n + i] = true;
      }
    }
  }
  return level;
}

/// Paper-sized encoder (hidden 48, 4 heads, 2 layers — exercises both the
/// concat hidden layer and the averaged last layer) over a random level.
struct Fixture {
  explicit Fixture(int n, uint64_t seed = 901) : rng(seed) {
    config.seed = 11;
    encoder = std::make_unique<LevelEncoder>(
        config, graph::kLocationContinuousDim, &rng);
    level = MakeLevel(n, seed + 1);
    global =
        Tensor::Constant(Matrix::Random(1, config.courier_dim, -1, 1, &rng));
  }

  ModelConfig config;
  Rng rng;
  std::unique_ptr<LevelEncoder> encoder;
  graph::LevelGraph level;
  Tensor global;
};

TEST(EncodeParityTest, FastEncodeMatchesLegacyBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    for (int n : {1, 2, 5, 17, 30}) {
      Fixture f(n, 700 + n);
      // Legacy in grad mode builds the full autograd graph — these are
      // the canonical training-path bits.
      EncodedLevel grad_ref = f.encoder->EncodeLegacy(f.level, f.global);
      NoGradGuard no_grad;
      EncodedLevel nograd_ref = f.encoder->EncodeLegacy(f.level, f.global);
      EncodePlan plan(n, f.config.hidden_dim);
      EncodedLevel fast = f.encoder->EncodeFast(f.level, f.global, &plan);
      ExpectBitEqual(fast.nodes.value(), grad_ref.nodes.value(),
                     "nodes vs grad-mode legacy");
      ExpectBitEqual(fast.edges.value(), grad_ref.edges.value(),
                     "edges vs grad-mode legacy");
      ExpectBitEqual(fast.nodes.value(), nograd_ref.nodes.value(),
                     "nodes vs no-grad legacy");
      ExpectBitEqual(fast.edges.value(), nograd_ref.edges.value(),
                     "edges vs no-grad legacy");
      // An oversized plan (serving sizes it to the max level, then reuses
      // it for the smaller one) must not change a single bit.
      EncodePlan big(n + 13, f.config.hidden_dim);
      EncodedLevel fast_big = f.encoder->EncodeFast(f.level, f.global, &big);
      ExpectBitEqual(fast_big.nodes.value(), fast.nodes.value(),
                     "nodes with oversized plan");
      ExpectBitEqual(fast_big.edges.value(), fast.edges.value(),
                     "edges with oversized plan");
    }
  }
}

// Encode() must route by grad mode, not by plan presence: with gradients
// enabled the plan is ignored and the legacy autograd path runs (the
// encode.fast_layers counter stays put), so a misplaced plan can never
// leak a constant into a training graph.
TEST(EncodeParityTest, GradModeDispatchesToLegacyEvenWithPlan) {
  Fixture f(9);
  obs::Counter& fast_layers =
      obs::MetricsRegistry::Global().counter("encode.fast_layers");
  obs::Counter& legacy_layers =
      obs::MetricsRegistry::Global().counter("encode.legacy_layers");
  const uint64_t fast_before = fast_layers.Value();
  const uint64_t legacy_before = legacy_layers.Value();
  EncodePlan plan(9, f.config.hidden_dim);
  ASSERT_TRUE(GradMode::enabled());
  EncodedLevel enc = f.encoder->Encode(f.level, f.global, &plan);
  EXPECT_EQ(fast_layers.Value(), fast_before);
  EXPECT_GT(legacy_layers.Value(), legacy_before);
  // And it is a real gradient graph: backprop reaches the encoder.
  Sum(enc.nodes).Backward();
  int touched = 0;
  for (const Tensor& p : f.encoder->Parameters()) {
    if (p.grad().SameShape(p.value()) && p.grad().MaxAbs() > 0) ++touched;
  }
  EXPECT_GT(touched, 0);

  // Under NoGradGuard the same call takes the fast path.
  NoGradGuard no_grad;
  f.encoder->Encode(f.level, f.global, &plan);
  EXPECT_GT(fast_layers.Value(), fast_before);
}

synth::DataConfig TinyDataConfig() {
  synth::DataConfig dc;
  dc.seed = 404;
  dc.world.num_aois = 60;
  dc.world.num_districts = 3;
  dc.couriers.num_couriers = 6;
  dc.num_days = 2;
  return dc;
}

ModelConfig TinyModelConfig() {
  ModelConfig c;
  c.seed = 5;
  c.hidden_dim = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.aoi_id_embed_dim = 4;
  c.aoi_type_embed_dim = 2;
  c.lstm_hidden_dim = 16;
  c.courier_dim = 8;
  c.pos_enc_dim = 4;
  return c;
}

// End-to-end parity: the same model's Predict must emit identical routes
// and bit-identical arrival times under NoGradGuard (fused encode, both
// levels sharing one plan) and in grad mode (legacy autograd encode).
TEST(EncodeParityTest, NoGradPredictMatchesGradModePredict) {
  const synth::DatasetSplits splits = synth::BuildDataset(TinyDataConfig());
  ASSERT_GT(splits.train.size(), 4);
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    M2g4Rtp model(TinyModelConfig());
    for (int i = 0; i < 4; ++i) {
      const synth::Sample& s = splits.train.samples[i];
      ASSERT_TRUE(GradMode::enabled());
      const RtpPrediction b = model.Predict(s);
      NoGradGuard no_grad;
      const RtpPrediction a = model.Predict(s);
      EXPECT_EQ(a.location_route, b.location_route) << "sample " << i;
      EXPECT_EQ(a.aoi_route, b.aoi_route) << "sample " << i;
      EXPECT_EQ(a.location_times_min, b.location_times_min) << "sample " << i;
      EXPECT_EQ(a.aoi_times_min, b.aoi_times_min) << "sample " << i;
    }
  }
}

// After one warm-up request, a planned encode must run entirely off the
// free lists: the plan's scratch, the embedding constants and the fast
// path's outputs all reuse fixed shapes, so a steady-state request makes
// zero pool misses.
TEST(EncodeParityTest, SteadyStateEncodeHasZeroPoolMisses) {
  PoolMode mode(true);
  TensorPool::ReleaseRetained();
  Fixture f(20);
  NoGradGuard no_grad;
  {
    ArenaGuard warmup;
    EncodePlan plan(20, f.config.hidden_dim);
    f.encoder->Encode(f.level, f.global, &plan);
  }
  ArenaGuard steady;
  EncodePlan plan(20, f.config.hidden_dim);
  f.encoder->Encode(f.level, f.global, &plan);
  const TensorPool::Stats stats = steady.ScopeStats();
  EXPECT_EQ(stats.pool_misses, 0u);
  EXPECT_GT(stats.pool_hits, 0u);
}

// Shared-encoder fast encodes from several threads (each with its own
// plan and arena) must be race-free and agree with the serial result —
// the TSan job runs this test.
TEST(EncodeParityTest, ConcurrentEncodeMatchesSerial) {
  Fixture f(15);
  std::vector<float> expected_nodes;
  std::vector<float> expected_edges;
  {
    NoGradGuard no_grad;
    ArenaGuard scope;
    EncodePlan plan(15, f.config.hidden_dim);
    EncodedLevel enc = f.encoder->EncodeFast(f.level, f.global, &plan);
    const Matrix& nv = enc.nodes.value();
    const Matrix& ev = enc.edges.value();
    expected_nodes.assign(nv.data(), nv.data() + nv.size());
    expected_edges.assign(ev.data(), ev.data() + ev.size());
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      NoGradGuard no_grad;  // grad mode is thread-local
      for (int iter = 0; iter < 8; ++iter) {
        ArenaGuard request;
        EncodePlan plan(15, f.config.hidden_dim);
        EncodedLevel enc = f.encoder->EncodeFast(f.level, f.global, &plan);
        const Matrix& nv = enc.nodes.value();
        const Matrix& ev = enc.edges.value();
        if (std::memcmp(nv.data(), expected_nodes.data(),
                        expected_nodes.size() * sizeof(float)) != 0 ||
            std::memcmp(ev.data(), expected_edges.data(),
                        expected_edges.size() * sizeof(float)) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace m2g::core
