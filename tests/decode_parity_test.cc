// Decode fast-path parity suite: the request-scoped key cache, the
// batched beam step and the fused masked-score kernel must reproduce the
// legacy per-step-recompute decoder bit for bit — under pooled AND plain
// storage, in grad mode AND under NoGradGuard, serial AND concurrent.
// Also pins the hoisted TeacherForcedLoss (value + every parameter
// gradient bitwise vs. the legacy step-loop) plus its gradcheck, the
// deterministic (logp, hyp, node) beam tie-break, and the zero
// steady-state pool-miss property of the decode loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "core/route_decoder.h"
#include "obs/metrics.h"
#include "tensor/grad_mode.h"
#include "tensor/ops.h"
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

constexpr int kNodeDim = 48;
constexpr int kCourierDim = 24;
constexpr int kLstmHidden = 48;

struct Fixture {
  explicit Fixture(int n, uint64_t seed = 77) : rng(seed) {
    decoder = std::make_unique<AttentionRouteDecoder>(
        kNodeDim, kCourierDim, kLstmHidden, &rng);
    nodes = Tensor::Constant(Matrix::Random(n, kNodeDim, -1, 1, &rng));
    courier = Tensor::Constant(Matrix::Random(1, kCourierDim, -1, 1, &rng));
  }

  Rng rng;
  std::unique_ptr<AttentionRouteDecoder> decoder;
  Tensor nodes;
  Tensor courier;
};

TEST(DecodeParityTest, StepScoresMatchStepLogitsBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    Fixture f(13);
    // Arbitrary (non-initial) LSTM state: scores must match at any h.
    nn::LstmState state;
    state.h = Tensor::Constant(Matrix::Random(1, kLstmHidden, -1, 1, &f.rng));
    state.c = Tensor::Constant(Matrix(1, kLstmHidden));
    const Tensor reference = f.decoder->StepLogits(f.nodes, f.courier, state);
    AttentionRouteDecoder::KeyCache cache =
        f.decoder->BuildKeyCache(f.nodes, f.courier);
    const Matrix fast = f.decoder->StepScores(cache, state.h.value());
    ExpectBitEqual(fast, reference.value(),
                   pooled ? "pooled scores" : "plain scores");
  }
}

TEST(DecodeParityTest, GreedyRouteIdenticalToLegacy) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    for (int n : {1, 5, 17, 30}) {
      Fixture f(n, 100 + n);
      const std::vector<int> fast = f.decoder->DecodeGreedy(f.nodes, f.courier);
      const std::vector<int> in_grad_mode =
          f.decoder->DecodeGreedyLegacy(f.nodes, f.courier);
      NoGradGuard no_grad;
      const std::vector<int> in_no_grad =
          f.decoder->DecodeGreedyLegacy(f.nodes, f.courier);
      EXPECT_EQ(fast, in_grad_mode) << "n=" << n << " pooled=" << pooled;
      EXPECT_EQ(fast, in_no_grad) << "n=" << n << " pooled=" << pooled;
    }
  }
}

TEST(DecodeParityTest, BeamRouteIdenticalToLegacy) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    for (int n : {5, 17, 30}) {
      for (int width : {1, 5, 10}) {
        Fixture f(n, 200 + n);
        const std::vector<int> fast =
            f.decoder->DecodeBeam(f.nodes, f.courier, width);
        const std::vector<int> legacy =
            f.decoder->DecodeBeamLegacy(f.nodes, f.courier, width);
        EXPECT_EQ(fast, legacy)
            << "n=" << n << " width=" << width << " pooled=" << pooled;
      }
    }
  }
}

TEST(DecodeParityTest, BeamWidthOneIsGreedy) {
  Fixture f(12);
  EXPECT_EQ(f.decoder->DecodeBeam(f.nodes, f.courier, 1),
            f.decoder->DecodeGreedy(f.nodes, f.courier));
}

// With every parameter zeroed, all pointer scores tie at 0 in every step;
// the (logp desc, hyp asc, node asc) order must then keep hypotheses in
// first-expansion order, making beam decode the identity permutation.
// Before the explicit tie-break this depended on std::partial_sort's
// unspecified ordering of equal keys.
TEST(DecodeParityTest, AllZeroScoresBreakTiesByHypothesisThenNode) {
  Fixture f(9);
  for (const Tensor& p : f.decoder->Parameters()) {
    p.node()->value.SetZero();
  }
  std::vector<int> identity(9);
  for (int i = 0; i < 9; ++i) identity[i] = i;
  for (int width : {1, 3, 10}) {
    EXPECT_EQ(f.decoder->DecodeBeam(f.nodes, f.courier, width), identity)
        << "fast width=" << width;
    EXPECT_EQ(f.decoder->DecodeBeamLegacy(f.nodes, f.courier, width),
              identity)
        << "legacy width=" << width;
  }
}

bool IsPermutation(std::vector<int> route, int n) {
  std::sort(route.begin(), route.end());
  for (int i = 0; i < n; ++i) {
    if (i >= static_cast<int>(route.size()) || route[i] != i) return false;
  }
  return static_cast<int>(route.size()) == n;
}

// Non-finite node rows make pointer scores NaN. Every decoder must still
// return a permutation: a greedy step where no score beats -inf takes
// the lowest-index unvisited node (and is counted), and NaN beam scores
// sort after every number.
TEST(DecodeParityTest, NanNodeRowsStillDecodeToPermutations) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  obs::Counter& nonfinite =
      obs::MetricsRegistry::Global().counter("decode.nonfinite_steps");
  for (const std::vector<int>& nan_rows :
       std::vector<std::vector<int>>{{2, 5}, {0, 1, 2, 3, 4, 5, 6, 7}}) {
    SCOPED_TRACE(nan_rows.size());
    const int n = 8;
    Fixture f(n);
    for (int r : nan_rows) {
      for (int j = 0; j < kNodeDim; ++j) f.nodes.node()->value.At(r, j) = nan;
    }
    const uint64_t before = nonfinite.Value();
    const std::vector<int> greedy = f.decoder->DecodeGreedy(f.nodes, f.courier);
    EXPECT_TRUE(IsPermutation(greedy, n));
    // NaN rows never win a comparison, so they come last, lowest first.
    EXPECT_TRUE(std::equal(nan_rows.begin(), nan_rows.end(),
                           greedy.end() - static_cast<long>(nan_rows.size())));
    EXPECT_EQ(nonfinite.Value() - before, nan_rows.size());
    EXPECT_EQ(f.decoder->DecodeBeam(f.nodes, f.courier, 1), greedy);
    EXPECT_TRUE(IsPermutation(f.decoder->DecodeBeam(f.nodes, f.courier, 5), n));
  }
}

TEST(DecodeParityTest, TeacherForcedLossAndGradsMatchLegacyBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    const int n = 11;
    Rng rng(303);
    AttentionRouteDecoder decoder(kNodeDim, kCourierDim, kLstmHidden, &rng);
    // Parameter nodes: the hoist must also leave d(loss)/d(nodes) — the
    // gradient that flows back into the encoder — bitwise-unchanged.
    Tensor nodes = Tensor::Parameter(Matrix::Random(n, kNodeDim, -1, 1, &rng));
    Tensor courier =
        Tensor::Constant(Matrix::Random(1, kCourierDim, -1, 1, &rng));
    std::vector<int> route(n);
    for (int i = 0; i < n; ++i) route[i] = (i * 7 + 3) % n;

    const auto run = [&](bool hoisted) {
      for (const Tensor& p : decoder.Parameters()) p.ZeroGrad();
      nodes.ZeroGrad();
      Tensor loss = hoisted
                        ? decoder.TeacherForcedLoss(nodes, courier, route)
                        : decoder.TeacherForcedLossLegacy(nodes, courier,
                                                          route);
      loss.Backward();
      std::vector<Matrix> grads;
      for (const Tensor& p : decoder.Parameters()) grads.push_back(p.grad());
      grads.push_back(nodes.grad());
      return std::make_pair(loss.value(), std::move(grads));
    };
    auto [legacy_loss, legacy_grads] = run(false);
    auto [fast_loss, fast_grads] = run(true);
    ExpectBitEqual(fast_loss, legacy_loss, "loss value");
    ASSERT_EQ(fast_grads.size(), legacy_grads.size());
    for (size_t i = 0; i < fast_grads.size(); ++i) {
      ExpectBitEqual(fast_grads[i], legacy_grads[i], "parameter grad");
    }
  }
}

// Central-difference gradcheck of the hoisted loss at small dims: the
// MatMulWithValue-based graph must be a correct gradient graph in its own
// right, not merely consistent with the legacy one.
TEST(DecodeParityTest, HoistedLossGradcheck) {
  const int node_dim = 6, courier_dim = 3, hidden = 5, n = 4;
  Rng rng(404);
  AttentionRouteDecoder decoder(node_dim, courier_dim, hidden, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, node_dim, -1, 1, &rng));
  Tensor courier =
      Tensor::Constant(Matrix::Random(1, courier_dim, -1, 1, &rng));
  const std::vector<int> route = {2, 0, 3, 1};
  const auto loss_fn = [&] {
    return decoder.TeacherForcedLoss(nodes, courier, route);
  };

  auto params = decoder.NamedParameters();
  for (const auto& [name, p] : params) p.ZeroGrad();
  loss_fn().Backward();
  const float eps = 2e-2f, tol = 6e-2f;
  for (const auto& [name, p] : params) {
    Matrix& w = p.node()->value;
    const Matrix& g = p.grad();
    if (!g.SameShape(w)) continue;
    const size_t stride = std::max<size_t>(1, w.size() / 4);
    for (size_t i = 0; i < w.size(); i += stride) {
      const float orig = w[i];
      w[i] = orig + eps;
      const float up = loss_fn().item();
      w[i] = orig - eps;
      const float down = loss_fn().item();
      w[i] = orig;
      const float numeric = (up - down) / (2 * eps);
      const float scale =
          std::max({1.0f, std::fabs(numeric), std::fabs(g[i])});
      EXPECT_NEAR(g[i], numeric, tol * scale) << name << " index " << i;
    }
  }
}

TEST(DecodeParityTest, MatMulWithValueMatchesMatMulBitwise) {
  Rng rng(505);
  Tensor a = Tensor::Parameter(Matrix::Random(3, 4, -1, 1, &rng));
  Tensor b = Tensor::Parameter(Matrix::Random(4, 5, -1, 1, &rng));
  const Tensor reference = MatMul(a, b);
  const Tensor supplied = MatMulWithValue(a, b, MatMulRaw(a.value(), b.value()));
  ExpectBitEqual(supplied.value(), reference.value(), "forward");

  const auto grads_of = [&](const Tensor& out) {
    a.ZeroGrad();
    b.ZeroGrad();
    Sum(out).Backward();
    return std::make_pair(a.grad(), b.grad());
  };
  auto [ga_ref, gb_ref] = grads_of(reference);
  auto [ga_sup, gb_sup] = grads_of(supplied);
  ExpectBitEqual(ga_sup, ga_ref, "grad a");
  ExpectBitEqual(gb_sup, gb_ref, "grad b");
}

// After one warm-up request, decode must run entirely off the free lists:
// the non-owning row-view inputs and the batched step reuse fixed shapes,
// so a steady-state request makes zero pool misses.
TEST(DecodeParityTest, SteadyStateDecodeHasZeroPoolMisses) {
  PoolMode mode(true);
  TensorPool::ReleaseRetained();
  Fixture f(20);
  {
    ArenaGuard warmup;
    f.decoder->DecodeGreedy(f.nodes, f.courier);
    f.decoder->DecodeBeam(f.nodes, f.courier, 5);
  }
  ArenaGuard steady;
  f.decoder->DecodeGreedy(f.nodes, f.courier);
  f.decoder->DecodeBeam(f.nodes, f.courier, 5);
  const TensorPool::Stats stats = steady.ScopeStats();
  EXPECT_EQ(stats.pool_misses, 0u);
  EXPECT_GT(stats.pool_hits, 0u);
}

// Shared-decoder decode from several threads (each with its own arena)
// must be race-free and agree with the serial result — the TSan job runs
// this test.
TEST(DecodeParityTest, ConcurrentDecodeMatchesSerial) {
  Fixture f(15);
  const std::vector<int> expected_greedy =
      f.decoder->DecodeGreedy(f.nodes, f.courier);
  const std::vector<int> expected_beam =
      f.decoder->DecodeBeam(f.nodes, f.courier, 5);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 8; ++iter) {
        ArenaGuard request;
        if (f.decoder->DecodeGreedy(f.nodes, f.courier) != expected_greedy ||
            f.decoder->DecodeBeam(f.nodes, f.courier, 5) != expected_beam) {
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
