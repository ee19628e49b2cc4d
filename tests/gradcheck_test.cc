// Property-based gradient checker: every differentiable op in
// tensor/ops.h is verified against central finite differences on random
// shapes and values, and the whole suite runs twice — once inside an
// ArenaGuard (pooled storage, buffers recycling between evaluations) and
// once with the pool disabled (plain heap storage). Identical results in
// both modes is the pool's correctness contract.
//
// Also pins the fused-op bitwise contracts: Affine / DualAffine and the
// transpose-free MatMulATB / MatMulABT kernels must reproduce the exact
// bits of the op compositions they replaced.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace m2g {
namespace {

enum class StorageMode { kPooled, kPlain };

class GradCheckTest : public ::testing::TestWithParam<StorageMode> {
 protected:
  void SetUp() override {
    if (GetParam() == StorageMode::kPooled) {
      TensorPool::set_enabled(true);
      arena_.emplace();
    } else {
      TensorPool::set_enabled(false);
    }
  }
  void TearDown() override {
    arena_.reset();
    TensorPool::set_enabled(true);
    TensorPool::ReleaseRetained();
  }

  /// Central finite differences on every element of every input, checked
  /// against the analytic gradients from one Backward() pass.
  void Check(const std::vector<Tensor>& inputs,
             const std::function<Tensor(const std::vector<Tensor>&)>& f) {
    Tensor loss = f(inputs);
    ASSERT_EQ(loss.rows(), 1);
    ASSERT_EQ(loss.cols(), 1);
    for (const Tensor& t : inputs) t.ZeroGrad();
    loss.Backward();
    std::vector<Matrix> analytic;
    for (const Tensor& t : inputs) analytic.push_back(t.grad());

    constexpr float kEps = 1e-2f;
    constexpr float kTol = 2e-2f;
    for (size_t which = 0; which < inputs.size(); ++which) {
      Tensor handle = inputs[which];  // shares the node
      Matrix& v = handle.mutable_value();
      for (size_t i = 0; i < v.size(); ++i) {
        const float orig = v[i];
        v[i] = orig + kEps;
        const float up = f(inputs).item();
        v[i] = orig - kEps;
        const float down = f(inputs).item();
        v[i] = orig;
        const float fd = (up - down) / (2.0f * kEps);
        const float an =
            analytic[which].empty() ? 0.0f : analytic[which][i];
        const float scale =
            std::max({1.0f, std::fabs(fd), std::fabs(an)});
        EXPECT_NEAR(an, fd, kTol * scale)
            << "input " << which << " element " << i;
      }
    }
  }

  Matrix Rand(int r, int c) { return Matrix::Random(r, c, -1.0f, 1.0f, &rng_); }
  /// Random values bounded away from zero: for ops with a kink there
  /// (Relu, Abs, LeakyRelu) finite differences would straddle it.
  Matrix RandAwayFromZero(int r, int c, float margin = 0.1f) {
    Matrix m = Matrix::Uninit(r, c);
    for (size_t i = 0; i < m.size(); ++i) {
      const float mag =
          margin + static_cast<float>(rng_.Uniform(0.0, 1.0));
      m[i] = rng_.Bernoulli(0.5) ? mag : -mag;
    }
    return m;
  }
  Matrix RandPositive(int r, int c) {
    return Matrix::Random(r, c, 0.5f, 2.0f, &rng_);
  }
  Tensor P(Matrix m) { return Tensor::Parameter(std::move(m)); }
  /// Scalarizes an arbitrary output with a fixed random weighting so
  /// every output element influences the loss differently.
  std::function<Tensor(const Tensor&)> Scalarizer(int rows, int cols) {
    Matrix w = Rand(rows, cols);
    return [w](const Tensor& y) {
      return Sum(Mul(y, Tensor::Constant(w)));
    };
  }
  int Dim() { return rng_.UniformInt(1, 5); }

  Rng rng_{20260806};
  std::optional<ArenaGuard> arena_;
};

INSTANTIATE_TEST_SUITE_P(
    Storage, GradCheckTest,
    ::testing::Values(StorageMode::kPooled, StorageMode::kPlain),
    [](const ::testing::TestParamInfo<StorageMode>& info) {
      return info.param == StorageMode::kPooled ? "Pooled" : "Plain";
    });

constexpr int kTrials = 3;

TEST_P(GradCheckTest, MatMul) {
  for (int t = 0; t < kTrials; ++t) {
    const int n = Dim(), k = Dim(), m = Dim();
    auto s = Scalarizer(n, m);
    Check({P(Rand(n, k)), P(Rand(k, m))}, [s](const auto& in) {
      return s(MatMul(in[0], in[1]));
    });
  }
}

TEST_P(GradCheckTest, MatMulGradDisabledSide) {
  // Satellite: a grad-disabled parent gets no gradient work at all, and
  // the enabled side still checks out.
  const int n = Dim(), k = Dim(), m = Dim();
  Tensor frozen = Tensor::Constant(Rand(n, k));
  auto s = Scalarizer(n, m);
  Check({P(Rand(k, m))}, [s, frozen](const auto& in) {
    return s(MatMul(frozen, in[0]));
  });
}

TEST_P(GradCheckTest, AffineNoBias) {
  for (int t = 0; t < kTrials; ++t) {
    const int n = Dim(), k = Dim(), m = Dim();
    auto s = Scalarizer(n, m);
    Check({P(Rand(n, k)), P(Rand(k, m))}, [s](const auto& in) {
      return s(Affine(in[0], in[1], Tensor()));
    });
  }
}

TEST_P(GradCheckTest, AffineWithBias) {
  for (int t = 0; t < kTrials; ++t) {
    const int n = Dim(), k = Dim(), m = Dim();
    auto s = Scalarizer(n, m);
    Check({P(Rand(n, k)), P(Rand(k, m)), P(Rand(1, m))},
          [s](const auto& in) {
            return s(Affine(in[0], in[1], in[2]));
          });
  }
}

TEST_P(GradCheckTest, AffineRelu) {
  for (int t = 0; t < kTrials; ++t) {
    const int n = Dim(), k = Dim(), m = Dim();
    auto s = Scalarizer(n, m);
    // Keep every pre-activation away from the Relu kink: |x.w| is
    // bounded by 2.25*k (entries in +-[0.5,1.5]), so a bias of magnitude
    // 2.25*k + 1 pins each pre-activation's sign with margin >= 1,
    // far beyond the +-1e-2 finite-difference nudges.
    Matrix x = RandAwayFromZero(n, k, 0.5f);
    Matrix w = RandAwayFromZero(k, m, 0.5f);
    Matrix b = Matrix::Uninit(1, m);
    const float bias_mag = 2.25f * static_cast<float>(k) + 1.0f;
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = rng_.Bernoulli(0.5) ? bias_mag : -bias_mag;
    }
    Check({P(std::move(x)), P(std::move(w)), P(std::move(b))},
          [s](const auto& in) {
            return s(Affine(in[0], in[1], in[2], Activation::kRelu));
          });
  }
}

TEST_P(GradCheckTest, DualAffine) {
  for (int t = 0; t < kTrials; ++t) {
    const int n = Dim(), dx = Dim(), dh = Dim(), m = Dim();
    auto s = Scalarizer(n, m);
    Check({P(Rand(n, dx)), P(Rand(dx, m)), P(Rand(n, dh)),
           P(Rand(dh, m)), P(Rand(1, m))},
          [s](const auto& in) {
            return s(DualAffine(in[0], in[1], in[2], in[3], in[4]));
          });
  }
}

TEST_P(GradCheckTest, Add) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d)), P(Rand(n, d))}, [s](const auto& in) {
    return s(Add(in[0], in[1]));
  });
}

TEST_P(GradCheckTest, AddRowBroadcast) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d)), P(Rand(1, d))}, [s](const auto& in) {
    return s(AddRowBroadcast(in[0], in[1]));
  });
}

TEST_P(GradCheckTest, Sub) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d)), P(Rand(n, d))}, [s](const auto& in) {
    return s(Sub(in[0], in[1]));
  });
}

TEST_P(GradCheckTest, Mul) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d)), P(Rand(n, d))}, [s](const auto& in) {
    return s(Mul(in[0], in[1]));
  });
}

TEST_P(GradCheckTest, ScaleAddScalarNeg) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d))}, [s](const auto& in) {
    return s(Neg(AddScalar(Scale(in[0], 1.7f), -0.3f)));
  });
}

TEST_P(GradCheckTest, AddScalarTensor) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d)), P(Rand(1, 1))}, [s](const auto& in) {
    return s(AddScalarTensor(in[0], in[1]));
  });
}

TEST_P(GradCheckTest, BroadcastRows) {
  const int n = Dim() + 1, d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(1, d))}, [s, n](const auto& in) {
    return s(BroadcastRows(in[0], n));
  });
}

TEST_P(GradCheckTest, Exp) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d))},
        [s](const auto& in) { return s(Exp(in[0])); });
}

TEST_P(GradCheckTest, Log) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(RandPositive(n, d))},
        [s](const auto& in) { return s(Log(in[0])); });
}

TEST_P(GradCheckTest, Abs) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(RandAwayFromZero(n, d))},
        [s](const auto& in) { return s(Abs(in[0])); });
}

TEST_P(GradCheckTest, Sigmoid) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d))},
        [s](const auto& in) { return s(Sigmoid(in[0])); });
}

TEST_P(GradCheckTest, Tanh) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d))},
        [s](const auto& in) { return s(Tanh(in[0])); });
}

TEST_P(GradCheckTest, Relu) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(RandAwayFromZero(n, d))},
        [s](const auto& in) { return s(Relu(in[0])); });
}

TEST_P(GradCheckTest, LeakyRelu) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(n, d);
  Check({P(RandAwayFromZero(n, d))},
        [s](const auto& in) { return s(LeakyRelu(in[0], 0.2f)); });
}

TEST_P(GradCheckTest, ConcatCols) {
  const int n = Dim(), d1 = Dim(), d2 = Dim();
  auto s = Scalarizer(n, d1 + d2);
  Check({P(Rand(n, d1)), P(Rand(n, d2))}, [s](const auto& in) {
    return s(ConcatCols(in[0], in[1]));
  });
}

TEST_P(GradCheckTest, ConcatRows) {
  const int n1 = Dim(), n2 = Dim(), d = Dim();
  auto s = Scalarizer(n1 + n2, d);
  Check({P(Rand(n1, d)), P(Rand(n2, d))}, [s](const auto& in) {
    return s(ConcatRows({in[0], in[1]}));
  });
}

TEST_P(GradCheckTest, SliceColsRows) {
  const int n = Dim() + 2, d = Dim() + 2;
  auto sc = Scalarizer(n, d - 1);
  auto sr = Scalarizer(n - 1, d);
  Check({P(Rand(n, d))}, [sc, d](const auto& in) {
    return sc(SliceCols(in[0], 1, d - 1));
  });
  Check({P(Rand(n, d))}, [sr, n](const auto& in) {
    return sr(SliceRows(in[0], 0, n - 1));
  });
}

TEST_P(GradCheckTest, RowAndGatherRows) {
  const int n = Dim() + 2, d = Dim();
  auto s1 = Scalarizer(1, d);
  Check({P(Rand(n, d))}, [s1, n](const auto& in) {
    return s1(Row(in[0], n - 1));
  });
  // Duplicate indices: the grad scatter must accumulate, not overwrite.
  std::vector<int> idx = {0, n - 1, 0, 1};
  auto s2 = Scalarizer(static_cast<int>(idx.size()), d);
  Check({P(Rand(n, d))}, [s2, idx](const auto& in) {
    return s2(GatherRows(in[0], idx));
  });
}

TEST_P(GradCheckTest, SumMeanSumRows) {
  const int n = Dim(), d = Dim();
  Check({P(Rand(n, d))},
        [](const auto& in) { return Sum(in[0]); });
  Check({P(Rand(n, d))},
        [](const auto& in) { return Mean(in[0]); });
  auto s = Scalarizer(1, d);
  Check({P(Rand(n, d))},
        [s](const auto& in) { return s(SumRows(in[0])); });
}

TEST_P(GradCheckTest, Transpose) {
  const int n = Dim(), d = Dim();
  auto s = Scalarizer(d, n);
  Check({P(Rand(n, d))},
        [s](const auto& in) { return s(Transpose(in[0])); });
}

TEST_P(GradCheckTest, MaskedSoftmaxRow) {
  const int n = Dim() + 2;
  std::vector<bool> mask(n, true);
  mask[1] = false;
  auto s = Scalarizer(1, n);
  Check({P(Rand(1, n))}, [s, mask](const auto& in) {
    return s(MaskedSoftmaxRow(in[0], mask));
  });
}

TEST_P(GradCheckTest, MaskedCrossEntropy) {
  const int n = Dim() + 2;
  std::vector<bool> mask(n, true);
  mask[n - 1] = false;
  Check({P(Rand(1, n))}, [mask](const auto& in) {
    return MaskedCrossEntropy(in[0], 0, mask);
  });
}

TEST_P(GradCheckTest, L1Loss) {
  Matrix pred(1, 1);
  pred[0] = 0.8f;  // away from the target: the kink is at equality
  Check({P(std::move(pred))},
        [](const auto& in) { return L1Loss(in[0], 0.2f); });
}

TEST_P(GradCheckTest, LayerNormRows) {
  const int n = Dim(), d = Dim() + 2;
  auto s = Scalarizer(n, d);
  Check({P(Rand(n, d)), P(RandPositive(1, d)), P(Rand(1, d))},
        [s](const auto& in) {
          return s(LayerNormRows(in[0], in[1], in[2]));
        });
}

// ---------------------------------------------------------------------------
// Bitwise contracts: the fused ops must reproduce the unfused
// compositions bit for bit, and pooled storage must not perturb a single
// bit relative to plain storage.
// ---------------------------------------------------------------------------

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << " differs bitwise";
}

TEST_P(GradCheckTest, AffineBitwiseMatchesUnfusedChain) {
  Rng rng(7);
  for (int t = 0; t < 5; ++t) {
    const int n = rng.UniformInt(1, 8), k = rng.UniformInt(1, 8),
              m = rng.UniformInt(1, 8);
    Matrix xv = Matrix::Random(n, k, -2.0f, 2.0f, &rng);
    Matrix wv = Matrix::Random(k, m, -2.0f, 2.0f, &rng);
    Matrix bv = Matrix::Random(1, m, -2.0f, 2.0f, &rng);

    Tensor x1 = Tensor::Parameter(xv), w1 = Tensor::Parameter(wv),
           b1 = Tensor::Parameter(bv);
    Tensor fused = Affine(x1, w1, b1, Activation::kRelu);
    Sum(fused).Backward();

    Tensor x2 = Tensor::Parameter(xv), w2 = Tensor::Parameter(wv),
           b2 = Tensor::Parameter(bv);
    Tensor unfused = Relu(AddRowBroadcast(MatMul(x2, w2), b2));
    Sum(unfused).Backward();

    ExpectBitEqual(fused.value(), unfused.value(), "Affine forward");
    ExpectBitEqual(x1.grad(), x2.grad(), "Affine dX");
    ExpectBitEqual(w1.grad(), w2.grad(), "Affine dW");
    ExpectBitEqual(b1.grad(), b2.grad(), "Affine dB");
  }
}

TEST_P(GradCheckTest, DualAffineBitwiseMatchesUnfusedChain) {
  Rng rng(13);
  for (int t = 0; t < 5; ++t) {
    const int n = rng.UniformInt(1, 6), dx = rng.UniformInt(1, 6),
              dh = rng.UniformInt(1, 6), m = rng.UniformInt(1, 6);
    Matrix xv = Matrix::Random(n, dx, -2.0f, 2.0f, &rng);
    Matrix wxv = Matrix::Random(dx, m, -2.0f, 2.0f, &rng);
    Matrix hv = Matrix::Random(n, dh, -2.0f, 2.0f, &rng);
    Matrix whv = Matrix::Random(dh, m, -2.0f, 2.0f, &rng);
    Matrix bv = Matrix::Random(1, m, -2.0f, 2.0f, &rng);

    Tensor x1 = Tensor::Parameter(xv), wx1 = Tensor::Parameter(wxv),
           h1 = Tensor::Parameter(hv), wh1 = Tensor::Parameter(whv),
           b1 = Tensor::Parameter(bv);
    Tensor fused = DualAffine(x1, wx1, h1, wh1, b1);
    Sum(fused).Backward();

    Tensor x2 = Tensor::Parameter(xv), wx2 = Tensor::Parameter(wxv),
           h2 = Tensor::Parameter(hv), wh2 = Tensor::Parameter(whv),
           b2 = Tensor::Parameter(bv);
    Tensor unfused =
        AddRowBroadcast(Add(MatMul(x2, wx2), MatMul(h2, wh2)), b2);
    Sum(unfused).Backward();

    ExpectBitEqual(fused.value(), unfused.value(), "DualAffine forward");
    ExpectBitEqual(x1.grad(), x2.grad(), "DualAffine dX");
    ExpectBitEqual(wx1.grad(), wx2.grad(), "DualAffine dWx");
    ExpectBitEqual(h1.grad(), h2.grad(), "DualAffine dH");
    ExpectBitEqual(wh1.grad(), wh2.grad(), "DualAffine dWh");
    ExpectBitEqual(b1.grad(), b2.grad(), "DualAffine dB");
  }
}

TEST_P(GradCheckTest, TransposeFreeKernelsBitwiseMatchTransposed) {
  Rng rng(29);
  for (int t = 0; t < 5; ++t) {
    const int n = rng.UniformInt(1, 9), k = rng.UniformInt(1, 9),
              m = rng.UniformInt(1, 9);
    Matrix a = Matrix::Random(k, n, -2.0f, 2.0f, &rng);
    Matrix b = Matrix::Random(k, m, -2.0f, 2.0f, &rng);
    ExpectBitEqual(MatMulATB(a, b), MatMulRaw(TransposeRaw(a), b),
                   "MatMulATB");
    Matrix c = Matrix::Random(n, k, -2.0f, 2.0f, &rng);
    Matrix d = Matrix::Random(m, k, -2.0f, 2.0f, &rng);
    ExpectBitEqual(MatMulABT(c, d), MatMulRaw(c, TransposeRaw(d)),
                   "MatMulABT");
  }
}

// The encode fast path's raw kernels (matrix.h) vs the op compositions
// GatELayer::Forward builds: bit-for-bit, including the m == 1 attention
// projections (which must take the same per-row path as the op-layer
// MatMul does) and softmax rows addressed through a `base` offset into
// the full adjacency mask.
TEST_P(GradCheckTest, EncodeFastPathRawKernelsBitwiseMatchOps) {
  Rng rng(31);
  for (int t = 0; t < 5; ++t) {
    const int n = rng.UniformInt(1, 9), k = rng.UniformInt(1, 9),
              m = (t % 2 == 0) ? 1 : rng.UniformInt(1, 9);
    Matrix a = Matrix::Random(n, k, -2.0f, 2.0f, &rng);
    Matrix b = Matrix::Random(k, m, -2.0f, 2.0f, &rng);
    Matrix out = Matrix::Uninit(n, m);
    MatMulInto(a.data(), n, k, b.data(), m, out.data());
    ExpectBitEqual(out, MatMulRaw(a, b), "MatMulInto");

    // Eq. 20: c_ij = LeakyReLU(s_dst[j] + s_e[ij] + s_src[i]), in the
    // exact association order of Add -> AddScalarTensor -> LeakyRelu.
    Matrix s_dst = Matrix::Random(1, n, -2.0f, 2.0f, &rng);
    Matrix s_e = Matrix::Random(1, n, -2.0f, 2.0f, &rng);
    Matrix s_src = Matrix::Random(1, 1, -2.0f, 2.0f, &rng);
    const float slope = 0.2f;
    Tensor reference = LeakyRelu(
        AddScalarTensor(Add(Tensor::Constant(s_dst), Tensor::Constant(s_e)),
                        Tensor::Constant(s_src)),
        slope);
    Matrix logits = Matrix::Uninit(1, n);
    GatLogitsRow(s_dst.data(), s_e.data(), s_src[0], slope, n,
                 logits.data());
    ExpectBitEqual(logits, reference.value(), "GatLogitsRow");

    // Masked softmax over row `row` of a (rows, n) mask — the raw kernel
    // reads through `base` where the op takes a pre-sliced mask.
    const int rows = 3;
    std::vector<bool> mask(static_cast<size_t>(rows) * n, false);
    const int row = rng.UniformInt(0, rows - 1);
    const size_t base = static_cast<size_t>(row) * n;
    mask[base + rng.UniformInt(0, n - 1)] = true;  // >= 1 unmasked
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.5)) mask[base + j] = true;
    }
    std::vector<bool> row_mask(mask.begin() + base, mask.begin() + base + n);
    Tensor alpha_ref =
        MaskedSoftmaxRow(Tensor::Constant(logits), row_mask);
    Matrix alpha = Matrix::Uninit(1, n);
    MaskedSoftmaxRowRaw(logits.data(), mask, base, n, alpha.data());
    ExpectBitEqual(alpha, alpha_ref.value(), "MaskedSoftmaxRowRaw");
  }
}

// Pooled vs plain storage: same seed, same little training computation,
// byte-identical parameters afterwards. (The system-level version of
// this — full model training — lives in the integration suite; this one
// is a fast, focused canary.)
TEST(PoolBitwiseTest, PooledAndPlainStorageAreBitIdentical) {
  auto run = [](bool pooled) {
    TensorPool::set_enabled(pooled);
    Rng rng(99);
    Tensor w = Tensor::Parameter(Matrix::Random(4, 3, -1, 1, &rng));
    Tensor b = Tensor::Parameter(Matrix::Random(1, 3, -1, 1, &rng));
    for (int step = 0; step < 5; ++step) {
      ArenaGuard arena;  // inert when the pool is disabled
      Tensor x = Tensor::Constant(Matrix::Random(6, 4, -1, 1, &rng));
      Tensor loss = Mean(Abs(Affine(x, w, b, Activation::kRelu)));
      w.ZeroGrad();
      b.ZeroGrad();
      loss.Backward();
      w.mutable_value().AddScaledInPlace(w.grad(), -0.1f);
      b.mutable_value().AddScaledInPlace(b.grad(), -0.1f);
    }
    TensorPool::set_enabled(true);
    std::vector<Matrix> out = {w.value(), b.value()};
    return out;
  };
  std::vector<Matrix> pooled = run(true);
  std::vector<Matrix> plain = run(false);
  ASSERT_EQ(pooled.size(), plain.size());
  for (size_t i = 0; i < pooled.size(); ++i) {
    ExpectBitEqual(pooled[i], plain[i], "trained parameter");
  }
  TensorPool::ReleaseRetained();
}

}  // namespace
}  // namespace m2g
