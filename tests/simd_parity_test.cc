// Bitwise-parity suite for the runtime-dispatched SIMD kernel tier
// (tensor/simd.h): every vectorized kernel, on every tier this host
// supports, must produce byte-identical output to the scalar reference
// — on ragged shapes (k, m not multiples of the vector width), rows
// with exact zeros (both inside and beyond the zero-scan cap),
// denormals, and ±inf/NaN inputs. This is the contract the whole
// fast-path stack (encode/decode/serving/training) leans on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace m2g {
namespace {

/// Every tier the host can actually run (SetTier clamps, so requesting
/// an unsupported tier would silently retest a lower one — skip those).
std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::DetectedTier() >= simd::Tier::kAvx2) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

/// Restores the dispatch tier after each test so ordering within this
/// binary (and any suite run after it) is tier-neutral.
class SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_tier_ = simd::ActiveTier(); }
  void TearDown() override { simd::SetTier(entry_tier_); }

 private:
  simd::Tier entry_tier_ = simd::Tier::kScalar;
};

/// Runs `fn` (filling `out`) under every supported tier and asserts the
/// bytes match the scalar tier's exactly.
template <typename Fn>
void ExpectTierParity(Fn&& fn, const char* what) {
  simd::SetTier(simd::Tier::kScalar);
  const std::vector<float> want = fn();
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTier(tier);
    ASSERT_EQ(simd::ActiveTier(), tier);
    const std::vector<float> got = fn();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
        << what << " diverges on tier " << simd::TierName(tier);
  }
}

/// The skip-if-zero ascending-p reference AccumulateRowMatMul is
/// specified against (the pre-fast-path op composition).
void ReferenceRow(const float* x, int k, const float* b, int m,
                  float* out_row) {
  for (int p = 0; p < k; ++p) {
    if (x[p] == 0.0f) continue;
    for (int j = 0; j < m; ++j) {
      out_row[j] += x[p] * b[static_cast<size_t>(p) * m + j];
    }
  }
}

TEST_F(SimdParityTest, DenseRowMatMulRaggedShapes) {
  Rng rng(7001);
  // Straddles the 4-wide p-unroll, the 4- and 8-wide j vectors, and the
  // 16-entry zero-scan cap.
  for (int k : {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 48, 65}) {
    for (int m : {4, 5, 7, 8, 9, 12, 16, 47, 48, 49}) {
      Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);  // zero-free
      const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
      ExpectTierParity(
          [&] {
            std::vector<float> out(m, 0.0f);
            AccumulateRowMatMul(x.data(), k, b.data(), m, out.data());
            return out;
          },
          "AccumulateRowMatMul dense");
      // And against the skip reference (no zeros, so skip == include).
      std::vector<float> got(m, 0.0f), want(m, 0.0f);
      AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
      ReferenceRow(x.data(), k, b.data(), m, want.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0)
          << "k=" << k << " m=" << m;
    }
  }
}

TEST_F(SimdParityTest, DenseRowMatMulZeroRowsTakeSparsePathOnEveryTier) {
  Rng rng(7002);
  for (int k : {4, 16, 33}) {
    const int m = 9;
    Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
    x.At(0, 0) = 0.0f;  // zero inside the scan prefix -> branchy path
    if (k > 2) x.At(0, k / 2) = 0.0f;
    const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
    ExpectTierParity(
        [&] {
          std::vector<float> out(m, 0.25f);
          AccumulateRowMatMul(x.data(), k, b.data(), m, out.data());
          return out;
        },
        "AccumulateRowMatMul sparse");
    std::vector<float> got(m, 0.25f), want(m, 0.25f);
    AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
    ReferenceRow(x.data(), k, b.data(), m, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0);
  }
}

TEST_F(SimdParityTest, DenseRowMatMulZeroBeyondScanCapStaysBitwiseNeutral) {
  // A zero past the 16-entry scan cap reaches the dense kernel, which
  // adds a +/-0.0 term instead of skipping — the capped-scan parity
  // argument says that is invisible. Pin it against the skip reference
  // on every tier, with both +0.0 and -0.0 hidden zeros.
  Rng rng(7003);
  const int k = 40, m = 17;
  for (float hidden_zero : {0.0f, -0.0f}) {
    Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
    x.At(0, 20) = hidden_zero;
    x.At(0, k - 1) = hidden_zero;
    const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
    simd::SetTier(simd::Tier::kScalar);
    std::vector<float> want(m, 0.0f);
    ReferenceRow(x.data(), k, b.data(), m, want.data());
    for (simd::Tier tier : SupportedTiers()) {
      simd::SetTier(tier);
      std::vector<float> got(m, 0.0f);
      AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0)
          << "tier " << simd::TierName(tier) << " zero "
          << (std::signbit(hidden_zero) ? "-0" : "+0");
    }
  }
}

TEST_F(SimdParityTest, DenseRowMatMulDenormals) {
  // Denormal operands and products: no tier may flush to zero (the
  // library never touches MXCSR, so FTZ/DAZ stay off).
  const int k = 8, m = 11;
  std::vector<float> x(k), b(static_cast<size_t>(k) * m);
  Rng rng(7004);
  for (int p = 0; p < k; ++p) {
    x[p] = (p % 2 == 0) ? FLT_MIN / 4.0f
                        : static_cast<float>(rng.Uniform(0.5, 1.0));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = (i % 3 == 0) ? FLT_MIN * 2.0f
                        : static_cast<float>(rng.Uniform(-1.0, 1.0)) *
                              FLT_MIN;
  }
  ExpectTierParity(
      [&] {
        std::vector<float> out(m, 0.0f);
        AccumulateRowMatMul(x.data(), k, b.data(), m, out.data());
        return out;
      },
      "AccumulateRowMatMul denormal");
}

TEST_F(SimdParityTest, DenseRowsMatMulAcrossTiers) {
  // The row-block kernel against its specification on every tier: each
  // output row is a zero-filled row through the scalar per-row kernel.
  // Shapes straddle the 4-row blocks, the 8-row lanes of the m == 1
  // kernel, the 64-row panels (70 rows), the 16/12/8/4-column tiles and
  // their scalar column tail, and the 8-wide transpose steps in k; x
  // rows sit at a stride wider than k and output rows at a stride wider
  // than m (the gaps must survive).
  // Special values get a row each, so every NaN in an output row comes
  // from one source and carries one payload whatever the operand order.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sentinel = -12345.0f;
  Rng rng(7011);
  for (int rows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 70}) {
    for (int m : {1, 3, 4, 8, 12, 13, 16, 48, 49}) {
      for (int k : {1, 15, 16, 17, 48}) {
        const size_t x_stride = static_cast<size_t>(k) + 3;
        const size_t out_stride = static_cast<size_t>(m) + 2;
        std::vector<float> x(rows * x_stride);
        for (float& v : x) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
        x[(rows / 2) * x_stride] = FLT_MIN / 4.0f;  // denormal operand
        if (rows >= 4) {
          x[1 * x_stride + k / 2] = inf;
          x[2 * x_stride + k - 1] = -inf;
          x[3 * x_stride] = nan;
        }
        const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);

        simd::SetTier(simd::Tier::kScalar);
        std::vector<float> want(rows * out_stride, sentinel);
        for (int r = 0; r < rows; ++r) {
          float* o = want.data() + r * out_stride;
          std::fill(o, o + m, 0.0f);
          simd::DenseRowMatMul(x.data() + r * x_stride, k, b.data(), m, o);
        }
        for (simd::Tier tier : SupportedTiers()) {
          simd::SetTier(tier);
          std::vector<float> got(rows * out_stride, sentinel);
          simd::DenseRowsMatMul(x.data(), rows, x_stride, k, b.data(), m,
                                got.data(), out_stride);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "tier " << simd::TierName(tier) << " rows=" << rows
              << " m=" << m << " k=" << k;
        }
      }
    }
  }
}

TEST_F(SimdParityTest, EdgeEpilogueAcrossTiers) {
  // relu(e3 + (nw4_i + nw5_j)) in write and accumulate form: NaN and
  // -0.0 pre-activations must come out as +0.0 on every tier, and the
  // accumulate form must equal the write form added onto the output.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(7012);
  for (int n : {1, 2, 5}) {
    for (int dh : {1, 3, 4, 8, 12, 13, 48}) {
      const size_t out_stride = static_cast<size_t>(dh) + 5;
      const size_t e3_stride = static_cast<size_t>(dh) + 3;
      const size_t e3_size = static_cast<size_t>(n) * dh;
      std::vector<float> e3(n * e3_stride), nw5(e3_size), nw4(dh);
      for (float& v : e3) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      for (float& v : nw5) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      for (float& v : nw4) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      e3[0] = nan;
      if (dh > 2) {
        // (-0.0) + ((-0.0) + (-0.0)) is a -0.0 pre-activation.
        e3[1] = -0.0f;
        nw4[1] = -0.0f;
        nw5[1] = -0.0f;
        e3[2] = inf;
        nw5[e3_size - 1] = -inf;
      }
      std::vector<float> base(n * out_stride);
      for (float& v : base) v = static_cast<float>(rng.Uniform(0.0, 2.0));

      for (bool accumulate : {false, true}) {
        ExpectTierParity(
            [&] {
              std::vector<float> out = base;
              simd::EdgeEpilogue(e3.data(), e3_stride, nw4.data(),
                                 nw5.data(), n, dh, out.data(), out_stride,
                                 accumulate);
              return out;
            },
            accumulate ? "EdgeEpilogue accumulate" : "EdgeEpilogue write");
      }
      simd::SetTier(simd::Tier::kScalar);
      std::vector<float> written = base, summed = base;
      simd::EdgeEpilogue(e3.data(), e3_stride, nw4.data(), nw5.data(), n,
                         dh, written.data(), out_stride, false);
      simd::EdgeEpilogue(e3.data(), e3_stride, nw4.data(), nw5.data(), n,
                         dh, summed.data(), out_stride, true);
      for (int j = 0; j < n; ++j) {
        for (size_t c = 0; c < out_stride; ++c) {
          const size_t t = j * out_stride + c;
          if (c >= static_cast<size_t>(dh)) {
            EXPECT_EQ(written[t], base[t]) << "gap written";
            EXPECT_EQ(summed[t], base[t]) << "gap written";
            continue;
          }
          EXPECT_FALSE(std::isnan(written[t]));
          EXPECT_FALSE(std::signbit(written[t])) << "relu kept a sign";
          const float want = base[t] + written[t];
          EXPECT_EQ(std::memcmp(&summed[t], &want, sizeof(float)), 0);
        }
      }
      EXPECT_EQ(written[0], 0.0f);  // NaN pre-activation
      if (dh > 2) {
        EXPECT_EQ(written[1], 0.0f);  // -0.0 pre-activation
      }
    }
  }
}

TEST_F(SimdParityTest, GatLogitsRowInfAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int n : {1, 3, 7, 8, 9, 16, 50, 51}) {
    std::vector<float> s_dst(n), s_edge(n);
    Rng rng(7005);
    for (int j = 0; j < n; ++j) {
      s_dst[j] = static_cast<float>(rng.Uniform(-2.0, 2.0));
      s_edge[j] = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    if (n >= 4) {
      s_dst[0] = inf;
      s_dst[1] = -inf;
      s_edge[2] = nan;
      s_edge[3] = -inf;  // may meet +inf in s_dst -> NaN pre-activation
    }
    ExpectTierParity(
        [&] {
          std::vector<float> logits(n, 0.0f);
          GatLogitsRow(s_dst.data(), s_edge.data(), 0.37f, 0.2f, n,
                       logits.data());
          return logits;
        },
        "GatLogitsRow");
  }
}

TEST_F(SimdParityTest, AffineRawReluEdgeCases) {
  // AffineRaw composes the dense row kernel, the bias row add, and the
  // ReLU sweep — all dispatched. Negative zeros in the bias force
  // exact-zero pre-activations through the ReLU select.
  Rng rng(7006);
  for (int m : {5, 8, 13, 48}) {
    const int n = 7, k = 19;
    const Matrix x = Matrix::Random(n, k, 0.05f, 1.0f, &rng);
    const Matrix w = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
    Matrix bias = Matrix::Random(1, m, -0.5f, 0.5f, &rng);
    bias.At(0, 0) = -0.0f;
    ExpectTierParity(
        [&] {
          const Matrix out = AffineRaw(x, w, &bias, Activation::kRelu);
          return std::vector<float>(out.data(), out.data() + out.size());
        },
        "AffineRaw+ReLU");
  }
}

TEST_F(SimdParityTest, DualAffineRawAcrossTiers) {
  Rng rng(7007);
  const int batch = 3, in = 10, hidden = 13;
  const Matrix x = Matrix::Random(batch, in, -1.0f, 1.0f, &rng);
  const Matrix wx = Matrix::Random(in, 4 * hidden, -1.0f, 1.0f, &rng);
  const Matrix h = Matrix::Random(batch, hidden, -1.0f, 1.0f, &rng);
  const Matrix wh = Matrix::Random(hidden, 4 * hidden, -1.0f, 1.0f, &rng);
  const Matrix bias = Matrix::Random(1, 4 * hidden, -1.0f, 1.0f, &rng);
  ExpectTierParity(
      [&] {
        const Matrix out = DualAffineRaw(x, wx, h, wh, bias);
        return std::vector<float>(out.data(), out.data() + out.size());
      },
      "DualAffineRaw");
}

TEST_F(SimdParityTest, MatMulIntoAcrossTiers) {
  Rng rng(7008);
  const int k = 21, m = 18;
  const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
  const Matrix a0 = Matrix::Random(5, k, 0.1f, 1.0f, &rng);
  const Matrix a1 = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
  const Matrix a2 = Matrix::Random(9, k, 0.1f, 1.0f, &rng);
  ExpectTierParity(
      [&] {
        std::vector<float> o0(a0.rows() * m), o1(a1.rows() * m),
            o2(a2.rows() * m);
        MatMulInto(a0.data(), a0.rows(), k, b.data(), m, o0.data());
        MatMulInto(a1.data(), a1.rows(), k, b.data(), m, o1.data());
        MatMulInto(a2.data(), a2.rows(), k, b.data(), m, o2.data());
        std::vector<float> all;
        all.insert(all.end(), o0.begin(), o0.end());
        all.insert(all.end(), o1.begin(), o1.end());
        all.insert(all.end(), o2.begin(), o2.end());
        return all;
      },
      "MatMulInto");
}

TEST_F(SimdParityTest, TransposedMatMulsMatchUnfusedReferenceAcrossTiers) {
  Rng rng(7009);
  // Shapes from the autograd backward passes that call these. Zeros in
  // `a` exercise the sparse/dense selection inside the row kernel.
  Matrix a = Matrix::Random(17, 9, -1.0f, 1.0f, &rng);
  a.At(3, 0) = 0.0f;
  const Matrix b = Matrix::Random(17, 12, -1.0f, 1.0f, &rng);
  const Matrix c = Matrix::Random(12, 9, -1.0f, 1.0f, &rng);
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTier(tier);
    const Matrix atb = MatMulATB(a, b);
    const Matrix atb_ref = MatMulRaw(TransposeRaw(a), b);
    ASSERT_TRUE(atb.SameShape(atb_ref));
    EXPECT_EQ(std::memcmp(atb.data(), atb_ref.data(),
                          atb.size() * sizeof(float)),
              0)
        << "MatMulATB tier " << simd::TierName(tier);
    const Matrix abt = MatMulABT(a, c);
    const Matrix abt_ref = MatMulRaw(a, TransposeRaw(c));
    ASSERT_TRUE(abt.SameShape(abt_ref));
    EXPECT_EQ(std::memcmp(abt.data(), abt_ref.data(),
                          abt.size() * sizeof(float)),
              0)
        << "MatMulABT tier " << simd::TierName(tier);
  }
}

TEST_F(SimdParityTest, ElementwiseKernelsAcrossTiers) {
  Rng rng(7010);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int n : {1, 3, 4, 7, 8, 9, 33, 100}) {
    Matrix a = Matrix::Random(1, n, -1.0f, 1.0f, &rng);
    Matrix b = Matrix::Random(1, n, -1.0f, 1.0f, &rng);
    if (n >= 4) {
      a.At(0, 0) = -0.0f;
      a.At(0, 1) = FLT_MIN / 8.0f;
      b.At(0, 2) = inf;
      b.At(0, 3) = nan;
    }
    ExpectTierParity(
        [&] {
          Matrix sum = a;
          sum.AddInPlace(b);
          return std::vector<float>(sum.data(), sum.data() + sum.size());
        },
        "AddInPlace");
    ExpectTierParity(
        [&] {
          std::vector<float> v(b.data(), b.data() + b.size());
          simd::ReluInPlace(v.data(), v.size());
          return v;
        },
        "ReluInPlace");
  }
}

TEST_F(SimdParityTest, TierNamesParseAndClamp) {
  simd::Tier tier = simd::Tier::kAvx2;
  EXPECT_TRUE(simd::ParseTierName("off", &tier));
  EXPECT_EQ(tier, simd::Tier::kScalar);
  EXPECT_TRUE(simd::ParseTierName("scalar", &tier));
  EXPECT_EQ(tier, simd::Tier::kScalar);
  EXPECT_TRUE(simd::ParseTierName("avx2", &tier));
  EXPECT_EQ(tier, simd::Tier::kAvx2);
  // The retired 4-lane tier's name no longer parses (M2G_SIMD falls
  // back to "auto" with a warning); *out stays untouched.
  EXPECT_FALSE(simd::ParseTierName("sse2", &tier));
  EXPECT_EQ(tier, simd::Tier::kAvx2);
  EXPECT_FALSE(simd::ParseTierName("auto", &tier));
  EXPECT_FALSE(simd::ParseTierName("AVX512", &tier));
  EXPECT_FALSE(simd::ParseTierName(nullptr, &tier));

  // Requesting above the detected tier clamps instead of crashing on
  // unsupported instructions.
  simd::SetTier(simd::Tier::kAvx2);
  EXPECT_LE(simd::ActiveTier(), simd::DetectedTier());
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
}

TEST_F(SimdParityTest, SetTierForcesScalarAndModelsLeaveDispatchAlone) {
  // The tier is process-global and set only through SetTier (or the
  // M2G_SIMD environment variable): building a model must not move it.
  simd::SetTier(simd::DetectedTier());
  core::ModelConfig config;
  config.hidden_dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.aoi_id_embed_dim = 4;
  config.aoi_type_embed_dim = 2;
  config.lstm_hidden_dim = 16;
  config.courier_dim = 8;
  config.pos_enc_dim = 4;
  core::M2g4Rtp model(config);
  EXPECT_EQ(simd::ActiveTier(), simd::DetectedTier());
  simd::SetTier(simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
}

TEST_F(SimdParityTest, FixedSeedTrainingIsTierInvariant) {
  // The end-to-end guarantee the per-kernel pins add up to: a short
  // fixed-seed fit lands on byte-identical parameters whether the
  // kernels ran scalar or at the best tier this host offers.
  synth::DataConfig dc;
  dc.seed = 1212;
  dc.world.num_aois = 40;
  dc.couriers.num_couriers = 3;
  dc.num_days = 2;
  const synth::DatasetSplits splits = synth::BuildDataset(dc);

  core::ModelConfig mc;
  mc.hidden_dim = 16;
  mc.num_heads = 2;
  mc.num_layers = 1;
  mc.aoi_id_embed_dim = 4;
  mc.aoi_type_embed_dim = 2;
  mc.lstm_hidden_dim = 16;
  mc.courier_dim = 8;
  mc.pos_enc_dim = 4;

  auto fit_params = [&](simd::Tier tier) {
    simd::SetTier(tier);
    core::M2g4Rtp model(mc);
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.early_stop_patience = 0;
    tc.max_samples_per_epoch = 8;
    core::Trainer trainer(&model, tc);
    trainer.Fit(splits.train, splits.val);
    std::vector<float> flat;
    for (const auto& [name, tensor] : model.NamedParameters()) {
      const Matrix& value = tensor.value();
      flat.insert(flat.end(), value.data(), value.data() + value.size());
    }
    return flat;
  };

  const std::vector<float> scalar_params = fit_params(simd::Tier::kScalar);
  const std::vector<float> best_params = fit_params(simd::DetectedTier());
  ASSERT_EQ(scalar_params.size(), best_params.size());
  EXPECT_EQ(std::memcmp(scalar_params.data(), best_params.data(),
                        scalar_params.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace m2g
