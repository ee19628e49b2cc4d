#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace m2g {
namespace {

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 0.0f);
}

TEST(MatrixTest, AtIsRowMajor) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.At(0, 0), 1.0f);
  EXPECT_EQ(m.At(0, 2), 3.0f);
  EXPECT_EQ(m.At(1, 0), 4.0f);
  EXPECT_EQ(m.At(1, 2), 6.0f);
}

TEST(MatrixTest, FactoryHelpers) {
  Matrix ones = Matrix::Ones(2, 2);
  EXPECT_EQ(ones.Sum(), 4.0f);
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id.Sum(), 3.0f);
  EXPECT_EQ(id.At(1, 1), 1.0f);
  EXPECT_EQ(id.At(0, 1), 0.0f);
  Matrix row = Matrix::RowVector({1, 2, 3});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 3);
}

TEST(MatrixTest, InPlaceArithmetic) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_EQ(a.At(0, 1), 22.0f);
  a.AddScaledInPlace(b, -1.0f);
  EXPECT_EQ(a.At(0, 1), 2.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a.At(0, 2), 6.0f);
}

TEST(MatrixTest, NormAndMaxAbs) {
  Matrix a(1, 2, {3, -4});
  EXPECT_FLOAT_EQ(a.Norm(), 5.0f);
  EXPECT_FLOAT_EQ(a.MaxAbs(), 4.0f);
}

TEST(MatrixTest, MatMulBasic) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMulRaw(a, b);
  // c = [[58, 64], [139, 154]]
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(3);
  Matrix a = Matrix::Random(4, 4, -1, 1, &rng);
  Matrix c = MatMulRaw(a, Matrix::Identity(4));
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(c[i], a[i]);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(4);
  Matrix a = Matrix::Random(3, 5, -1, 1, &rng);
  Matrix t = TransposeRaw(a);
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 3);
  Matrix tt = TransposeRaw(t);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(tt[i], a[i]);
}

// The canonical accumulation order every matmul-shaped kernel promises:
// ascending p, skip exact zeros, ascending j into out_row. The dense
// register-blocked path AccumulateRowMatMul selects for zero-free rows
// must reproduce this bit for bit.
void ReferenceRowMatMul(const float* x, int k, const Matrix& b,
                        float* out_row) {
  for (int p = 0; p < k; ++p) {
    if (x[p] == 0.0f) continue;
    for (int j = 0; j < b.cols(); ++j) {
      out_row[j] += x[p] * b.At(p, j);
    }
  }
}

TEST(RowKernelTest, AccumulateRowMatMulMatchesReferenceBitwise) {
  Rng rng(42);
  // k values straddle the 4-wide unroll boundary; m = 3 stays below the
  // narrowest column vector, m = 7 straddles it.
  for (int k : {1, 3, 4, 7, 9, 16}) {
    for (int m : {3, 7}) {
      for (bool with_zeros : {false, true}) {
        Matrix x = Matrix::Random(1, k, -1, 1, &rng);
        if (with_zeros && k > 1) {
          x.At(0, 0) = 0.0f;
          x.At(0, k / 2) = 0.0f;
        }
        const Matrix b = Matrix::Random(k, m, -1, 1, &rng);
        std::vector<float> got(m, 0.5f), want(m, 0.5f);
        AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
        ReferenceRowMatMul(x.data(), k, b, want.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0)
            << "k=" << k << " m=" << m << " zeros=" << with_zeros;
      }
    }
  }
}

TEST(RowKernelTest, ZeroScanCapKeepsSkipSemanticsBitwise) {
  // The dense/sparse selection scans only the first 16 entries of x. A
  // zero hiding past the cap reaches the dense kernel, which adds its
  // +/-0.0 terms instead of skipping them — bitwise-neutral for finite
  // b and accumulators that never hold -0.0 (see AccumulateRowMatMul).
  // Pin that against the skip reference for zeros on both sides of the
  // cap boundary.
  Rng rng(46);
  const int m = 12;
  for (int k : {17, 24, 48}) {
    for (int zero_at : {16, 17, k - 1}) {
      for (float zero : {0.0f, -0.0f}) {
        Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
        x.At(0, zero_at) = zero;
        const Matrix b = Matrix::Random(k, m, -1, 1, &rng);
        std::vector<float> got(m, 0.0f), want(m, 0.0f);
        AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
        ReferenceRowMatMul(x.data(), k, b, want.data());
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), m * sizeof(float)), 0)
            << "k=" << k << " zero_at=" << zero_at;
      }
    }
  }
}

TEST(RowKernelTest, ZeroInScanPrefixStillSelectsBranchyPath) {
  // A zero inside the scanned prefix must take the skip path verbatim.
  // Observable: pair the zero with an inf row of b — skipping leaves
  // the output finite, while the dense kernel's 0 * inf would inject
  // NaN. (Beyond the cap the contract assumes finite b, so this pin
  // only holds for prefix zeros.)
  Rng rng(47);
  const int k = 20, m = 8;
  Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
  x.At(0, 3) = 0.0f;
  Matrix b = Matrix::Random(k, m, -1, 1, &rng);
  for (int j = 0; j < m; ++j) {
    b.At(3, j) = std::numeric_limits<float>::infinity();
  }
  std::vector<float> got(m, 0.0f), want(m, 0.0f);
  AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
  ReferenceRowMatMul(x.data(), k, b, want.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0);
  for (int j = 0; j < m; ++j) EXPECT_TRUE(std::isfinite(got[j])) << j;
}

TEST(RowKernelTest, MatMulRawAgreesWithRowPrimitive) {
  Rng rng(43);
  const Matrix a = Matrix::Random(5, 9, -1, 1, &rng);
  const Matrix b = Matrix::Random(9, 6, -1, 1, &rng);
  const Matrix full = MatMulRaw(a, b);
  for (int i = 0; i < a.rows(); ++i) {
    std::vector<float> row(b.cols(), 0.0f);
    AccumulateRowMatMul(a.data() + static_cast<size_t>(i) * a.cols(),
                        a.cols(), b.data(), b.cols(), row.data());
    EXPECT_EQ(std::memcmp(row.data(),
                          full.data() + static_cast<size_t>(i) * b.cols(),
                          b.cols() * sizeof(float)),
              0)
        << "row " << i;
  }
}

TEST(RowKernelTest, MatMulIntoKeepsPerRowPathChoiceBitwise) {
  // MatMulInto batches runs of rows the zero-scan marks dense into the
  // row-block kernel and sends the rest down the branchy path. Rows
  // alternate between a zero inside the scanned prefix (column 3) and
  // dense rows (some with a zero past the cap, at column 20); b's row 3
  // is +inf, so a sparse row that reached a dense kernel would pick up
  // 0 * inf = NaN. Every row must match AccumulateRowMatMul on a zeroed
  // row byte for byte — the same path, the same bits — for MatMulInto
  // and for MatMulRaw, which runs through it.
  Rng rng(48);
  const int k = 24;
  const std::vector<bool> sparse = {false, true,  false, false, false,
                                    false, false, true,  true,  false,
                                    true,  false, false, false, false,
                                    false, false, false, false, true};
  const int n = static_cast<int>(sparse.size());
  for (int m : {1, 3, 4, 12, 13, 48}) {
    Matrix a = Matrix::Random(n, k, 0.1f, 1.0f, &rng);
    for (int i = 0; i < n; ++i) {
      if (sparse[i]) {
        a.At(i, 3) = 0.0f;
      } else if (i % 3 == 0) {
        a.At(i, 20) = 0.0f;
      }
    }
    Matrix b = Matrix::Random(k, m, -1, 1, &rng);
    for (int j = 0; j < m; ++j) {
      b.At(3, j) = std::numeric_limits<float>::infinity();
    }
    Matrix into = Matrix::Uninit(n, m);
    MatMulInto(a.data(), n, k, b.data(), m, into.data());
    const Matrix raw = MatMulRaw(a, b);
    for (int i = 0; i < n; ++i) {
      std::vector<float> want(m, 0.0f);
      AccumulateRowMatMul(a.data() + static_cast<size_t>(i) * k, k, b.data(),
                          m, want.data());
      const size_t at = static_cast<size_t>(i) * m;
      EXPECT_EQ(
          std::memcmp(into.data() + at, want.data(), m * sizeof(float)), 0)
          << "MatMulInto m=" << m << " row " << i;
      EXPECT_EQ(std::memcmp(raw.data() + at, want.data(), m * sizeof(float)),
                0)
          << "MatMulRaw m=" << m << " row " << i;
      if (sparse[i]) {
        for (int j = 0; j < m; ++j) {
          EXPECT_TRUE(std::isfinite(into.At(i, j))) << "row " << i;
        }
      }
    }
  }
}

TEST(RowKernelTest, PointerScoreRowMatchesComposedOps) {
  Rng rng(44);
  const int d = 48;
  const Matrix keys = Matrix::Random(4, d, -1, 1, &rng);
  const Matrix q = Matrix::Random(1, d, -1, 1, &rng);
  const Matrix v = Matrix::Random(d, 1, -1, 1, &rng);
  for (int i = 0; i < keys.rows(); ++i) {
    // Reference: materialize tanh(keys_i + q) as a row and route it
    // through MatMulRaw — the composition the fused kernel replaces.
    Matrix t(1, d);
    for (int p = 0; p < d; ++p) {
      t.At(0, p) = std::tanh(keys.At(i, p) + q.At(0, p));
    }
    const Matrix want = MatMulRaw(t, v);
    const float got =
        PointerScoreRow(keys.data() + static_cast<size_t>(i) * d, q.data(),
                        v.data(), d);
    EXPECT_EQ(std::memcmp(&got, want.data(), sizeof(float)), 0) << "row " << i;
  }
}

TEST(RowKernelTest, PointerScoresMaskedSkipsMaskedRows) {
  Rng rng(45);
  const int n = 6, d = 8;
  const Matrix keys = Matrix::Random(n, d, -1, 1, &rng);
  const Matrix q = Matrix::Random(1, d, -1, 1, &rng);
  const Matrix v = Matrix::Random(d, 1, -1, 1, &rng);
  const std::vector<bool> mask = {true, false, true, true, false, true};
  std::vector<float> scores(n, -123.0f);
  PointerScoresMasked(keys, q.data(), v.data(), mask, scores.data());
  for (int i = 0; i < n; ++i) {
    if (!mask[i]) {
      EXPECT_EQ(scores[i], -123.0f) << "masked row " << i << " was written";
      continue;
    }
    const float want = PointerScoreRow(
        keys.data() + static_cast<size_t>(i) * d, q.data(), v.data(), d);
    EXPECT_EQ(scores[i], want) << "row " << i;
  }
}

TEST(MatrixTest, RandomIsDeterministicGivenSeed) {
  Rng r1(99), r2(99);
  Matrix a = Matrix::Random(3, 3, -1, 1, &r1);
  Matrix b = Matrix::Random(3, 3, -1, 1, &r2);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace m2g
