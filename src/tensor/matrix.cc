#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/string_util.h"
#include "tensor/simd.h"

namespace m2g {
namespace {

/// The zero-scan that picks a row's path. The branchy skip loop wins
/// when rows carry exact zeros (one-hot features, ReLU outputs, the
/// all-zero initial LSTM state), the vectorized dense kernels win on
/// dense activations. The scan is capped at the first kZeroScanCap
/// entries: real rows are either dense everywhere (hidden activations)
/// or zero-sparse from the start (one-hot blocks), so the prefix
/// decides, and the scan cost stays O(1) instead of O(k) in front of
/// every O(k*m) row product.
///
/// Parity argument for the cap: a zero hiding at p >= kZeroScanCap
/// reaches a dense kernel, which adds x[p] * b[p*m + j] = +/-0.0 instead
/// of skipping the term. Under round-to-nearest, adding +/-0.0 leaves
/// every accumulator bit-unchanged unless the accumulator holds -0.0
/// (only (-0) + (-0) produces -0, so an accumulator that starts at +0.0
/// — as every caller's does — or at any nonzero value can never reach
/// -0.0), and 0 * b is +/-0.0 for every finite b (weights are finite —
/// nn::LoadModule rejects anything else; a nonfinite b poisons the
/// product on either path). The argument does not depend on m, so
/// (n, k) x (k, 1) products follow the same rule. matrix_test pins
/// dense-with-late-zero against the skip reference byte for byte.
bool ScanSaysDense(const float* x, int k) {
  constexpr int kZeroScanCap = 16;
  const int scan = k < kZeroScanCap ? k : kZeroScanCap;
  for (int p = 0; p < scan; ++p) {
    if (x[p] == 0.0f) return false;
  }
  return true;
}

/// The branchy path: ascending p, terms with x[p] == 0 skipped.
void SparseRowMatMul(const float* x, int k, const float* b, int m,
                     float* out_row) {
  for (int p = 0; p < k; ++p) {
    const float av = x[p];
    if (av == 0.0f) continue;
    const float* brow = b + static_cast<size_t>(p) * m;
    for (int j = 0; j < m; ++j) out_row[j] += av * brow[j];
  }
}

void AddRowBias(const Matrix& bias, Matrix* out) {
  const float* brow = bias.data();
  const size_t cols = static_cast<size_t>(out->cols());
  for (int r = 0; r < out->rows(); ++r) {
    simd::AddInPlace(out->data() + static_cast<size_t>(r) * cols, brow,
                     cols);
  }
}

}  // namespace

Matrix::Matrix(int rows, int cols, const std::vector<float>& data)
    : Matrix(rows, cols, Storage::Init::kUninitialized) {
  M2G_CHECK_EQ(size(), data.size());
  if (!data.empty()) {
    std::memcpy(data_.data(), data.data(), data.size() * sizeof(float));
  }
}

Matrix Matrix::Uninit(int rows, int cols) {
  return Matrix(rows, cols, Storage::Init::kUninitialized);
}

Matrix Matrix::Ones(int rows, int cols) { return Full(rows, cols, 1.0f); }

Matrix Matrix::Full(int rows, int cols, float value) {
  Matrix m = Uninit(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.At(i, i) = 1.0f;
  return m;
}

Matrix Matrix::RowVector(const std::vector<float>& values) {
  return Matrix(1, static_cast<int>(values.size()), values);
}

Matrix Matrix::Random(int rows, int cols, float lo, float hi, Rng* rng) {
  Matrix m = Uninit(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return m;
}

void Matrix::Fill(float value) {
  std::fill(data_.data(), data_.data() + size(), value);
}

void Matrix::AddInPlace(const Matrix& other) {
  M2G_CHECK(SameShape(other));
  simd::AddInPlace(data_.data(), other.data_.data(), size());
}

void Matrix::AddScaledInPlace(const Matrix& other, float scale) {
  M2G_CHECK(SameShape(other));
  float* a = data_.data();
  const float* b = other.data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] += scale * b[i];
}

void Matrix::ScaleInPlace(float scale) {
  float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] *= scale;
}

float Matrix::Sum() const {
  float s = 0.0f;
  const float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) s += a[i];
  return s;
}

float Matrix::Norm() const {
  double s = 0.0;
  const float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) {
    s += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(std::sqrt(s));
}

float Matrix::MaxAbs() const {
  float m = 0.0f;
  const float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) {
    m = std::max(m, std::fabs(a[i]));
  }
  return m;
}

std::string Matrix::ToString() const {
  std::string out = StrFormat("Matrix(%d x %d)\n", rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      out += StrFormat("%10.4f ", At(r, c));
    }
    out += "\n";
  }
  return out;
}

Matrix MatMulRaw(const Matrix& a, const Matrix& b) {
  M2G_CHECK_EQ(a.cols(), b.rows());
  Matrix out = Matrix::Uninit(a.rows(), b.cols());
  MatMulInto(a.data(), a.rows(), a.cols(), b.data(), b.cols(), out.data());
  return out;
}

Matrix TransposeRaw(const Matrix& a) {
  Matrix out = Matrix::Uninit(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out.At(c, r) = a.At(r, c);
  }
  return out;
}

Matrix MatMulATB(const Matrix& a, const Matrix& b) {
  M2G_CHECK_EQ(a.rows(), b.rows());
  // Materialize a^T (one sequential O(k*n) copy from the pool) and run
  // the one matmul dispatcher: this IS the reference composition
  // MatMulRaw(TransposeRaw(a), b), so parity and path choice are
  // structural. Gathering one column of `a` per output row and running
  // the per-row kernel on it measured ~0.8x of transpose-then-multiply
  // once MatMulInto hands dense runs to the row-block kernel.
  const Matrix at = TransposeRaw(a);
  Matrix out = Matrix::Uninit(at.rows(), b.cols());
  MatMulInto(at.data(), at.rows(), at.cols(), b.data(), b.cols(), out.data());
  return out;
}

Matrix MatMulABT(const Matrix& a, const Matrix& b) {
  M2G_CHECK_EQ(a.cols(), b.cols());
  // Materialize b^T (one sequential O(k*m) copy from the pool) and run
  // the canonical kernel: this IS the reference composition, so parity
  // is structural. The old fused variant saved the transpose but read
  // b(j, p) with stride k inside the innermost loop — a measured ~2x
  // regression against transpose-then-multiply with the register-blocked
  // dense row kernel; bench_memory_kernels now gates fused >= unfused.
  Matrix bt = TransposeRaw(b);
  Matrix out = Matrix::Uninit(a.rows(), bt.cols());
  MatMulInto(a.data(), a.rows(), a.cols(), bt.data(), bt.cols(), out.data());
  return out;
}

Matrix AffineRaw(const Matrix& x, const Matrix& w, const Matrix* bias,
                 Activation act) {
  M2G_CHECK_EQ(x.cols(), w.rows());
  if (bias != nullptr) {
    M2G_CHECK_EQ(bias->rows(), 1);
    M2G_CHECK_EQ(bias->cols(), w.cols());
  }
  Matrix out = Matrix::Uninit(x.rows(), w.cols());
  MatMulInto(x.data(), x.rows(), x.cols(), w.data(), w.cols(), out.data());
  if (bias != nullptr) AddRowBias(*bias, &out);
  if (act == Activation::kRelu) {
    simd::ReluInPlace(out.data(), out.size());
  }
  return out;
}

void AccumulateRowMatMul(const float* x, int k, const float* b, int m,
                         float* out_row) {
  if (!ScanSaysDense(x, k)) {
    SparseRowMatMul(x, k, b, m, out_row);
    return;
  }
  // Dense path: the runtime-dispatched SIMD tier (AVX2, else the
  // scalar register-blocked reference). Both tiers add the same terms
  // to the same accumulators in the same ascending-p order with separate
  // mul + add instructions, so this is the branchy loop minus its
  // branches, bit for bit — see tensor/simd.h for the full contract.
  simd::DenseRowMatMul(x, k, b, m, out_row);
}

float PointerScoreRow(const float* keys_row, const float* q, const float* v,
                      int d) {
  // Mirrors MatMulRaw(tanh(keys + q), v) for one row: the (d, 1) product
  // accumulates in ascending-p order and skips terms whose tanh is
  // exactly zero, matching the matrix kernel's zero-skip.
  float acc = 0.0f;
  for (int p = 0; p < d; ++p) {
    const float t = std::tanh(keys_row[p] + q[p]);
    if (t == 0.0f) continue;
    acc += t * v[p];
  }
  return acc;
}

void PointerScoresMasked(const Matrix& keys, const float* q, const float* v,
                         const std::vector<bool>& mask, float* scores) {
  const int n = keys.rows(), d = keys.cols();
  M2G_CHECK_EQ(static_cast<size_t>(n), mask.size());
  for (int i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    scores[i] =
        PointerScoreRow(keys.data() + static_cast<size_t>(i) * d, q, v, d);
  }
}

void MatMulInto(const float* a, int n, int k, const float* b, int m,
                float* out) {
  // Per row, the same zero-scan AccumulateRowMatMul runs. Consecutive
  // rows it marks dense go to the row-block kernel in one call (output
  // seeded at +0.0, register-held accumulators); each row it marks
  // sparse is zeroed and takes the branchy skip loop. Either way every
  // row gets exactly the terms, order and path AccumulateRowMatMul
  // would give it on a zeroed row.
  int run = 0;  // first row of the pending dense run
  for (int i = 0; i <= n; ++i) {
    const float* row = a + static_cast<size_t>(i) * k;
    if (i < n && ScanSaysDense(row, k)) continue;
    if (run < i) {
      simd::DenseRowsMatMul(a + static_cast<size_t>(run) * k, i - run, k, k,
                            b, m, out + static_cast<size_t>(run) * m, m);
    }
    if (i < n) {
      float* out_row = out + static_cast<size_t>(i) * m;
      std::fill(out_row, out_row + m, 0.0f);
      SparseRowMatMul(row, k, b, m, out_row);
    }
    run = i + 1;
  }
}

void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits) {
  // (s_dst[j] + s_e[ij]) first, then + s_src[i]: the Add node ran
  // before the AddScalarTensor node on the legacy path. Each output
  // element is independent, so the SIMD tier vectorizes across j with
  // the same add/add/mul/select sequence per lane.
  simd::GatLogitsRow(s_dst, s_edge_row, s_src_i, slope, n, logits);
}

void MaskedSoftmaxRowRaw(const float* logits, const std::vector<bool>& mask,
                         size_t base, int n, float* alpha) {
  float max_v = -std::numeric_limits<float>::infinity();
  bool any = false;
  for (int j = 0; j < n; ++j) {
    if (mask[base + j]) {
      any = true;
      max_v = std::max(max_v, logits[j]);
    }
  }
  M2G_CHECK_MSG(any, "MaskedSoftmaxRowRaw: all positions masked");
  double denom = 0;
  for (int j = 0; j < n; ++j) {
    if (mask[base + j]) {
      alpha[j] = std::exp(logits[j] - max_v);
      denom += alpha[j];
    }
  }
  for (int j = 0; j < n; ++j) {
    alpha[j] = mask[base + j] ? static_cast<float>(alpha[j] / denom) : 0.0f;
  }
}

Matrix DualAffineRaw(const Matrix& x, const Matrix& wx, const Matrix& h,
                     const Matrix& wh, const Matrix& bias) {
  M2G_CHECK_EQ(x.cols(), wx.rows());
  M2G_CHECK_EQ(h.cols(), wh.rows());
  M2G_CHECK_EQ(wx.cols(), wh.cols());
  M2G_CHECK_EQ(bias.rows(), 1);
  M2G_CHECK_EQ(bias.cols(), wx.cols());
  Matrix out = Matrix::Uninit(x.rows(), wx.cols());
  MatMulInto(x.data(), x.rows(), x.cols(), wx.data(), wx.cols(), out.data());
  // The second product must be materialized before the elementwise add:
  // folding it into `out` directly would interleave the two summations
  // and change float rounding. The scratch comes from the pool, so on a
  // warm arena this costs no malloc.
  Matrix scratch = Matrix::Uninit(h.rows(), wh.cols());
  MatMulInto(h.data(), h.rows(), h.cols(), wh.data(), wh.cols(),
             scratch.data());
  out.AddInPlace(scratch);
  AddRowBias(bias, &out);
  return out;
}

}  // namespace m2g
