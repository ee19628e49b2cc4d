#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define M2G_SIMD_X86 1
#include <immintrin.h>
#endif

// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt) and none of the target attributes below include
// "fma", so the compiler can neither contract the separate mul/add
// statements of the scalar tier nor emit vfmadd for the AVX2 tier:
// both tiers perform the same two-rounding mul-then-add per output
// element, which is what makes them bit-for-bit interchangeable.

namespace m2g::simd {
namespace {

using DenseRowFn = void (*)(const float*, int, const float*, int, float*);

struct KernelTable {
  Tier tier;
  DenseRowFn dense_row;
  void (*dense_rows)(const float*, int, size_t, int, const float*, int,
                     float*, size_t);
  void (*edge_epilogue)(const float*, size_t, const float*, const float*,
                        int, int, float*, size_t, bool);
  void (*gat_logits)(const float*, const float*, float, float, int, float*);
  void (*add)(float*, const float*, size_t);
  void (*relu)(float*, size_t);
};

// --- Scalar tier: the bitwise reference ----------------------------------
// (DenseRowScalar is the pre-SIMD row kernel matrix.cc carried before
// the tier split, verbatim. simd_parity_test compares the AVX2 tier
// against this one byte for byte.)

/// Register-blocked dense row product: four b-rows per pass over
/// out_row, one load/store of each accumulator instead of four. The
/// per-column additions stay separate statements in ascending-p order
/// (no reassociation), so per element this is the plain ascending-p
/// accumulation loop, bit for bit.
void DenseRowScalar(const float* x, int k, const float* b, int m,
                    float* out_row) {
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const float a0 = x[p], a1 = x[p + 1], a2 = x[p + 2], a3 = x[p + 3];
    const float* b0 = b + static_cast<size_t>(p) * m;
    const float* b1 = b0 + m;
    const float* b2 = b1 + m;
    const float* b3 = b2 + m;
    for (int j = 0; j < m; ++j) {
      float acc = out_row[j];
      acc += a0 * b0[j];
      acc += a1 * b1[j];
      acc += a2 * b2[j];
      acc += a3 * b3[j];
      out_row[j] = acc;
    }
  }
  for (; p < k; ++p) {
    const float av = x[p];
    const float* brow = b + static_cast<size_t>(p) * m;
    for (int j = 0; j < m; ++j) out_row[j] += av * brow[j];
  }
}

/// DenseRowsMatMul as the composition it is specified against: zero
/// each output row, then run the tier's per-row kernel on it. This is
/// the scalar tier's reference (the AVX2 tier falls back to it for the
/// rows left over after its blocks).
template <DenseRowFn Row>
void DenseRowsByRow(const float* x, int rows, size_t x_stride, int k,
                    const float* b, int m, float* out, size_t out_stride) {
  for (int r = 0; r < rows; ++r) {
    float* o = out + r * out_stride;
    std::fill(o, o + m, 0.0f);
    Row(x + r * x_stride, k, b, m, o);
  }
}

/// One element of the edge epilogue: relu(e3 + (w4 + w5)), in the
/// legacy Add(ew3, Add(w4-term, w5-term)) association order.
inline float EdgeValue(float e3, float w4, float w5) {
  const float t = w4 + w5;
  const float v = e3 + t;
  return v > 0.0f ? v : 0.0f;
}

void EdgeEpilogueScalar(const float* e3, size_t e3_stride,
                        const float* nw4_row, const float* nw5, int n, int dh,
                        float* out, size_t out_stride, bool accumulate) {
  for (int j = 0; j < n; ++j) {
    const float* e = e3 + j * e3_stride;
    const float* w5 = nw5 + static_cast<size_t>(j) * dh;
    float* o = out + j * out_stride;
    for (int c = 0; c < dh; ++c) {
      const float r = EdgeValue(e[c], nw4_row[c], w5[c]);
      o[c] = accumulate ? o[c] + r : r;
    }
  }
}

void GatLogitsScalar(const float* s_dst, const float* s_edge_row,
                     float s_src_i, float slope, int n, float* logits) {
  for (int j = 0; j < n; ++j) {
    // (s_dst[j] + s_e[ij]) first, then + s_src[i]: the Add node ran
    // before the AddScalarTensor node on the legacy path.
    const float t = s_dst[j] + s_edge_row[j];
    const float pre = t + s_src_i;
    logits[j] = pre > 0.0f ? pre : slope * pre;
  }
}

void AddScalar(float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] += b[i];
}

void ReluScalar(float* a, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

constexpr KernelTable kScalarTable = {
    Tier::kScalar,    &DenseRowScalar, &DenseRowsByRow<&DenseRowScalar>,
    &EdgeEpilogueScalar, &GatLogitsScalar, &AddScalar,
    &ReluScalar};

#ifdef M2G_SIMD_X86

// --- AVX2 tier (8 lanes) ---------------------------------------------------

__attribute__((target("avx2"))) void DenseRowAvx2(const float* x, int k,
                                                  const float* b, int m,
                                                  float* out_row) {
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m256 a0 = _mm256_set1_ps(x[p]);
    const __m256 a1 = _mm256_set1_ps(x[p + 1]);
    const __m256 a2 = _mm256_set1_ps(x[p + 2]);
    const __m256 a3 = _mm256_set1_ps(x[p + 3]);
    const float* b0 = b + static_cast<size_t>(p) * m;
    const float* b1 = b0 + m;
    const float* b2 = b1 + m;
    const float* b3 = b2 + m;
    int j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256 acc = _mm256_loadu_ps(out_row + j);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a0, _mm256_loadu_ps(b0 + j)));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a1, _mm256_loadu_ps(b1 + j)));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a2, _mm256_loadu_ps(b2 + j)));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a3, _mm256_loadu_ps(b3 + j)));
      _mm256_storeu_ps(out_row + j, acc);
    }
    for (; j < m; ++j) {
      float acc = out_row[j];
      acc += x[p] * b0[j];
      acc += x[p + 1] * b1[j];
      acc += x[p + 2] * b2[j];
      acc += x[p + 3] * b3[j];
      out_row[j] = acc;
    }
  }
  for (; p < k; ++p) {
    const __m256 av = _mm256_set1_ps(x[p]);
    const float* brow = b + static_cast<size_t>(p) * m;
    int j = 0;
    for (; j + 8 <= m; j += 8) {
      _mm256_storeu_ps(
          out_row + j,
          _mm256_add_ps(_mm256_loadu_ps(out_row + j),
                        _mm256_mul_ps(av, _mm256_loadu_ps(brow + j))));
    }
    for (; j < m; ++j) out_row[j] += x[p] * brow[j];
  }
}

// Row-block kernels. Every accumulator below is one output element's
// running sum: seeded at +0.0, then one mul + one add per reduction
// step in ascending p, held in a register from the first term to the
// final store. That is the per-row kernel's arithmetic with the
// store/reload round-trips (which are exact) taken out.

/// One reduction step of one tile row: broadcast x[p] and add its
/// products with the b row segment into that row's accumulators.
template <int kYmm, bool kXmm>
__attribute__((target("avx2"), always_inline)) inline void Rows4TileStep(
    const float* xp, __m256 b0, __m256 b1, __m128 bq, __m256* c0,
    __m256* c1, __m128* q) {
  if (kYmm > 0) {
    const __m256 a = _mm256_broadcast_ss(xp);
    *c0 = _mm256_add_ps(*c0, _mm256_mul_ps(a, b0));
    if (kYmm > 1) *c1 = _mm256_add_ps(*c1, _mm256_mul_ps(a, b1));
  }
  if (kXmm) *q = _mm_add_ps(*q, _mm_mul_ps(_mm_broadcast_ss(xp), bq));
}

template <int kYmm, bool kXmm>
__attribute__((target("avx2"), always_inline)) inline void Rows4TileStore(
    float* o, __m256 c0, __m256 c1, __m128 q) {
  if (kYmm > 0) _mm256_storeu_ps(o, c0);
  if (kYmm > 1) _mm256_storeu_ps(o + 8, c1);
  if (kXmm) _mm_storeu_ps(o + 8 * kYmm, q);
}

/// Four output rows x (8 * kYmm + (kXmm ? 4 : 0)) columns starting at
/// column j0: 4 * kYmm ymm and (kXmm ? 4 : 0) xmm accumulators live
/// across the whole reduction; each step loads the b row segment once
/// and broadcasts one x value per row. The 16-, 12- (d_h = 12: 8 + 4,
/// one tile, eight independent chains), 8- and 4-column shapes are the
/// instantiations DenseRowsAvx2 uses.
template <int kYmm, bool kXmm>
__attribute__((target("avx2"))) void Rows4TileAvx2(
    const float* x, size_t x_stride, int k, const float* b, int m, int j0,
    float* out, size_t out_stride) {
  static_assert(kYmm >= 0 && kYmm <= 2, "at most 16 ymm columns");
  const float* x0 = x;
  const float* x1 = x0 + x_stride;
  const float* x2 = x1 + x_stride;
  const float* x3 = x2 + x_stride;
  const __m256 zero = _mm256_setzero_ps();
  const __m128 zero4 = _mm_setzero_ps();
  __m256 c00 = zero, c01 = zero, c10 = zero, c11 = zero;
  __m256 c20 = zero, c21 = zero, c30 = zero, c31 = zero;
  __m128 q0 = zero4, q1 = zero4, q2 = zero4, q3 = zero4;
  for (int p = 0; p < k; ++p) {
    const float* bp = b + static_cast<size_t>(p) * m + j0;
    const __m256 b0 = kYmm > 0 ? _mm256_loadu_ps(bp) : zero;
    const __m256 b1 = kYmm > 1 ? _mm256_loadu_ps(bp + 8) : zero;
    const __m128 bq = kXmm ? _mm_loadu_ps(bp + 8 * kYmm) : zero4;
    Rows4TileStep<kYmm, kXmm>(x0 + p, b0, b1, bq, &c00, &c01, &q0);
    Rows4TileStep<kYmm, kXmm>(x1 + p, b0, b1, bq, &c10, &c11, &q1);
    Rows4TileStep<kYmm, kXmm>(x2 + p, b0, b1, bq, &c20, &c21, &q2);
    Rows4TileStep<kYmm, kXmm>(x3 + p, b0, b1, bq, &c30, &c31, &q3);
  }
  float* o = out + j0;
  Rows4TileStore<kYmm, kXmm>(o, c00, c01, q0);
  Rows4TileStore<kYmm, kXmm>(o + out_stride, c10, c11, q1);
  Rows4TileStore<kYmm, kXmm>(o + 2 * out_stride, c20, c21, q2);
  Rows4TileStore<kYmm, kXmm>(o + 3 * out_stride, c30, c31, q3);
}

/// Four rows x one column in scalar registers (m % 4 leftovers).
__attribute__((target("avx2"))) inline void Rows4Col1Avx2(
    const float* x, size_t x_stride, int k, const float* b, int m, int j,
    float* out, size_t out_stride) {
  const float* x0 = x;
  const float* x1 = x0 + x_stride;
  const float* x2 = x1 + x_stride;
  const float* x3 = x2 + x_stride;
  float c0 = 0.0f, c1 = 0.0f, c2 = 0.0f, c3 = 0.0f;
  for (int p = 0; p < k; ++p) {
    const float bv = b[static_cast<size_t>(p) * m + j];
    c0 += x0[p] * bv;
    c1 += x1[p] * bv;
    c2 += x2[p] * bv;
    c3 += x3[p] * bv;
  }
  out[j] = c0;
  out[out_stride + j] = c1;
  out[2 * out_stride + j] = c2;
  out[3 * out_stride + j] = c3;
}

/// In-register 8x8 transpose: on return r[q] holds element q of each
/// input row, row l in lane l. Pure data movement, no arithmetic.
__attribute__((target("avx2"))) inline void Transpose8x8Avx2(__m256* r) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// m == 1: eight output rows in the eight lanes of one accumulator.
/// Each 8-wide step of p loads an 8x8 block of x and transposes it, so
/// register q holds x[r..r+7][p+q] and lane l still adds row l's terms
/// in ascending p.
__attribute__((target("avx2"))) void DenseRowsM1Avx2(
    const float* x, int rows, size_t x_stride, int k, const float* b,
    float* out, size_t out_stride) {
  int r = 0;
  for (; r + 8 <= rows; r += 8) {
    const float* xr = x + r * x_stride;
    __m256 acc = _mm256_setzero_ps();
    int p = 0;
    for (; p + 8 <= k; p += 8) {
      __m256 cols[8];
#pragma GCC unroll 8
      for (int l = 0; l < 8; ++l) {
        cols[l] = _mm256_loadu_ps(xr + l * x_stride + p);
      }
      Transpose8x8Avx2(cols);
#pragma GCC unroll 8
      for (int q = 0; q < 8; ++q) {
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(cols[q], _mm256_broadcast_ss(b + p + q)));
      }
    }
    for (; p < k; ++p) {
      const __m256 col = _mm256_set_ps(
          xr[7 * x_stride + p], xr[6 * x_stride + p], xr[5 * x_stride + p],
          xr[4 * x_stride + p], xr[3 * x_stride + p], xr[2 * x_stride + p],
          xr[x_stride + p], xr[p]);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(col, _mm256_broadcast_ss(b + p)));
    }
    if (out_stride == 1) {
      _mm256_storeu_ps(out + r, acc);
    } else {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, acc);
      for (int l = 0; l < 8; ++l) out[(r + l) * out_stride] = lanes[l];
    }
  }
  DenseRowsByRow<&DenseRowAvx2>(x + r * x_stride, rows - r, x_stride, k, b,
                                1, out + r * out_stride, out_stride);
}

__attribute__((target("avx2"))) void DenseRowsAvx2(
    const float* x, int rows, size_t x_stride, int k, const float* b, int m,
    float* out, size_t out_stride) {
  if (m == 1) {
    DenseRowsM1Avx2(x, rows, x_stride, k, b, out, out_stride);
    return;
  }
  // Panels of up to 64 rows; within a panel, column strips outer and
  // 4-row blocks inner, so the panel's rows of x and one strip of b
  // (k x 16 floats) stay in L1 while the row blocks stream past.
  constexpr int kPanelRows = 64;
  const int blocked = rows - rows % 4;
  for (int r0 = 0; r0 < blocked; r0 += kPanelRows) {
    const int r1 = r0 + kPanelRows < blocked ? r0 + kPanelRows : blocked;
    const auto strip = [&](auto tile, int j) {
      for (int r = r0; r < r1; r += 4) {
        tile(x + r * x_stride, x_stride, k, b, m, j, out + r * out_stride,
             out_stride);
      }
    };
    int j = 0;
    for (; j + 16 <= m; j += 16) strip(Rows4TileAvx2<2, false>, j);
    if (j + 12 <= m) {
      strip(Rows4TileAvx2<1, true>, j);
      j += 12;
    } else if (j + 8 <= m) {
      strip(Rows4TileAvx2<1, false>, j);
      j += 8;
    } else if (j + 4 <= m) {
      strip(Rows4TileAvx2<0, true>, j);
      j += 4;
    }
    for (; j < m; ++j) strip(Rows4Col1Avx2, j);
  }
  DenseRowsByRow<&DenseRowAvx2>(x + blocked * x_stride, rows - blocked,
                                x_stride, k, b, m, out + blocked * out_stride,
                                out_stride);
}

__attribute__((target("avx2"))) void EdgeEpilogueAvx2(
    const float* e3, size_t e3_stride, const float* nw4_row, const float* nw5,
    int n, int dh, float* out, size_t out_stride, bool accumulate) {
  const __m256 vzero = _mm256_setzero_ps();
  for (int j = 0; j < n; ++j) {
    const float* e = e3 + j * e3_stride;
    const float* w5 = nw5 + static_cast<size_t>(j) * dh;
    float* o = out + j * out_stride;
    int c = 0;
    for (; c + 8 <= dh; c += 8) {
      const __m256 t = _mm256_add_ps(_mm256_loadu_ps(nw4_row + c),
                                     _mm256_loadu_ps(w5 + c));
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(e + c), t);
      __m256 r = _mm256_and_ps(_mm256_cmp_ps(v, vzero, _CMP_GT_OQ), v);
      if (accumulate) r = _mm256_add_ps(_mm256_loadu_ps(o + c), r);
      _mm256_storeu_ps(o + c, r);
    }
    for (; c + 4 <= dh; c += 4) {
      const __m128 t =
          _mm_add_ps(_mm_loadu_ps(nw4_row + c), _mm_loadu_ps(w5 + c));
      const __m128 v = _mm_add_ps(_mm_loadu_ps(e + c), t);
      __m128 r = _mm_and_ps(_mm_cmpgt_ps(v, _mm_setzero_ps()), v);
      if (accumulate) r = _mm_add_ps(_mm_loadu_ps(o + c), r);
      _mm_storeu_ps(o + c, r);
    }
    for (; c < dh; ++c) {
      const float r = EdgeValue(e[c], nw4_row[c], w5[c]);
      o[c] = accumulate ? o[c] + r : r;
    }
  }
}

__attribute__((target("avx2"))) void GatLogitsAvx2(const float* s_dst,
                                                   const float* s_edge_row,
                                                   float s_src_i, float slope,
                                                   int n, float* logits) {
  const __m256 vsrc = _mm256_set1_ps(s_src_i);
  const __m256 vslope = _mm256_set1_ps(slope);
  const __m256 vzero = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 t = _mm256_add_ps(_mm256_loadu_ps(s_dst + j),
                                   _mm256_loadu_ps(s_edge_row + j));
    const __m256 pre = _mm256_add_ps(t, vsrc);
    const __m256 neg = _mm256_mul_ps(vslope, pre);
    // Ordered quiet > : NaN lanes select slope * pre like the scalar
    // ternary's else-branch.
    const __m256 gt = _mm256_cmp_ps(pre, vzero, _CMP_GT_OQ);
    _mm256_storeu_ps(logits + j, _mm256_blendv_ps(neg, pre, gt));
  }
  for (; j < n; ++j) {
    const float t = s_dst[j] + s_edge_row[j];
    const float pre = t + s_src_i;
    logits[j] = pre > 0.0f ? pre : slope * pre;
  }
}

__attribute__((target("avx2"))) void AddAvx2(float* a, const float* b,
                                             size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

__attribute__((target("avx2"))) void ReluAvx2(float* a, size_t n) {
  const __m256 vzero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(
        a + i, _mm256_and_ps(_mm256_cmp_ps(v, vzero, _CMP_GT_OQ), v));
  }
  for (; i < n; ++i) a[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

constexpr KernelTable kAvx2Table = {
    Tier::kAvx2,       &DenseRowAvx2,  &DenseRowsAvx2,
    &EdgeEpilogueAvx2, &GatLogitsAvx2, &AddAvx2,
    &ReluAvx2};

#endif  // M2G_SIMD_X86

const KernelTable* TableFor(Tier tier) {
#ifdef M2G_SIMD_X86
  if (tier == Tier::kAvx2) return &kAvx2Table;
#else
  (void)tier;
#endif
  return &kScalarTable;
}

/// Startup tier: detected hardware, possibly lowered by M2G_SIMD. Read
/// once, lazily, at the first kernel call (so setenv in a test harness
/// that runs before any tensor work still takes effect).
const KernelTable* InitialTable() {
  Tier tier = DetectedTier();
  if (const char* env = std::getenv("M2G_SIMD")) {
    Tier requested;
    if (ParseTierName(env, &requested)) {
      if (requested > tier) {
        std::fprintf(stderr,
                     "[simd] M2G_SIMD=%s not supported by this CPU; "
                     "using %s\n",
                     env, TierName(tier));
      } else {
        tier = requested;
      }
    } else if (std::strcmp(env, "auto") != 0 && env[0] != '\0') {
      std::fprintf(stderr,
                   "[simd] unknown M2G_SIMD value \"%s\" "
                   "(want off|scalar|avx2|auto); using %s\n",
                   env, TierName(tier));
    }
  }
  return TableFor(tier);
}

std::atomic<const KernelTable*>& ActiveTable() {
  static std::atomic<const KernelTable*> table{InitialTable()};
  return table;
}

const KernelTable* Active() {
  return ActiveTable().load(std::memory_order_acquire);
}

/// Pull-time gauges, same pattern as the pool's arena counters: the
/// value is read from the dispatch state only when a snapshot is taken.
struct SimdMetricsRegistrar {
  SimdMetricsRegistrar() {
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "tensor.simd_tier",
        [] { return static_cast<double>(static_cast<int>(ActiveTier())); });
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "tensor.simd_tier_detected", [] {
          return static_cast<double>(static_cast<int>(DetectedTier()));
        });
  }
};
const SimdMetricsRegistrar g_simd_metrics_registrar;

}  // namespace

Tier DetectedTier() {
#ifdef M2G_SIMD_X86
  static const Tier tier = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Tier::kAvx2 : Tier::kScalar;
  }();
  return tier;
#else
  return Tier::kScalar;
#endif
}

Tier ActiveTier() { return Active()->tier; }

void SetTier(Tier tier) {
  if (tier > DetectedTier()) tier = DetectedTier();
  ActiveTable().store(TableFor(tier), std::memory_order_release);
  obs::MetricsRegistry::Global().counter("tensor.simd.tier_sets").Increment();
}

bool ParseTierName(const char* name, Tier* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "off") == 0 || std::strcmp(name, "scalar") == 0) {
    *out = Tier::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = Tier::kAvx2;
    return true;
  }
  return false;
}

const char* TierName(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

void DenseRowMatMul(const float* x, int k, const float* b, int m,
                    float* out_row) {
  Active()->dense_row(x, k, b, m, out_row);
}

void DenseRowsMatMul(const float* x, int rows, size_t x_stride, int k,
                     const float* b, int m, float* out, size_t out_stride) {
  Active()->dense_rows(x, rows, x_stride, k, b, m, out, out_stride);
}

void EdgeEpilogue(const float* e3, size_t e3_stride, const float* nw4_row,
                  const float* nw5, int n, int dh, float* out,
                  size_t out_stride, bool accumulate) {
  Active()->edge_epilogue(e3, e3_stride, nw4_row, nw5, n, dh, out,
                          out_stride, accumulate);
}

void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits) {
  Active()->gat_logits(s_dst, s_edge_row, s_src_i, slope, n, logits);
}

void AddInPlace(float* a, const float* b, size_t n) {
  Active()->add(a, b, n);
}

void ReluInPlace(float* a, size_t n) { Active()->relu(a, n); }

}  // namespace m2g::simd
