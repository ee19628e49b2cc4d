#ifndef M2G_TENSOR_SIMD_H_
#define M2G_TENSOR_SIMD_H_

#include <cstddef>

namespace m2g::simd {

// ---------------------------------------------------------------------------
// Runtime-dispatched SIMD kernel tier.
//
// Every hot path in the library (encode/decode fast paths, training
// matmuls, the LSTM gate block) bottoms out in the handful of row kernels
// below. They are implemented twice in tensor/simd.cc — a scalar
// reference and AVX2, the latter with per-function target attributes
// (no global -march change) — and AVX2 is selected once at startup
// when CPUID reports it. Scalar is the only path on non-x86 hosts and
// on x86 hosts without AVX2.
//
// The parity contract every implementation obeys:
//   * vectorize only across *independent* output elements (columns of
//     one output row, elements of one elementwise array) — never across
//     the reduction dimension;
//   * keep each output element's terms in the canonical ascending-p
//     accumulation order, one add at a time;
//   * use separate multiply and add instructions (the SIMD translation
//     unit is compiled with -ffp-contract=off and the target attributes
//     deliberately exclude "fma", so no fused-multiply-add can be
//     emitted).
// Under round-to-nearest, lane l of a mulps/addps pair computes exactly
// what the scalar mulss/addss pair computes on element l, so the AVX2
// tier is bit-for-bit identical to the scalar reference (simd_parity_test
// pins this on ragged shapes, denormals, and ±inf/NaN inputs).
//
// Where an output element's running sum lives is not part of the
// contract: the row-block kernel (DenseRowsMatMul) keeps it in a
// register for the whole reduction instead of reloading and storing it
// every few terms. A float store/load round-trips exactly, so holding
// the sum in a register changes no bit; only the number of memory
// operations moves. Lanes may also hold different *rows* (the m == 1
// kernel puts eight output rows in the eight lanes of one register):
// each lane is still one output element's own ascending-p chain.
//
// Overrides, in precedence order:
//   * M2G_SIMD environment variable, read once at first kernel use:
//     "off"/"scalar", "avx2", or "auto" (the default). Requesting AVX2
//     on a host without it clamps down with a warning; any other value
//     warns and falls back to "auto".
//   * SetTier() — used by tests and benches to force a tier at runtime.
// The active tier is exported as the tensor.simd_tier gauge (detected
// tier as tensor.simd_tier_detected, SetTier calls as the
// tensor.simd.tier_sets counter) and surfaces in /healthz and wide
// events via the serving layer.
// ---------------------------------------------------------------------------

/// Dispatch tiers, ordered. The numeric values are what the
/// tensor.simd_tier gauge exports; 1 belonged to a retired 4-lane tier
/// and stays unused so dashboards keep their meaning.
enum class Tier : int { kScalar = 0, kAvx2 = 2 };

/// Best tier this CPU supports (CPUID, cached). Always kScalar on
/// non-x86 builds.
Tier DetectedTier();

/// The tier kernels currently dispatch to (after env/config overrides).
Tier ActiveTier();

/// Forces the dispatch tier, clamped to DetectedTier() (requesting AVX2
/// on a host without it selects scalar). Thread-safe; outputs are
/// bitwise-identical across tiers, so switching mid-run is harmless.
void SetTier(Tier tier);

/// Maps "off"/"scalar" -> kScalar, "avx2" -> kAvx2 (case-sensitive, as
/// the M2G_SIMD values documented above). Returns false — leaving *out
/// untouched — for anything else, including "auto".
bool ParseTierName(const char* name, Tier* out);

/// "scalar" or "avx2".
const char* TierName(Tier tier);

// --- Dispatched kernels -----------------------------------------------------
// These are the vector-width-sensitive inner loops; the callable
// entry points the rest of the library uses (AccumulateRowMatMul,
// GatLogitsRow, AffineRaw, ...) live in tensor/matrix.h and forward
// here. Callers, not these kernels, own path selection: DenseRowMatMul
// and DenseRowsMatMul are only reached after the zero-scan chose the
// dense path.

/// out_row[j] += sum_p x[p] * b[p*m + j], terms in ascending-p order per
/// output element, no zero-skip (the caller's zero-scan guaranteed the
/// scanned prefix is zero-free; any unscanned zero contributes a ±0.0
/// term, which is bitwise-neutral — see AccumulateRowMatMul).
void DenseRowMatMul(const float* x, int k, const float* b, int m,
                    float* out_row);

/// Fresh output rows: for r in [0, rows) and j in [0, m),
///   out[r*out_stride + j] = +0.0 + x[r*x_stride + 0] * b[0*m + j]
///                                + x[r*x_stride + 1] * b[1*m + j] + ...
/// — each element seeded at +0.0 and then the ascending-p terms with
/// separate mul and add, so every row is bitwise what a zero-filled row
/// through DenseRowMatMul produces. The AVX2 tier register-blocks 4 rows
/// by 16/12/8/4 columns (scalar columns after that) with the
/// accumulators held across the whole reduction, in 64-row panels, and
/// for m == 1 puts 8 rows in the lanes of one register
/// (x is transposed 8x8 in registers, so each lane walks its own row in
/// ascending p). The scalar tier is the fill-zero + per-row composition
/// itself. Like DenseRowMatMul this skips no zeros: callers
/// hand it only rows their zero-scan marked dense.
void DenseRowsMatMul(const float* x, int rows, size_t x_stride, int k,
                     const float* b, int m, float* out, size_t out_stride);

/// The GAT-e edge epilogue (Eq. 23/25) for n pair rows that share the
/// source node i: for j in [0, n) and c in [0, dh),
///   v = e3[j*e3_stride + c] + (nw4_row[c] + nw5[j*dh + c]);
///   r = v > 0 ? v : 0.0f;
///   out[j*out_stride + c] = r          (accumulate == false)
///   out[j*out_stride + c] += r         (accumulate == true)
/// The association order is the legacy Add(ew3, Add(w4-term, w5-term));
/// the accumulate form is the last layer's ascending-head sum (Eq. 26).
/// The vector ReLU ands v with its v > 0 mask, so NaN and -0.0 become
/// +0.0 exactly as the scalar ternary does.
void EdgeEpilogue(const float* e3, size_t e3_stride, const float* nw4_row,
                  const float* nw5, int n, int dh, float* out,
                  size_t out_stride, bool accumulate);

/// logits[j] = LeakyRelu((s_dst[j] + s_edge_row[j]) + s_src_i), the
/// GAT-e attention-logit row (tensor/matrix.h GatLogitsRow forwards
/// here). The vector form selects pre > 0 ? pre : slope * pre per lane
/// with a compare + blend, matching the scalar ternary bit for bit
/// (NaN compares false and propagates through slope * pre, exactly as
/// the scalar branch does).
void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits);

/// a[i] += b[i] for n independent elements (Matrix::AddInPlace, the
/// row-broadcast bias adds, and the LSTM gate pre-activation block).
void AddInPlace(float* a, const float* b, size_t n);

/// a[i] = a[i] > 0 ? a[i] : 0.0f for n independent elements (the fused
/// activation tail of AffineRaw). The vector form ands the input with
/// its a > 0 compare mask: false lanes (including NaN and -0.0) become
/// +0.0, exactly the scalar ternary's 0.0f.
void ReluInPlace(float* a, size_t n);

}  // namespace m2g::simd

#endif  // M2G_TENSOR_SIMD_H_
