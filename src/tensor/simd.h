#ifndef M2G_TENSOR_SIMD_H_
#define M2G_TENSOR_SIMD_H_

#include <cstddef>

namespace m2g::simd {

// ---------------------------------------------------------------------------
// Runtime-dispatched SIMD kernel tier.
//
// Every hot path in the library (encode/decode fast paths, training
// matmuls, the LSTM gate block) bottoms out in the handful of row kernels
// below. They are implemented three times in tensor/simd.cc — scalar,
// SSE2, AVX2 — with per-function target attributes (no global -march
// change), and the best tier the CPU supports is selected once at
// startup via CPUID.
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
// what the scalar mulss/addss pair computes on element l, so every tier
// is bit-for-bit identical to the scalar reference (simd_parity_test
// pins this on ragged shapes, denormals, and ±inf/NaN inputs).
//
// Overrides, in precedence order:
//   * M2G_SIMD environment variable, read once at first kernel use:
//     "off"/"scalar", "sse2", "avx2", or "auto" (the default). Requests
//     above the detected tier clamp down with a warning.
//   * SetTier() — used by tests and benches to force a tier at runtime.
// The active tier is exported as the tensor.simd_tier gauge (detected
// tier as tensor.simd_tier_detected, SetTier calls as the
// tensor.simd.tier_sets counter) and surfaces in /healthz and wide
// events via the serving layer.
// ---------------------------------------------------------------------------

/// Dispatch tiers, ordered: a higher tier strictly extends the ISA of
/// the lower ones. The numeric values are what the tensor.simd_tier
/// gauge exports.
enum class Tier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Best tier this CPU supports (CPUID, cached). Always kScalar on
/// non-x86 builds.
Tier DetectedTier();

/// The tier kernels currently dispatch to (after env/config overrides).
Tier ActiveTier();

/// Forces the dispatch tier, clamped to DetectedTier() (requesting AVX2
/// on an SSE2-only host selects SSE2). Thread-safe; outputs are
/// bitwise-identical across tiers, so switching mid-run is harmless.
void SetTier(Tier tier);

/// Maps "off"/"scalar" -> kScalar, "sse2" -> kSse2, "avx2" -> kAvx2
/// (case-sensitive, as the M2G_SIMD values documented above). Returns
/// false — leaving *out untouched — for anything else, including "auto".
bool ParseTierName(const char* name, Tier* out);

/// "scalar", "sse2", or "avx2".
const char* TierName(Tier tier);

// --- Dispatched kernels -----------------------------------------------------
// These are the vector-width-sensitive inner loops; the callable
// entry points the rest of the library uses (AccumulateRowMatMul,
// GatLogitsRow, AffineRaw, ...) live in tensor/matrix.h and forward
// here. Callers, not these kernels, own path selection: DenseRowMatMul
// is only reached after the zero-scan chose the dense path.

/// out_row[j] += sum_p x[p] * b[p*m + j], terms in ascending-p order per
/// output element, no zero-skip (the caller's zero-scan guaranteed the
/// scanned prefix is zero-free; any unscanned zero contributes a ±0.0
/// term, which is bitwise-neutral — see AccumulateRowMatMul).
void DenseRowMatMul(const float* x, int k, const float* b, int m,
                    float* out_row);

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
