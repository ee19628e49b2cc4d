// SIMD kernel tier bench: every dispatched row kernel timed at paper
// dims (F = 48 hidden units, n = 50 graph nodes) on every tier this
// host supports, with byte-identity checks between tiers on every
// kernel. The dense MatMulInto row is the headline — it is the inner
// loop of the O(n^2 F^2) GAT-e edge term that dominates encode cost.
// The DenseRows rows time the row-block kernel alone at the GAT-e edge
// shapes (n^2 = 2500 pair rows of F = 48 against one head's W3 at a
// hidden layer's d_h = 12 and the last layer's d_h = 48, the (48, 1)
// a_e column, and the all-heads stacks ForwardFast multiplies by:
// 4 x 12 + 4 = 52 and 4 x 48 + 4 = 196 columns) and report GFLOP/s
// next to ns.
//
// `--smoke` (Release CI) exits nonzero if
//   * any kernel's output differs by one byte between any two tiers,
//   * the best-tier dense MatMulInto speedup over the scalar tier is
//     below the floor (default 2.0 when AVX2 is detected, 1.0
//     otherwise; M2G_BENCH_SIMD_MIN_SPEEDUP overrides for scalar-only
//     or noisy runners),
//   * a short fixed-seed training run does not produce byte-identical
//     parameters between the scalar tier and the best tier (the
//     end-to-end restatement of the per-kernel parity contract), or
//   * BENCH_simd.json cannot be written.
// The JSON dump records the detected tier, per-kernel per-tier ns, and
// the speedups, next to the other BENCH_*.json CI artifacts.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/model.h"
#include "core/trainer.h"
#include "tensor/matrix.h"
#include "tensor/pool.h"
#include "tensor/simd.h"

namespace {

using m2g::Matrix;
using m2g::Rng;

volatile float g_sink = 0.0f;

void Sink(float v) { g_sink = g_sink + v; }

std::vector<m2g::simd::Tier> SupportedTiers() {
  std::vector<m2g::simd::Tier> tiers = {m2g::simd::Tier::kScalar};
  if (m2g::simd::DetectedTier() >= m2g::simd::Tier::kSse2) {
    tiers.push_back(m2g::simd::Tier::kSse2);
  }
  if (m2g::simd::DetectedTier() >= m2g::simd::Tier::kAvx2) {
    tiers.push_back(m2g::simd::Tier::kAvx2);
  }
  return tiers;
}

struct KernelCase {
  std::string name;
  // Runs the kernel once and appends its full output to *out (the
  // cross-tier identity check compares these bytes).
  std::function<void(std::vector<float>*)> run;
  // Floating-point operations per call (0: not reported) and the divisor
  // applied to the iteration count for calls that are whole-tile sized.
  double flops = 0;
  int iter_div = 1;
};

struct TierTiming {
  m2g::simd::Tier tier;
  double ns_per_op = 0;
};

struct KernelReport {
  std::string name;
  std::vector<TierTiming> timings;
  bool identical = true;
  double flops = 0;

  double NsFor(m2g::simd::Tier tier) const {
    for (const TierTiming& t : timings) {
      if (t.tier == tier) return t.ns_per_op;
    }
    return 0;
  }
};

/// Min-of-rounds timing, like the other fast-path benches: the min
/// discards scheduling spikes on shared CI boxes.
template <typename Fn>
double TimeNs(int iters, Fn&& fn) {
  double best = 0;
  for (int round = 0; round < 3; ++round) {
    m2g::Stopwatch watch;
    for (int i = 0; i < iters; ++i) fn();
    const double ns = watch.ElapsedSeconds() * 1e9 / iters;
    if (round == 0 || ns < best) best = ns;
  }
  return best;
}

KernelReport BenchKernel(const KernelCase& kernel, int iters) {
  KernelReport report;
  report.name = kernel.name;
  report.flops = kernel.flops;
  iters = iters / kernel.iter_div > 0 ? iters / kernel.iter_div : 1;
  std::vector<float> reference;
  for (m2g::simd::Tier tier : SupportedTiers()) {
    m2g::simd::SetTier(tier);
    std::vector<float> out;
    kernel.run(&out);  // warm + identity capture
    if (tier == m2g::simd::Tier::kScalar) {
      reference = out;
    } else if (out.size() != reference.size() ||
               std::memcmp(out.data(), reference.data(),
                           out.size() * sizeof(float)) != 0) {
      report.identical = false;
    }
    TierTiming timing;
    timing.tier = tier;
    // `out` keeps its capacity across iterations, so the timed loop
    // re-runs the kernel without reallocating — allocation noise would
    // attenuate every tier's ratio toward 1.0 and soften the gate.
    timing.ns_per_op = TimeNs(iters, [&] {
      kernel.run(&out);
      Sink(out.empty() ? 0.0f : out[0]);
    });
    report.timings.push_back(timing);
  }
  m2g::simd::SetTier(m2g::simd::DetectedTier());
  return report;
}

/// Short fixed-seed fit; returns the flattened parameter bytes.
std::vector<float> FitParams(m2g::simd::Tier tier) {
  m2g::simd::SetTier(tier);
  m2g::synth::DataConfig dc;
  dc.seed = 1212;
  dc.world.num_aois = 40;
  dc.couriers.num_couriers = 3;
  dc.num_days = 2;
  const m2g::synth::DatasetSplits splits = m2g::synth::BuildDataset(dc);
  m2g::core::ModelConfig mc;
  mc.hidden_dim = 16;
  mc.num_heads = 2;
  mc.num_layers = 1;
  mc.aoi_id_embed_dim = 4;
  mc.aoi_type_embed_dim = 2;
  mc.lstm_hidden_dim = 16;
  mc.courier_dim = 8;
  mc.pos_enc_dim = 4;
  m2g::core::M2g4Rtp model(mc);
  m2g::core::TrainConfig tc;
  tc.epochs = 1;
  tc.early_stop_patience = 0;
  tc.max_samples_per_epoch = 8;
  m2g::core::Trainer trainer(&model, tc);
  trainer.Fit(splits.train, splits.val);
  std::vector<float> flat;
  for (const auto& [name, tensor] : model.NamedParameters()) {
    const Matrix& value = tensor.value();
    flat.insert(flat.end(), value.data(), value.data() + value.size());
  }
  return flat;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int iters = smoke ? 2000 : 20000;

  const m2g::simd::Tier detected = m2g::simd::DetectedTier();
  const bool has_avx2 = detected >= m2g::simd::Tier::kAvx2;
  double min_speedup = has_avx2 ? 2.0 : 1.0;
  if (const char* v = std::getenv("M2G_BENCH_SIMD_MIN_SPEEDUP")) {
    const double s = std::atof(v);
    if (s > 0) min_speedup = s;
  }

  std::printf("=== SIMD kernel tier (detected: %s) ===\n",
              m2g::simd::TierName(detected));

  // Paper dims: F = 48 hidden units, n = 50 nodes, 4H = 192 LSTM gate
  // columns. Inputs drawn from (0.1, 1) stay zero-free, so the dense
  // path is exercised (the sparse path is tier-independent by design).
  Rng rng(0x51d);
  const int n = 50, f = 48;
  const Matrix a = Matrix::Random(n, f, 0.1f, 1.0f, &rng);
  const Matrix w = Matrix::Random(f, f, -1.0f, 1.0f, &rng);
  const Matrix bias = Matrix::Random(1, f, -0.5f, 0.5f, &rng);
  const Matrix s_dst = Matrix::Random(1, n, -2.0f, 2.0f, &rng);
  const Matrix s_edge = Matrix::Random(1, n, -2.0f, 2.0f, &rng);
  const Matrix h = Matrix::Random(10, f, -1.0f, 1.0f, &rng);
  const Matrix wx4 = Matrix::Random(f, 4 * f, -1.0f, 1.0f, &rng);
  const Matrix wh4 = Matrix::Random(f, 4 * f, -1.0f, 1.0f, &rng);
  const Matrix x10 = Matrix::Random(10, f, 0.1f, 1.0f, &rng);
  const Matrix bias4 = Matrix::Random(1, 4 * f, -0.5f, 0.5f, &rng);

  std::vector<KernelCase> kernels;
  kernels.push_back(
      {"MatMulInto(50x48 * 48x48)", [&](std::vector<float>* out) {
         out->assign(static_cast<size_t>(n) * f, 0.0f);
         m2g::MatMulInto(a.data(), n, f, w.data(), f, out->data());
       }});
  kernels.push_back(
      {"AccumulateRow(k=48,m=192)", [&](std::vector<float>* out) {
         out->assign(4 * f, 0.0f);
         m2g::AccumulateRowMatMul(a.data(), f, wx4.data(), 4 * f,
                                  out->data());
       }});
  // GAT-e edge shapes through the row-block kernel: all n^2 pair rows
  // of z against one head's W3 (d_h = 12 hidden, 48 last), a_e (m = 1),
  // and the stacked [W3 of 4 heads | a_e of 4 heads] of each layer kind.
  const int pairs = n * n;
  const Matrix z = Matrix::Random(pairs, f, 0.1f, 1.0f, &rng);
  const Matrix w3_12 = Matrix::Random(f, 12, -1.0f, 1.0f, &rng);
  const Matrix ae = Matrix::Random(f, 1, -1.0f, 1.0f, &rng);
  const Matrix stack_hidden = Matrix::Random(f, 52, -1.0f, 1.0f, &rng);
  const Matrix stack_last = Matrix::Random(f, 196, -1.0f, 1.0f, &rng);
  for (const auto& [label, b] :
       {std::pair<const char*, const Matrix*>{"DenseRows(2500x48*48x12)",
                                              &w3_12},
        {"DenseRows(2500x48*48x48)", &w},
        {"DenseRows(2500x48*48x1)", &ae},
        {"DenseRows(2500x48*48x52)", &stack_hidden},
        {"DenseRows(2500x48*48x196)", &stack_last}}) {
    const int m = b->cols();
    kernels.push_back(
        {label,
         [&z, b, m, pairs, f](std::vector<float>* out) {
           out->resize(static_cast<size_t>(pairs) * m);
           m2g::simd::DenseRowsMatMul(z.data(), pairs, f, f, b->data(), m,
                                      out->data(), m);
         },
         2.0 * pairs * f * m, 200});
  }
  kernels.push_back({"GatLogitsRow(n=50)", [&](std::vector<float>* out) {
                       out->assign(n, 0.0f);
                       m2g::GatLogitsRow(s_dst.data(), s_edge.data(), 0.37f,
                                         0.2f, n, out->data());
                     }});
  kernels.push_back(
      {"AffineRaw(50x48, relu)", [&](std::vector<float>* out) {
         const Matrix y =
             m2g::AffineRaw(a, w, &bias, m2g::Activation::kRelu);
         out->assign(y.data(), y.data() + y.size());
       }});
  kernels.push_back(
      {"DualAffineRaw(10x48, 4H)", [&](std::vector<float>* out) {
         const Matrix y = m2g::DualAffineRaw(x10, wx4, h, wh4, bias4);
         out->assign(y.data(), y.data() + y.size());
       }});
  kernels.push_back({"AddInPlace(2400)", [&](std::vector<float>* out) {
                       out->assign(a.data(), a.data() + a.size());
                       m2g::simd::AddInPlace(out->data(), w.data(),
                                             out->size());
                     }});
  kernels.push_back({"ReluInPlace(2400)", [&](std::vector<float>* out) {
                       out->assign(w.data(), w.data() + w.size());
                       m2g::simd::ReluInPlace(out->data(), out->size());
                     }});

  std::printf("  %-26s", "");
  for (m2g::simd::Tier tier : SupportedTiers()) {
    std::printf(" %10s", m2g::simd::TierName(tier));
  }
  std::printf(" %9s %9s\n", "speedup", "identical");

  std::vector<KernelReport> reports;
  bool all_identical = true;
  double matmul_speedup = 0;
  {
    m2g::ArenaGuard arena;
    for (const KernelCase& kernel : kernels) {
      KernelReport report = BenchKernel(kernel, iters);
      const double scalar_ns = report.NsFor(m2g::simd::Tier::kScalar);
      const double best_ns = report.NsFor(detected);
      const double speedup = best_ns > 0 ? scalar_ns / best_ns : 0;
      std::printf("  %-26s", report.name.c_str());
      for (const TierTiming& t : report.timings) {
        std::printf(" %8.0fns", t.ns_per_op);
      }
      std::printf(" %8.2fx %9s", speedup, report.identical ? "yes" : "NO");
      if (report.flops > 0) {
        std::printf("  (%s %.1f GFLOP/s)", m2g::simd::TierName(detected),
                    report.flops / best_ns);
      }
      std::printf("\n");
      all_identical = all_identical && report.identical;
      if (report.name.rfind("MatMulInto", 0) == 0) {
        matmul_speedup = speedup;
      }
      reports.push_back(std::move(report));
    }
  }

  // End-to-end restatement of the parity contract: fixed-seed training
  // must land on byte-identical parameters scalar vs best tier.
  bool training_identical = true;
  {
    const std::vector<float> scalar_params =
        FitParams(m2g::simd::Tier::kScalar);
    const std::vector<float> best_params = FitParams(detected);
    training_identical =
        scalar_params.size() == best_params.size() &&
        std::memcmp(scalar_params.data(), best_params.data(),
                    scalar_params.size() * sizeof(float)) == 0;
    m2g::simd::SetTier(detected);
    std::printf("  fixed-seed training params scalar vs %s: %s\n",
                m2g::simd::TierName(detected),
                training_identical ? "byte-identical" : "DIFFER");
  }

  namespace bench = m2g::bench;
  bench::JsonValue kernels_json = bench::JsonValue::Array();
  for (const KernelReport& report : reports) {
    bench::JsonValue tiers_json = bench::JsonValue::Object();
    for (const TierTiming& t : report.timings) {
      tiers_json.Set(m2g::simd::TierName(t.tier),
                     bench::JsonValue::Number(t.ns_per_op));
    }
    const double scalar_ns = report.NsFor(m2g::simd::Tier::kScalar);
    const double best_ns = report.NsFor(detected);
    bench::JsonValue kernel_json =
        bench::JsonValue::Object()
            .Set("kernel", bench::JsonValue::String(report.name))
            .Set("ns_per_op", std::move(tiers_json))
            .Set("speedup", bench::JsonValue::Number(
                                best_ns > 0 ? scalar_ns / best_ns : 0))
            .Set("identical", bench::JsonValue::Bool(report.identical));
    if (report.flops > 0 && best_ns > 0) {
      kernel_json.Set("best_gflops",
                      bench::JsonValue::Number(report.flops / best_ns));
    }
    kernels_json.Push(std::move(kernel_json));
  }
  bench::JsonValue doc =
      bench::JsonValue::Object()
          .Set("bench", bench::JsonValue::String("simd_kernels"))
          .Set("mode", bench::JsonValue::String(smoke ? "smoke" : "full"))
          .Set("detected_tier",
               bench::JsonValue::String(m2g::simd::TierName(detected)))
          .Set("iters", bench::JsonValue::Int(iters))
          .Set("min_speedup", bench::JsonValue::Number(min_speedup))
          .Set("matmul_into_speedup",
               bench::JsonValue::Number(matmul_speedup))
          .Set("outputs_identical", bench::JsonValue::Bool(all_identical))
          .Set("training_identical",
               bench::JsonValue::Bool(training_identical))
          .Set("kernels", std::move(kernels_json));
  const bool json_ok = bench::WriteBenchJson("BENCH_simd.json", doc);

  if (smoke) {
    int failures = json_ok ? 0 : 1;
    if (!all_identical) {
      std::fprintf(stderr,
                   "FAIL: kernel outputs differ between tiers\n");
      ++failures;
    }
    if (!training_identical) {
      std::fprintf(stderr,
                   "FAIL: fixed-seed training params differ between "
                   "tiers\n");
      ++failures;
    }
    if (matmul_speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: dense MatMulInto best-tier speedup %.2fx < "
                   "required %.2fx\n",
                   matmul_speedup, min_speedup);
      ++failures;
    }
    if (failures == 0) {
      std::printf("smoke OK: %s tier, %.2fx dense MatMulInto, all "
                  "outputs byte-identical\n",
                  m2g::simd::TierName(detected), matmul_speedup);
    }
    return failures == 0 ? 0 : 1;
  }
  return json_ok ? 0 : 1;
}
