// SIMD kernel tier bench: every dispatched row kernel timed at paper
// dims (F = 48 hidden units, n = 50 graph nodes) as a scalar-vs-AVX2
// A/B, with a byte-identity check between the tiers on every kernel.
// The dense MatMulInto row is the headline — it is the inner loop of
// the O(n^2 F^2) GAT-e edge term that dominates encode cost. The
// DenseRows rows time the row-block kernel alone at the GAT-e edge
// shapes (n^2 = 2500 pair rows of F = 48 against one head's W3 at a
// hidden layer's d_h = 12 and the last layer's d_h = 48, the (48, 1)
// a_e column, and the all-heads stacks ForwardFast multiplies by:
// 4 x 12 + 4 = 52 and 4 x 48 + 4 = 196 columns) and report GFLOP/s
// next to ns.
//
// Timing is bench::MeasureAb: each arm sets its tier once and runs an
// inner batch of kernel calls, and the arms alternate in interleaved
// rounds; a kernel's speedup is the median of the per-round
// scalar/AVX2 ratios, printed with its IQR. On a host without AVX2
// there is one tier and nothing to compare: the bench says so and
// times nothing.
//
// `--smoke` (Release CI) runs fewer rounds and exits nonzero if
//   * any kernel's output differs by one byte between the tiers,
//   * the dense MatMulInto median speedup of AVX2 over scalar is below
//     kMinSpeedup (2.0; skipped without AVX2),
//   * a short fixed-seed training run does not produce byte-identical
//     parameters between the scalar tier and the detected tier (the
//     end-to-end restatement of the per-kernel parity contract), or
//   * BENCH_simd.json cannot be written.
// The JSON dump records the detected tier, per-kernel per-tier median
// ns, and the speedups with their IQRs, next to the other
// BENCH_*.json CI artifacts.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/model.h"
#include "core/trainer.h"
#include "tensor/matrix.h"
#include "tensor/pool.h"
#include "tensor/simd.h"

namespace {

using m2g::Matrix;
using m2g::Rng;
using m2g::simd::Tier;
namespace bench = m2g::bench;

constexpr double kMinSpeedup = 2.0;

volatile float g_sink = 0.0f;

void Sink(float v) { g_sink = g_sink + v; }

struct KernelCase {
  std::string name;
  // Runs the kernel once and appends its full output to *out (the
  // cross-tier identity check compares these bytes).
  std::function<void(std::vector<float>*)> run;
  // Floating-point operations per call (0: not reported).
  double flops = 0;
  // Kernel calls per timed arm call: enough that the per-arm SetTier
  // is noise next to the kernels (1 for the whole-tile DenseRows rows).
  int batch = 64;
};

struct KernelReport {
  std::string name;
  bool identical = true;
  double flops = 0;
  int batch = 1;
  bench::AbTiming timing;  // A = scalar, B = AVX2; ms per arm call

  double scalar_ns() const { return timing.a_ms.median * 1e6 / batch; }
  double avx2_ns() const { return timing.b_ms.median * 1e6 / batch; }
  double speedup() const { return timing.ratio.median; }
};

std::vector<float> RunAt(const KernelCase& kernel, Tier tier) {
  m2g::simd::SetTier(tier);
  std::vector<float> out;
  kernel.run(&out);
  return out;
}

KernelReport BenchKernel(const KernelCase& kernel, int rounds) {
  KernelReport report;
  report.name = kernel.name;
  report.flops = kernel.flops;
  report.batch = kernel.batch;
  const std::vector<float> want = RunAt(kernel, Tier::kScalar);
  const std::vector<float> got = RunAt(kernel, Tier::kAvx2);
  report.identical =
      got.size() == want.size() &&
      std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0;
  // `out` keeps its capacity across calls, so the timed batches re-run
  // the kernel without reallocating — allocation noise would attenuate
  // the ratio toward 1.0 and soften the gate.
  std::vector<float> out;
  const auto arm = [&](Tier tier) {
    return [&kernel, &out, tier] {
      m2g::simd::SetTier(tier);
      for (int i = 0; i < kernel.batch; ++i) {
        kernel.run(&out);
        Sink(out.empty() ? 0.0f : out[0]);
      }
    };
  };
  report.timing =
      bench::MeasureAb(arm(Tier::kScalar), arm(Tier::kAvx2), rounds);
  m2g::simd::SetTier(m2g::simd::DetectedTier());
  return report;
}

/// Short fixed-seed fit; returns the flattened parameter bytes.
std::vector<float> FitParams(Tier tier) {
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
  const int rounds = smoke ? 15 : 31;

  const Tier detected = m2g::simd::DetectedTier();
  const bool has_avx2 = detected == Tier::kAvx2;

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
         2.0 * pairs * f * m, 1});
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

  std::vector<KernelReport> reports;
  bool all_identical = true;
  double matmul_speedup = 0;
  double matmul_speedup_iqr = 0;
  if (!has_avx2) {
    std::printf("  only the scalar tier runs on this host: nothing to "
                "compare, no kernel timed\n");
  } else {
    std::printf("  scalar vs avx2, median of %d interleaved rounds\n",
                rounds);
    std::printf("  %-26s %10s %10s %9s %7s %9s\n", "", "scalar", "avx2",
                "speedup", "iqr", "identical");
    m2g::ArenaGuard arena;
    for (const KernelCase& kernel : kernels) {
      KernelReport report = BenchKernel(kernel, rounds);
      std::printf("  %-26s %8.0fns %8.0fns %8.2fx %6.2fx %9s",
                  report.name.c_str(), report.scalar_ns(), report.avx2_ns(),
                  report.speedup(), report.timing.ratio.iqr(),
                  report.identical ? "yes" : "NO");
      if (report.flops > 0) {
        std::printf("  (avx2 %.1f GFLOP/s)", report.flops / report.avx2_ns());
      }
      std::printf("\n");
      all_identical = all_identical && report.identical;
      if (report.name.rfind("MatMulInto", 0) == 0) {
        matmul_speedup = report.speedup();
        matmul_speedup_iqr = report.timing.ratio.iqr();
      }
      reports.push_back(std::move(report));
    }
  }

  // End-to-end restatement of the parity contract: fixed-seed training
  // must land on byte-identical parameters scalar vs detected tier.
  bool training_identical = true;
  {
    const std::vector<float> scalar_params = FitParams(Tier::kScalar);
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

  bench::JsonValue kernels_json = bench::JsonValue::Array();
  for (const KernelReport& report : reports) {
    bench::JsonValue kernel_json =
        bench::JsonValue::Object()
            .Set("kernel", bench::JsonValue::String(report.name))
            .Set("ns_per_op",
                 bench::JsonValue::Object()
                     .Set("scalar", bench::JsonValue::Number(report.scalar_ns()))
                     .Set("avx2", bench::JsonValue::Number(report.avx2_ns())))
            .Set("speedup", bench::JsonValue::Number(report.speedup()))
            .Set("speedup_iqr",
                 bench::JsonValue::Number(report.timing.ratio.iqr()))
            .Set("identical", bench::JsonValue::Bool(report.identical));
    if (report.flops > 0) {
      kernel_json.Set("best_gflops", bench::JsonValue::Number(
                                         report.flops / report.avx2_ns()));
    }
    kernels_json.Push(std::move(kernel_json));
  }
  bench::JsonValue doc =
      bench::JsonValue::Object()
          .Set("bench", bench::JsonValue::String("simd_kernels"))
          .Set("mode", bench::JsonValue::String(smoke ? "smoke" : "full"))
          .Set("detected_tier",
               bench::JsonValue::String(m2g::simd::TierName(detected)))
          .Set("rounds", bench::JsonValue::Int(rounds))
          .Set("min_speedup", bench::JsonValue::Number(kMinSpeedup))
          .Set("matmul_into_speedup",
               bench::JsonValue::Number(matmul_speedup))
          .Set("matmul_into_speedup_iqr",
               bench::JsonValue::Number(matmul_speedup_iqr))
          .Set("outputs_identical", bench::JsonValue::Bool(all_identical))
          .Set("training_identical",
               bench::JsonValue::Bool(training_identical))
          .Set("kernels", std::move(kernels_json));
  const bool json_ok = bench::WriteBenchJson("BENCH_simd.json", doc);

  if (smoke) {
    int failures = json_ok ? 0 : 1;
    if (!all_identical) {
      std::fprintf(stderr, "FAIL: kernel outputs differ between tiers\n");
      ++failures;
    }
    if (!training_identical) {
      std::fprintf(stderr,
                   "FAIL: fixed-seed training params differ between "
                   "tiers\n");
      ++failures;
    }
    if (has_avx2 && matmul_speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "FAIL: dense MatMulInto avx2 speedup %.2fx (iqr %.2fx) "
                   "< required %.2fx\n",
                   matmul_speedup, matmul_speedup_iqr, kMinSpeedup);
      ++failures;
    }
    if (failures == 0) {
      std::printf("smoke OK: %s tier, %.2fx dense MatMulInto (iqr %.2fx), "
                  "all outputs byte-identical\n",
                  m2g::simd::TierName(detected), matmul_speedup,
                  matmul_speedup_iqr);
    }
    return failures == 0 ? 0 : 1;
  }
  return json_ok ? 0 : 1;
}
