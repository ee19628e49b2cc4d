// Memory & kernel layer bench (Table V companion row): heap allocations
// and nanoseconds per op for the fused kernels vs the
// unfused compositions they replaced, plus the end-to-end serving
// numbers — allocations per request and QPS with the tensor pool on vs
// off.
//
// `--smoke` runs a reduced configuration suitable for CI and exits
// nonzero if the steady-state hot path is not actually malloc-free
// (any pool miss after warmup), if pooling saves fewer than 5x the
// per-request tensor heap allocations, or if any fused kernel runs
// slower than the unfused composition it replaced (floor 0.9x for
// timer noise). Kernel timing
// is bench::MeasureAb: interleaved fused/unfused rounds, the speedup
// being the median per-round ratio, printed with its IQR. The speedup
// gate exists because a fused kernel that loses to its reference is a
// regression this bench previously only *reported* — MatMulATB/ABT sat
// at ~0.5x for two PRs before anything failed.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/model.h"
#include "serve/replay.h"
#include "serve/rtp_service.h"
#include "synth/dataset.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace {

using m2g::ArenaGuard;
using m2g::Matrix;
using m2g::Tensor;
using m2g::TensorPool;
namespace bench = m2g::bench;

volatile float g_sink = 0.0f;  // defeats dead-code elimination

void Sink(float v) { g_sink = g_sink + v; }

/// Tensor buffers acquired so far on this thread, warm or cold (inside
/// an arena every Matrix takes exactly one of these; a warm pool turns
/// them into free-list pops instead of mallocs but each is still a
/// zero-fill plus bookkeeping).
uint64_t BufferAcquisitions() {
  const TensorPool::Stats s = TensorPool::ThreadStats();
  return s.pool_hits + s.pool_misses + s.unpooled_allocs;
}

/// Tensor buffers one warm call of `fn` acquires.
template <typename Fn>
double BuffersPerOp(Fn& fn) {
  for (int i = 0; i < 8; ++i) fn();  // warm the free lists
  const uint64_t bufs0 = BufferAcquisitions();
  constexpr int kCalls = 16;
  for (int i = 0; i < kCalls; ++i) fn();
  return static_cast<double>(BufferAcquisitions() - bufs0) / kCalls;
}

struct KernelRow {
  std::string name;
  bench::AbTiming timing;  // A = unfused, B = fused
  double fused_bufs_per_op = 0;
  double unfused_bufs_per_op = 0;

  double speedup() const { return timing.ratio.median; }
};

/// Times the fused kernel against its unfused composition with
/// bench::MeasureAb inside a warm arena — interleaved rounds, so a
/// scheduler preemption on a shared CI core lands on both arms of a
/// round instead of inflating one arm's row — and counts tensor buffers
/// per call.
template <typename F, typename U>
void MeasureRow(std::vector<KernelRow>* rows, const char* name, int rounds,
                F&& fused, U&& unfused) {
  ArenaGuard arena;
  KernelRow row;
  row.name = name;
  row.fused_bufs_per_op = BuffersPerOp(fused);
  row.unfused_bufs_per_op = BuffersPerOp(unfused);
  row.timing = bench::MeasureAb(unfused, fused, rounds);
  std::printf("  %-22s %9.0f %11.0f %8.2fx %7.2fx %10.1f %12.1f\n", name,
              row.timing.b_ms.median * 1e6, row.timing.a_ms.median * 1e6,
              row.speedup(), row.timing.ratio.iqr(), row.fused_bufs_per_op,
              row.unfused_bufs_per_op);
  rows->push_back(std::move(row));
}

/// Typical decoder-step shapes: n graph nodes, d hidden units.
std::vector<KernelRow> BenchKernels(int rounds) {
  const int n = 20, k = 64, m = 64;
  m2g::Rng rng(1);
  const Matrix a = Matrix::Random(k, n, -1, 1, &rng);
  const Matrix b = Matrix::Random(k, m, -1, 1, &rng);
  const Matrix x = Matrix::Random(n, k, -1, 1, &rng);
  const Matrix w = Matrix::Random(k, m, -1, 1, &rng);
  const Matrix bt = Matrix::Random(m, k, -1, 1, &rng);
  const Matrix bias = Matrix::Random(1, m, -1, 1, &rng);

  std::printf("\nkernels (n=%d, k=%d, m=%d)\n", n, k, m);
  std::printf("  %-22s %9s %11s %8s %8s %10s %12s\n", "", "fused ns",
              "unfused ns", "speedup", "iqr", "fused b/op", "unfused b/op");

  std::vector<KernelRow> rows;
  MeasureRow(
      &rows, "MatMulATB", rounds, [&] { Sink(MatMulATB(a, b).At(0, 0)); },
      [&] { Sink(MatMulRaw(TransposeRaw(a), b).At(0, 0)); });
  MeasureRow(
      &rows, "MatMulABT", rounds, [&] { Sink(MatMulABT(x, bt).At(0, 0)); },
      [&] { Sink(MatMulRaw(x, TransposeRaw(bt)).At(0, 0)); });
  MeasureRow(
      &rows, "AffineRaw", rounds,
      [&] {
        Sink(AffineRaw(x, w, &bias, m2g::Activation::kRelu).At(0, 0));
      },
      [&] {
        Matrix out = MatMulRaw(x, w);
        for (int r = 0; r < out.rows(); ++r) {
          for (int c = 0; c < out.cols(); ++c) {
            float v = out.At(r, c) + bias.At(0, c);
            out.At(r, c) = v > 0 ? v : 0.0f;
          }
        }
        Sink(out.At(0, 0));
      });

  // Autograd level: one fused node vs the three-node chain, forward +
  // backward (this is the per-layer cost inside training).
  Tensor xp = Tensor::Parameter(x);
  Tensor wp = Tensor::Parameter(w);
  Tensor bp = Tensor::Parameter(bias);
  MeasureRow(
      &rows, "Affine fwd+bwd", rounds,
      [&] {
        Tensor y = Affine(xp, wp, bp, m2g::Activation::kRelu);
        Sum(y).Backward();
        Sink(y.value().At(0, 0));
      },
      [&] {
        Tensor y = Relu(AddRowBroadcast(MatMul(xp, wp), bp));
        Sum(y).Backward();
        Sink(y.value().At(0, 0));
      });
  return rows;
}

struct ServeResult {
  double allocs_per_req = 0;
  double qps = 0;
  uint64_t misses = 0;
};

ServeResult ServeLoop(const m2g::serve::RtpService& service,
                      const std::vector<m2g::serve::RtpRequest>& requests,
                      int passes) {
  // Warmup: one full pass over the request mix populates every size
  // class the measured pass will touch.
  for (const auto& req : requests) {
    Sink(static_cast<float>(
        service.Handle(req).prediction.location_times_min[0]));
  }
  TensorPool::ResetThreadStats();
  m2g::Stopwatch watch;
  int served = 0;
  for (int p = 0; p < passes; ++p) {
    for (const auto& req : requests) {
      Sink(static_cast<float>(
          service.Handle(req).prediction.location_route[0]));
      ++served;
    }
  }
  const double seconds = watch.ElapsedSeconds();
  const TensorPool::Stats stats = TensorPool::ThreadStats();
  ServeResult r;
  r.allocs_per_req = static_cast<double>(stats.heap_allocs) / served;
  r.qps = served / seconds;
  r.misses = stats.pool_misses;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int kernel_rounds = smoke ? 15 : 31;
  const int serve_passes = smoke ? 2 : 10;

  std::printf("=== Memory & kernel layer (pool + fused ops) ===\n");
  const std::vector<KernelRow> kernel_rows = BenchKernels(kernel_rounds);

  // End-to-end serving: the Figure 7 pipeline on an untrained model
  // (weights do not change the allocation profile).
  m2g::synth::DataConfig dc;
  dc.num_days = smoke ? 4 : 8;
  m2g::synth::BuiltWorld built = m2g::synth::BuildWorldAndDataset(dc);
  m2g::core::ModelConfig mc;
  m2g::core::M2g4Rtp model(mc);
  m2g::serve::RtpService service(&built.world, &model);

  std::vector<m2g::serve::RtpRequest> requests;
  const auto& samples = built.splits.test.samples;
  const size_t max_requests = smoke ? 16 : 64;
  for (size_t i = 0; i < samples.size() && i < max_requests; ++i) {
    requests.push_back(m2g::serve::RequestFromSample(samples[i]));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "no test requests generated\n");
    return 1;
  }

  TensorPool::set_enabled(true);
  ServeResult pooled = ServeLoop(service, requests, serve_passes);
  TensorPool::set_enabled(false);
  ServeResult plain = ServeLoop(service, requests, serve_passes);
  TensorPool::set_enabled(true);
  const auto counters = m2g::serve::RtpService::pool_counters();

  const double ratio =
      plain.allocs_per_req / (pooled.allocs_per_req > 0
                                  ? pooled.allocs_per_req
                                  : 1.0 / requests.size());
  std::printf("\nserving (%zu distinct requests, %d passes)\n",
              requests.size(), serve_passes);
  std::printf("  %-10s %14s %10s %14s\n", "storage", "allocs/req", "QPS",
              "steady misses");
  std::printf("  %-10s %14.1f %10.0f %14llu\n", "pooled",
              pooled.allocs_per_req, pooled.qps,
              static_cast<unsigned long long>(pooled.misses));
  std::printf("  %-10s %14.1f %10.0f %14s\n", "plain",
              plain.allocs_per_req, plain.qps, "-");
  std::printf("\nTable V row: | pool+fused | %.1f allocs/req (%.0fx fewer) "
              "| %.0f QPS (%+.1f%%) | %llu lifetime pool misses |\n",
              pooled.allocs_per_req, ratio, pooled.qps,
              100.0 * (pooled.qps - plain.qps) / plain.qps,
              static_cast<unsigned long long>(counters.misses));

  bench::JsonValue kernels_json = bench::JsonValue::Array();
  for (const KernelRow& row : kernel_rows) {
    kernels_json.Push(
        bench::JsonValue::Object()
            .Set("kernel", bench::JsonValue::String(row.name))
            .Set("fused_ns",
                 bench::JsonValue::Number(row.timing.b_ms.median * 1e6))
            .Set("unfused_ns",
                 bench::JsonValue::Number(row.timing.a_ms.median * 1e6))
            .Set("speedup", bench::JsonValue::Number(row.speedup()))
            .Set("speedup_iqr",
                 bench::JsonValue::Number(row.timing.ratio.iqr()))
            .Set("fused_bufs_per_op",
                 bench::JsonValue::Number(row.fused_bufs_per_op))
            .Set("unfused_bufs_per_op",
                 bench::JsonValue::Number(row.unfused_bufs_per_op)));
  }
  const auto serve_json = [](const ServeResult& r) {
    return bench::JsonValue::Object()
        .Set("allocs_per_req", bench::JsonValue::Number(r.allocs_per_req))
        .Set("qps", bench::JsonValue::Number(r.qps))
        .Set("steady_misses",
             bench::JsonValue::Int(static_cast<int64_t>(r.misses)));
  };
  bench::JsonValue doc =
      bench::JsonValue::Object()
          .Set("bench", bench::JsonValue::String("memory_kernels"))
          .Set("mode", bench::JsonValue::String(smoke ? "smoke" : "full"))
          .Set("kernel_rounds", bench::JsonValue::Int(kernel_rounds))
          .Set("kernels", std::move(kernels_json))
          .Set("serve_pooled", serve_json(pooled))
          .Set("serve_plain", serve_json(plain))
          .Set("alloc_ratio", bench::JsonValue::Number(ratio));
  const bool json_ok =
      bench::WriteBenchJson("BENCH_memory_kernels.json", doc);

  if (smoke) {
    int failures = json_ok ? 0 : 1;
    if (pooled.misses != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu steady-state pool misses (want 0)\n",
                   static_cast<unsigned long long>(pooled.misses));
      ++failures;
    }
    if (ratio < 5.0) {
      std::fprintf(stderr,
                   "FAIL: pooling saves only %.1fx tensor heap "
                   "allocations per request (want >= 5x)\n",
                   ratio);
      ++failures;
    }
    constexpr double min_kernel_speedup = 0.9;
    for (const KernelRow& row : kernel_rows) {
      const double speedup = row.speedup();
      if (speedup < min_kernel_speedup) {
        std::fprintf(stderr,
                     "FAIL: fused %s is %.2fx vs its unfused reference "
                     "(want >= %.2fx) — a fused kernel slower than the "
                     "composition it replaces is a regression\n",
                     row.name.c_str(), speedup, min_kernel_speedup);
        ++failures;
      }
    }
    if (failures == 0) {
      std::printf("smoke OK: zero steady-state misses, %.0fx fewer "
                  "allocs/req\n",
                  ratio);
    }
    return failures == 0 ? 0 : 1;
  }
  return json_ok ? 0 : 1;
}
