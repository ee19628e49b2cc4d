// Decode fast-path bench: A/B of the request-scoped key cache + batched
// beam decode (AttentionRouteDecoder::DecodeGreedy/DecodeBeam) against
// the legacy per-step recompute (Decode*Legacy), across n in {10, 25,
// 50, 100} nodes and beam widths {1, 5, 10} at paper dims (node 48,
// courier 24, LSTM 48). Every cell also checks the two paths emit
// byte-identical routes — the fast path is a pure restructuring, so any
// divergence is a bug, not noise.
//
// Timing is bench::MeasureAb: a warm-up, then interleaved legacy/fast
// rounds; a cell's speedup is the median of the per-round ratios and
// its IQR is printed next to it.
//
// --smoke runs fewer rounds and gates on
//   * routes identical in every cell,
//   * >= 2.0x greedy speedup at n = 50,
//   * >= 1.5x beam-10 speedup at n = 50,
//   * BENCH_decode.json written.
// Both modes dump BENCH_decode.json at the CWD (repo root in CI) for the
// perf-trajectory artifact trail.
//
// Timed rounds per cell: 41 full / 15 smoke; each round times >= 10 ms
// of calls of each arm.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/route_decoder.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace {

using namespace m2g;

volatile float g_sink = 0;

struct CellResult {
  int n = 0;
  int beam = 0;
  bench::AbTiming timing;  // A = legacy, B = fast
  bool identical = false;

  double speedup() const { return timing.ratio.median; }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int iters = smoke ? 15 : 41;
  // Paper dims (core::ModelConfig defaults): the location-level decoder
  // is the serving hot path.
  const int node_dim = 48, courier_dim = 24, lstm_hidden = 48;
  Rng rng(20230707);
  core::AttentionRouteDecoder decoder(node_dim, courier_dim, lstm_hidden,
                                      &rng);

  std::printf("decode fast path vs legacy (%d rounds/cell, dims %d/%d/%d; "
              "medians)\n",
              iters, node_dim, courier_dim, lstm_hidden);
  std::printf("%6s %6s %12s %12s %9s %8s %10s\n", "n", "beam", "legacy(ms)",
              "fast(ms)", "speedup", "iqr", "identical");

  std::vector<CellResult> cells;
  for (int n : {10, 25, 50, 100}) {
    Tensor nodes =
        Tensor::Constant(Matrix::Random(n, node_dim, -1.0f, 1.0f, &rng));
    Tensor courier =
        Tensor::Constant(Matrix::Random(1, courier_dim, -1.0f, 1.0f, &rng));
    for (int beam : {1, 5, 10}) {
      const auto fast = [&] {
        std::vector<int> r = beam == 1
                                 ? decoder.DecodeGreedy(nodes, courier)
                                 : decoder.DecodeBeam(nodes, courier, beam);
        g_sink = g_sink + static_cast<float>(r.front());
        return r;
      };
      const auto legacy = [&] {
        // No-grad for fairness: this is what the legacy path cost in
        // serving, without per-step autograd bookkeeping on top.
        NoGradGuard no_grad;
        std::vector<int> r =
            beam == 1 ? decoder.DecodeGreedyLegacy(nodes, courier)
                      : decoder.DecodeBeamLegacy(nodes, courier, beam);
        g_sink = g_sink + static_cast<float>(r.front());
        return r;
      };
      CellResult cell;
      cell.n = n;
      cell.beam = beam;
      cell.identical = fast() == legacy();
      {
        ArenaGuard arena;
        cell.timing = bench::MeasureAb(legacy, fast, iters);
      }
      std::printf("%6d %6d %12.4f %12.4f %8.2fx %7.2fx %10s\n", n, beam,
                  cell.timing.a_ms.median, cell.timing.b_ms.median,
                  cell.speedup(), cell.timing.ratio.iqr(),
                  cell.identical ? "yes" : "NO");
      cells.push_back(cell);
    }
  }

  bench::JsonValue results = bench::JsonValue::Array();
  for (const CellResult& c : cells) {
    results.Push(bench::JsonValue::Object()
                     .Set("n", bench::JsonValue::Int(c.n))
                     .Set("beam", bench::JsonValue::Int(c.beam))
                     .Set("legacy_ms",
                          bench::JsonValue::Number(c.timing.a_ms.median))
                     .Set("fast_ms",
                          bench::JsonValue::Number(c.timing.b_ms.median))
                     .Set("legacy_min_ms",
                          bench::JsonValue::Number(c.timing.a_ms.min))
                     .Set("fast_min_ms",
                          bench::JsonValue::Number(c.timing.b_ms.min))
                     .Set("speedup", bench::JsonValue::Number(c.speedup()))
                     .Set("speedup_iqr",
                          bench::JsonValue::Number(c.timing.ratio.iqr()))
                     .Set("routes_identical",
                          bench::JsonValue::Bool(c.identical)));
  }
  bench::JsonValue doc =
      bench::JsonValue::Object()
          .Set("bench", bench::JsonValue::String("decode_fastpath"))
          .Set("mode", bench::JsonValue::String(smoke ? "smoke" : "full"))
          .Set("rounds", bench::JsonValue::Int(iters))
          .Set("node_dim", bench::JsonValue::Int(node_dim))
          .Set("results", std::move(results));
  const bool json_ok = bench::WriteBenchJson("BENCH_decode.json", doc);

  bool ok = json_ok;
  for (const CellResult& c : cells) {
    if (!c.identical) {
      std::fprintf(stderr,
                   "FAIL: fast/legacy routes differ at n=%d beam=%d\n", c.n,
                   c.beam);
      ok = false;
    }
  }
  if (smoke) {
    for (const CellResult& c : cells) {
      if (c.n != 50) continue;
      const double need = c.beam == 1 ? 2.0 : (c.beam == 10 ? 1.5 : 0.0);
      if (need > 0 && c.speedup() < need) {
        std::fprintf(stderr,
                     "FAIL: n=50 beam=%d speedup %.2fx < required %.2fx\n",
                     c.beam, c.speedup(), need);
        ok = false;
      }
    }
  }
  if (!ok) return 1;
  std::printf(smoke ? "decode fast-path smoke OK\n" : "done\n");
  return 0;
}
