// Encode fast-path bench: A/B of the fused no-grad GAT-e kernels driven
// through a per-request EncodePlan (LevelEncoder::EncodeFast) against the
// legacy op-graph encode (EncodeLegacy), across n in {10, 25, 50, 100}
// nodes at paper dims (hidden 48, 4 heads, 2 layers). Three modes per n:
// encode only, and end-to-end encode -> route decode -> SortLSTM ETA at
// greedy and beam-10 (the decode itself runs the PR-4 fast path in both
// arms — only the encode differs). Every cell also checks byte-identical
// outputs: node/edge representations for encode cells, routes plus
// per-node ETA float bits for end-to-end cells. The fast path is a pure
// restructuring, so any divergence is a bug, not noise.
//
// Timing is bench::MeasureAb: a warm-up, then interleaved legacy/fast
// rounds; a cell's speedup is the median of the per-round ratios and
// its IQR is printed next to it.
//
// --smoke runs fewer rounds and gates on
//   * outputs identical in every cell,
//   * >= 2.0x encode-only speedup at n = 50,
//   * >= 1.5x end-to-end speedup at n = 50, greedy and beam-10 (the
//     shared decode + ETA stages dilute the encode win, so the
//     end-to-end floor is lower — same split as the decode bench),
//   * zero steady-state pool misses for a warm planned encode,
//   * BENCH_encode.json written.
// Both modes dump BENCH_encode.json at the CWD (repo root in CI) for the
// perf-trajectory artifact trail.
//
// Timed rounds per cell: 31 full / 15 smoke; each round times >= 10 ms
// of calls of each arm.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/route_decoder.h"
#include "core/sort_lstm.h"
#include "graph/features.h"
#include "synth/world.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace {

using namespace m2g;

volatile float g_sink = 0;

/// Random but structurally valid level graph: symmetric adjacency with
/// self-loops, ids within the embedding vocabularies.
graph::LevelGraph MakeLevel(int n, Rng* rng) {
  graph::LevelGraph level;
  level.n = n;
  level.node_continuous =
      Matrix::Random(n, graph::kLocationContinuousDim, -1, 1, rng);
  level.node_aoi_id.resize(n);
  level.node_aoi_type.resize(n);
  for (int i = 0; i < n; ++i) {
    level.node_aoi_id[i] = rng->UniformInt(0, 511);
    level.node_aoi_type[i] = rng->UniformInt(0, synth::kNumAoiTypes - 1);
  }
  level.edge_features = Matrix::Random(n * n, graph::kEdgeDim, 0, 1, rng);
  level.adjacency.assign(static_cast<size_t>(n) * n, false);
  for (int i = 0; i < n; ++i) {
    level.adjacency[static_cast<size_t>(i) * n + i] = true;
    for (int j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(0.4)) {
        level.adjacency[static_cast<size_t>(i) * n + j] = true;
        level.adjacency[static_cast<size_t>(j) * n + i] = true;
      }
    }
  }
  return level;
}

/// One request's outputs, flattened for byte comparison.
struct RequestOut {
  std::vector<int> route;
  std::vector<float> times;
  std::vector<float> nodes;
  std::vector<float> edges;

  bool operator==(const RequestOut& o) const {
    return route == o.route &&
           times.size() == o.times.size() &&
           std::memcmp(times.data(), o.times.data(),
                       times.size() * sizeof(float)) == 0 &&
           nodes.size() == o.nodes.size() &&
           std::memcmp(nodes.data(), o.nodes.data(),
                       nodes.size() * sizeof(float)) == 0 &&
           edges.size() == o.edges.size() &&
           std::memcmp(edges.data(), o.edges.data(),
                       edges.size() * sizeof(float)) == 0;
  }
};

struct CellResult {
  int n = 0;
  std::string mode;  // "encode", "e2e_greedy", "e2e_beam10"
  bench::AbTiming timing;  // A = legacy, B = fast
  bool identical = false;

  double speedup() const { return timing.ratio.median; }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int iters = smoke ? 15 : 31;
  // Paper dims (core::ModelConfig defaults: hidden 48, 4 heads, 2
  // layers, courier 24, LSTM 48) — the location-level serving hot path.
  core::ModelConfig config;
  config.seed = 20230707;
  Rng rng(config.seed);
  core::LevelEncoder encoder(config, graph::kLocationContinuousDim, &rng);
  core::AttentionRouteDecoder decoder(config.hidden_dim, config.courier_dim,
                                      config.lstm_hidden_dim, &rng);
  core::SortLstm sort_lstm(config.hidden_dim, config.pos_enc_dim,
                           config.pos_enc_base, config.lstm_hidden_dim, &rng,
                           config.hidden_dim);
  Tensor global =
      Tensor::Constant(Matrix::Random(1, config.courier_dim, -1, 1, &rng));

  std::printf("encode fast path vs legacy (%d rounds/cell, hidden %d, %d "
              "heads, %d layers; medians)\n",
              iters, config.hidden_dim, config.num_heads, config.num_layers);
  std::printf("%6s %12s %12s %12s %9s %8s %10s\n", "n", "mode",
              "legacy(ms)", "fast(ms)", "speedup", "iqr", "identical");

  NoGradGuard no_grad;  // serving runs under no-grad in both arms
  std::vector<CellResult> cells;
  uint64_t steady_misses = 0;
  for (int n : {10, 25, 50, 100}) {
    const graph::LevelGraph level = MakeLevel(n, &rng);

    // `beam` 0 = encode only, 1 = greedy end-to-end, >1 = beam.
    const auto request = [&](bool fast, int beam) {
      RequestOut out;
      core::EncodedLevel enc;
      if (fast) {
        core::EncodePlan plan(n, config.hidden_dim);
        enc = encoder.EncodeFast(level, global, &plan);
      } else {
        enc = encoder.EncodeLegacy(level, global);
      }
      if (beam == 0) {
        const Matrix& nv = enc.nodes.value();
        const Matrix& ev = enc.edges.value();
        out.nodes.assign(nv.data(), nv.data() + nv.size());
        out.edges.assign(ev.data(), ev.data() + ev.size());
        g_sink = g_sink + out.nodes.front();
        return out;
      }
      out.route = beam == 1
                      ? decoder.DecodeGreedy(enc.nodes, global)
                      : decoder.DecodeBeam(enc.nodes, global, beam);
      for (const Tensor& t :
           sort_lstm.Forward(enc.nodes, out.route, enc.edges)) {
        out.times.push_back(t.item());
      }
      g_sink = g_sink + out.times.front();
      return out;
    };

    for (const auto& [mode, beam] :
         std::vector<std::pair<std::string, int>>{
             {"encode", 0}, {"e2e_greedy", 1}, {"e2e_beam10", 10}}) {
      CellResult cell;
      cell.n = n;
      cell.mode = mode;
      {
        ArenaGuard check;
        cell.identical = request(true, beam) == request(false, beam);
      }
      {
        ArenaGuard arena;
        cell.timing = bench::MeasureAb([&] { request(false, beam); },
                                       [&] { request(true, beam); }, iters);
      }
      std::printf("%6d %12s %12.4f %12.4f %8.2fx %7.2fx %10s\n", n,
                  mode.c_str(), cell.timing.a_ms.median,
                  cell.timing.b_ms.median, cell.speedup(),
                  cell.timing.ratio.iqr(), cell.identical ? "yes" : "NO");
      cells.push_back(cell);
    }

    if (n == 50) {
      // Warm planned encode must run entirely off the free lists.
      {
        ArenaGuard warmup;
        request(true, 0);
      }
      ArenaGuard steady;
      request(true, 0);
      steady_misses = steady.ScopeStats().pool_misses;
    }
  }

  bench::JsonValue results = bench::JsonValue::Array();
  for (const CellResult& c : cells) {
    results.Push(bench::JsonValue::Object()
                     .Set("n", bench::JsonValue::Int(c.n))
                     .Set("mode", bench::JsonValue::String(c.mode))
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
                     .Set("outputs_identical",
                          bench::JsonValue::Bool(c.identical)));
  }
  bench::JsonValue doc =
      bench::JsonValue::Object()
          .Set("bench", bench::JsonValue::String("encode_fastpath"))
          .Set("mode", bench::JsonValue::String(smoke ? "smoke" : "full"))
          .Set("rounds", bench::JsonValue::Int(iters))
          .Set("hidden_dim", bench::JsonValue::Int(config.hidden_dim))
          .Set("num_heads", bench::JsonValue::Int(config.num_heads))
          .Set("num_layers", bench::JsonValue::Int(config.num_layers))
          .Set("steady_pool_misses",
               bench::JsonValue::Int(static_cast<int64_t>(steady_misses)))
          .Set("results", std::move(results));
  const bool json_ok = bench::WriteBenchJson("BENCH_encode.json", doc);

  bool ok = json_ok;
  for (const CellResult& c : cells) {
    if (!c.identical) {
      std::fprintf(stderr, "FAIL: fast/legacy outputs differ at n=%d %s\n",
                   c.n, c.mode.c_str());
      ok = false;
    }
  }
  if (steady_misses != 0) {
    std::fprintf(stderr, "FAIL: %llu steady-state pool misses\n",
                 static_cast<unsigned long long>(steady_misses));
    ok = false;
  }
  if (smoke) {
    for (const CellResult& c : cells) {
      if (c.n != 50) continue;
      const double need = c.mode == "encode" ? 2.0 : 1.5;
      if (c.speedup() < need) {
        std::fprintf(stderr,
                     "FAIL: n=50 %s speedup %.2fx < required %.2fx\n",
                     c.mode.c_str(), c.speedup(), need);
        ok = false;
      }
    }
  }
  if (!ok) return 1;
  std::printf(smoke ? "encode fast-path smoke OK\n" : "done\n");
  return 0;
}
