#include "core/encode_plan.h"

#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace m2g::core {
namespace {

obs::Counter& PlanBuildCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.plan_builds");
  return c;
}

}  // namespace

EncodePlan::EncodePlan(int max_nodes_in, int hidden_dim_in) {
  static obs::Histogram& hist = obs::StageHistogram("encode.plan_build.ms");
  obs::TraceSpan span("encode.plan_build.ms", &hist);
  PlanBuildCounter().Increment();
  M2G_CHECK_GE(max_nodes_in, 1);
  M2G_CHECK_GE(hidden_dim_in, 1);
  max_nodes = max_nodes_in;
  hidden_dim = hidden_dim_in;
  const int n = max_nodes, d = hidden_dim;
  wh = Matrix::Uninit(n, d);
  msg = Matrix::Uninit(n, d);
  s_src = Matrix::Uninit(n, 1);
  s_dst = Matrix::Uninit(n, 1);
  logits = Matrix::Uninit(1, n);
  alpha = Matrix::Uninit(1, n);
  row = Matrix::Uninit(1, d);
  node_out = Matrix::Uninit(n, d);
  edge_out = Matrix::Uninit(n * n, d);
}

void EncodePlan::ReserveHeads(int num_heads) {
  if (num_heads <= head_capacity) return;
  head_capacity = num_heads;
  const size_t n = max_nodes, d = hidden_dim, p = num_heads;
  const size_t w = p * d + p;
  const size_t pn = p * n;
  const size_t total = 2 * pn * d + pn * n + d * w + n * w;
  M2G_CHECK_LE(total, static_cast<size_t>(std::numeric_limits<int>::max()));
  heads_block = Matrix::Uninit(1, static_cast<int>(total));
  nw4 = heads_block.data();
  nw5 = nw4 + pn * d;
  s_edge = nw5 + pn * d;
  edge_w = s_edge + pn * n;
  edge_tile = edge_w + d * w;
}

}  // namespace m2g::core
