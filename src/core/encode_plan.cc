#include "core/encode_plan.h"

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
  const int nn = n * n;
  wh = Matrix::Uninit(n, d);
  msg = Matrix::Uninit(n, d);
  nw4 = Matrix::Uninit(n, d);
  nw5 = Matrix::Uninit(n, d);
  s_src = Matrix::Uninit(n, 1);
  s_dst = Matrix::Uninit(n, 1);
  s_edge = Matrix::Uninit(nn, 1);
  logits = Matrix::Uninit(1, n);
  alpha = Matrix::Uninit(1, n);
  row = Matrix::Uninit(1, d);
  node_out = Matrix::Uninit(n, d);
  edge_out = Matrix::Uninit(nn, d);
}

void EncodePlan::AddResiduals(Matrix* h, Matrix* z) const {
  float* hd = h->data();
  const float* no = node_out.data();
  for (size_t t = 0, nd = h->size(); t < nd; ++t) hd[t] += no[t];
  float* zd = z->data();
  const float* eo = edge_out.data();
  for (size_t t = 0, nnd = z->size(); t < nnd; ++t) zd[t] += eo[t];
}

}  // namespace m2g::core
