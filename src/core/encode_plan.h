#ifndef M2G_CORE_ENCODE_PLAN_H_
#define M2G_CORE_ENCODE_PLAN_H_

#include "tensor/matrix.h"

namespace m2g::core {

/// Request-scoped scratch for the encode fast path (the encoder analogue
/// of AttentionRouteDecoder::KeyCache): every buffer a fused GAT-e layer
/// needs, sized once per request from the largest level's node count and
/// reused across levels, layers and heads. All buffers draw from the
/// thread-local tensor pool, so a plan built inside a warm ArenaGuard
/// scope allocates without touching malloc — and, like the key cache, a
/// plan must not outlive the request's arena scope.
///
/// Per-head buffers (wh, msg, nw4, nw5) are packed at the head's output
/// width dh (hidden/P on hidden layers, hidden on the last), so a buffer
/// sized (max_nodes, hidden_dim) covers both layer kinds.
struct EncodePlan {
  /// Builds the scratch for graphs of up to `max_nodes` nodes at encoder
  /// width `hidden_dim`. Records the encode.plan_build.ms span and the
  /// encode.plan_builds counter.
  EncodePlan(int max_nodes, int hidden_dim);

  /// The in-place residuals closing a fast GAT-e layer: h += node_out
  /// and z += edge_out over h's and z's sizes — the same elementwise
  /// ascending order as the legacy Add's copy + AddInPlace, minus the
  /// copies.
  void AddResiduals(Matrix* h, Matrix* z) const;

  int max_nodes = 0;
  int hidden_dim = 0;

  Matrix wh;        // (max_n, d)    W1-projected nodes (Eq. 20)
  Matrix msg;       // (max_n, d)    W2 messages (Eq. 22)
  Matrix nw4;       // (max_n, d)    nodes * W4, hoisted out of Eq. 23
  Matrix nw5;       // (max_n, d)    nodes * W5, hoisted out of Eq. 23
  Matrix s_src;     // (max_n, 1)    wh * av_src
  Matrix s_dst;     // (max_n, 1)    wh * av_dst
  Matrix s_edge;    // (max_n^2, 1)  edges * ae
  Matrix logits;    // (1, max_n)    one attention row's logits
  Matrix alpha;     // (1, max_n)    one attention row's softmax
  Matrix row;       // (1, d)        per-row head scratch (last layer)
  Matrix node_out;  // (max_n, d)    layer output, pre-residual
  Matrix edge_out;  // (max_n^2, d)  layer output, pre-residual
};

}  // namespace m2g::core

#endif  // M2G_CORE_ENCODE_PLAN_H_
