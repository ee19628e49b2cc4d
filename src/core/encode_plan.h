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
/// Per-head buffers (wh, msg, and each head's slice of nw4, nw5) are
/// packed at the head's output width dh (hidden/P on hidden layers,
/// hidden on the last), so a (max_nodes, hidden_dim) slice covers both
/// layer kinds. The buffers GatELayer::ForwardFast fills for all P heads
/// at once (nw4, nw5, s_edge, edge_w, edge_tile) are views into one
/// pooled block that ReserveHeads sizes, which ForwardFast calls with
/// the layer's P. One block keeps the request's pool traffic at one
/// buffer whatever the graph size.
struct EncodePlan {
  /// Builds the scratch for graphs of up to `max_nodes` nodes at encoder
  /// width `hidden_dim`. Records the encode.plan_build.ms span and the
  /// encode.plan_builds counter.
  EncodePlan(int max_nodes, int hidden_dim);
  // The all-heads views point into this plan's own heads_block.
  EncodePlan(const EncodePlan&) = delete;
  EncodePlan& operator=(const EncodePlan&) = delete;

  /// Sizes the all-heads block for `num_heads` heads of width up to
  /// hidden_dim and points the views into it; a no-op once it is that
  /// large, so a plan reused across layers and levels allocates it once.
  void ReserveHeads(int num_heads);

  int max_nodes = 0;
  int hidden_dim = 0;
  int head_capacity = 0;  // heads the all-heads block holds

  Matrix wh;        // (max_n, d)    W1-projected nodes (Eq. 20)
  Matrix msg;       // (max_n, d)    W2 messages (Eq. 22)
  Matrix s_src;     // (max_n, 1)    wh * av_src
  Matrix s_dst;     // (max_n, 1)    wh * av_dst
  // Views into heads_block, row-major, with P = head_capacity and
  // w = P * d + P:
  Matrix heads_block;
  float* nw4 = nullptr;        // (P * max_n, d) nodes * W4 per head
  float* nw5 = nullptr;        // (P * max_n, d) nodes * W5 per head
  float* s_edge = nullptr;     // (P * max_n^2)  edges * ae per head,
                               // when no session cache holds it
  float* edge_w = nullptr;     // (d, w)     [W3 of each head | ae of each]
  float* edge_tile = nullptr;  // (max_n, w) one attention row's pairs * edge_w
  Matrix logits;    // (1, max_n)    one attention row's logits
  Matrix alpha;     // (1, max_n)    one attention row's softmax
  Matrix row;       // (1, d)        per-row head scratch (last layer)
  Matrix node_out;  // (max_n, d)    layer output, pre-residual
  Matrix edge_out;  // (max_n^2, d)  layer output, pre-residual
};

}  // namespace m2g::core

#endif  // M2G_CORE_ENCODE_PLAN_H_
