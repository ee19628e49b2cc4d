#ifndef M2G_CORE_GAT_E_H_
#define M2G_CORE_GAT_E_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/encode_plan.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace m2g::core {

/// Output of one GAT-e layer: updated node and edge representations.
struct GatEOutput {
  Tensor nodes;  // (n, hidden_dim)
  Tensor edges;  // (n*n, hidden_dim)
};

/// Inputs and outputs of one no-grad GAT-e layer pass
/// (GatELayer::ForwardFast). Node buffers hold n rows of d floats; edge
/// buffers hold pair (i, j) at row i*block + j. A stateless encode runs
/// in place at block = n (h_out == h_in, z_out == z_in); an encode
/// session (core/incremental_encode) reads layer l's rows from its cache
/// and writes layer l+1's, at the cache's padded capacity.
///
/// Optional parts:
///  * ew3/se: the session cache's per-head Eq. 23 z*W3 rows (head_dim
///    floats) and Eq. 20 s_edge rows (1 float), num_heads consecutive
///    matrices at the same pair stride. Recomputed pairs store into them;
///    a pair whose z is clean but whose endpoint changed reads its z*W3
///    back instead of recomputing it.
///  * Dirty flags: which inputs changed bitwise since the cached forward.
///    A null flag array means every entry is dirty, so with all of them
///    null the pass is a full encode. Dirty flags require the cache.
///  * Out flags: when given, each recomputed output row is compared with
///    the row it overwrites, so the next layer's dirty set holds only
///    rows that really changed.
struct GatEFastArgs {
  int n = 0;
  int block = 0;  // pair-row stride of z_in/z_out/ew3/se, >= n
  const std::vector<bool>* adjacency = nullptr;  // n*n Eq. 15 mask
  const float* h_in = nullptr;
  const float* z_in = nullptr;
  float* h_out = nullptr;
  float* z_out = nullptr;
  Matrix* ew3 = nullptr;  // first of num_heads per-head matrices
  Matrix* se = nullptr;   // first of num_heads per-head matrices
  const unsigned char* node_dirty = nullptr;   // n: h_in row changed
  const unsigned char* pair_dirty = nullptr;   // n*n dense: z_in pair changed
  const unsigned char* row_changed = nullptr;  // n: softmax mask changed
  const unsigned char* fresh = nullptr;        // n: node has no history
  unsigned char* out_node_dirty = nullptr;     // n: h_out row changed
  unsigned char* out_pair_dirty = nullptr;     // n*n dense: z_out changed
};

/// The paper's GAT-e module (Eq. 20-26): an edge-aware graph attention
/// layer that (a) mixes edge embeddings into the attention coefficients
/// via the a_e term and (b) updates edge representations from the incident
/// nodes (Eq. 23). Multi-head: hidden layers concatenate P heads of width
/// hidden/P (Eq. 24-25); a layer constructed with `is_last == true`
/// averages P full-width heads and delays the ReLU (Eq. 26).
class GatELayer : public nn::Module {
 public:
  GatELayer(const ModelConfig& config, bool is_last, Rng* rng);

  /// `adjacency` is the n*n Eq. 15 connectivity (with self-loops); the
  /// attention softmax for node i runs over {j : adj[i*n+j]}. This is
  /// the autograd path (training, and the no-grad kernel's parity
  /// reference); it increments encode.legacy_layers.
  GatEOutput Forward(const Tensor& nodes, const Tensor& edges,
                     const std::vector<bool>& adjacency) const;

  /// The no-grad layer kernel: computes Forward(...)'s layer output for
  /// the rows and pairs whose inputs changed (all of them when the args
  /// carry no dirty flags) and writes h_out = h_in + nodes and
  /// z_out = z_in + edges (the encoder's residual) for exactly those,
  /// bit for bit the autograd path's values (encode_parity_test,
  /// incremental_encode_test). Every other row keeps its cached value:
  /// all kernels involved are deterministic and row-local.
  ///
  /// Fused raw kernels, no autograd nodes and no (n^2, d) per-head
  /// temporaries. The Eq. 23 node terms are hoisted to two (n, dh)
  /// products per head. Per attention row, each run of pairs with a
  /// changed z goes through one MatMulInto against every head's W3 and
  /// a_e (stacked in plan->edge_w) into plan->edge_tile, then
  /// simd::EdgeEpilogue; attention rows aggregate straight into the
  /// packed multi-head node output. Requires GradMode disabled;
  /// increments encode.fast_layers.
  void ForwardFast(const GatEFastArgs& args, EncodePlan* plan) const;

  int num_heads() const { return num_heads_; }
  /// Output width of one head: hidden/P on hidden layers, hidden on the
  /// last (Eq. 24 vs 26).
  int head_dim() const { return head_dim_; }

 private:
  struct Head {
    Tensor w1;      // (d, dh) attention transform (Eq. 20)
    Tensor av_src;  // (dh, 1) first half of a_v
    Tensor av_dst;  // (dh, 1) second half of a_v
    Tensor ae;      // (d, 1) edge attention vector
    Tensor w2;      // (d, dh) message transform (Eq. 22)
    Tensor w3;      // (d, dh) edge update (Eq. 23)
    Tensor w4;      // (d, dh)
    Tensor w5;      // (d, dh)
  };

  int hidden_dim_;
  int num_heads_;
  int head_dim_;
  bool is_last_;
  float leaky_slope_;
  std::vector<Head> heads_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_GAT_E_H_
