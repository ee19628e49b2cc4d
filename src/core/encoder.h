#ifndef M2G_CORE_ENCODER_H_
#define M2G_CORE_ENCODER_H_

#include <memory>
#include <vector>

#include <optional>

#include "core/feature_embed.h"
#include "core/gat_e.h"
#include "nn/lstm_cell.h"

namespace m2g::core {

struct LevelEncodeCache;  // core/incremental_encode.h

/// Encoder for one graph level: raw features -> embeddings (Eq. 18-19)
/// -> K GAT-e layers (Eq. 20-26) -> node representations x~.
///
/// The global feature vector is concatenated onto every node embedding
/// (§IV-B "Global Feature") and projected back to hidden_dim before the
/// first layer.
///
/// With `use_graph_encoder == false` (the "w/o graph" ablation) the GAT-e
/// stack is replaced by a bidirectional LSTM over the node sequence, as in
/// §V-E.
/// Encoder output: node representations plus (for the GAT-e variant) the
/// final edge representations z (n*n, hidden_dim). `edges` is undefined
/// for the BiLSTM ablation, which has no edge stream.
struct EncodedLevel {
  Tensor nodes;
  Tensor edges;
};

class LevelEncoder : public nn::Module {
 public:
  LevelEncoder(const ModelConfig& config, int continuous_dim, Rng* rng);

  /// Encodes one level. With a non-null `plan`, the GAT-e variant
  /// configured, and gradients disabled on the calling thread, the
  /// no-grad kernel (EncodeFast) runs through the plan's scratch; every
  /// other combination dispatches to EncodeLegacy. The two paths are
  /// bitwise-identical (encode_parity_test).
  EncodedLevel Encode(const graph::LevelGraph& level,
                      const Tensor& global_embed,
                      EncodePlan* plan = nullptr) const;

  /// Reference autograd path: the training encode, and the baseline the
  /// parity suites and bench_encode_fastpath compare against.
  EncodedLevel EncodeLegacy(const graph::LevelGraph& level,
                            const Tensor& global_embed) const;

  /// Stateless no-grad encode: embeddings and the input projection run
  /// through the (constant-folded) ops, then every GAT-e layer through
  /// GatELayer::ForwardFast in place on pool-backed buffers — zero
  /// autograd nodes and zero (n^2, d) op temporaries. Requires GradMode
  /// disabled and the GAT-e variant.
  EncodedLevel EncodeFast(const graph::LevelGraph& level,
                          const Tensor& global_embed,
                          EncodePlan* plan) const;

  /// Full no-grad encode that warms an encode-session cache: the layers
  /// read and write the per-layer node and edge representations and the
  /// per-head z*W3 / s_edge intermediates straight in `cache` (sized or
  /// grown here), and the returned encodings are copied out once at the
  /// end. Bitwise-identical to EncodeFast. Defined in
  /// core/incremental_encode.cc.
  EncodedLevel EncodeFastCached(const graph::LevelGraph& level,
                                const Tensor& global_embed,
                                EncodePlan* plan,
                                LevelEncodeCache* cache) const;

  /// Incremental re-encode against a warm cache: `delta` describes how
  /// `level` evolved from `prev` (the graph `cache` encodes), and the
  /// same layer kernel recomputes only the attention rows / edge pairs
  /// whose inputs or masks changed. On success the cache is advanced to
  /// `level` and the returned encodings are bitwise-identical to
  /// EncodeFast(level, ...). Returns nullopt — cache contents then
  /// unspecified, caller must full-encode — when the delta is
  /// kStructural, exceeds the cache capacity, or dirties more than half
  /// the nodes (a delta would cost more than it saves).
  /// Defined in core/incremental_encode.cc.
  std::optional<EncodedLevel> EncodeDelta(const graph::LevelGraph& level,
                                          const graph::LevelGraph& prev,
                                          const graph::LevelGraphDelta& delta,
                                          const Tensor& global_embed,
                                          EncodePlan* plan,
                                          LevelEncodeCache* cache) const;

 private:
  /// Dirty sets of an incremental step (see GatEFastArgs): layer 0's
  /// inputs on entry; ForwardLayers advances node/pair to each layer's
  /// outputs.
  struct DirtySets {
    std::vector<unsigned char> node, pair, row_changed, fresh;
    std::vector<unsigned char> out_node, out_pair;
  };

  /// Node embeddings with the global vector concatenated and projected
  /// back to hidden_dim (Eq. 18 + §IV-B): the first layer's input.
  Tensor EmbedNodes(const graph::LevelGraph& level,
                    const Tensor& global_embed) const;

  /// The no-grad layer loop: every GAT-e layer through
  /// GatELayer::ForwardFast. Without a cache the layers run in place on
  /// the dense (n, d) rows `h` and (n*n, d) rows `z`; with one, layer l
  /// reads cache->h[l]/z[l], writes cache->h[l+1]/z[l+1] and feeds the
  /// layer's per-head ew3/se, all at the cache's pair stride. `dirty`,
  /// when given, limits every layer to what changed.
  void ForwardLayers(const graph::LevelGraph& level, float* h, float* z,
                     LevelEncodeCache* cache, DirtySets* dirty,
                     EncodePlan* plan) const;

  EncodedLevel EncodeWithGat(const Tensor& nodes, const Tensor& edges,
                             const std::vector<bool>& adjacency) const;
  Tensor EncodeWithBiLstm(const Tensor& nodes) const;

  bool use_graph_;
  std::unique_ptr<LevelFeatureEmbed> feature_embed_;
  std::unique_ptr<nn::Linear> input_proj_;  // (hidden+courier) -> hidden
  std::vector<std::unique_ptr<GatELayer>> layers_;
  // BiLSTM fallback.
  std::unique_ptr<nn::LstmCell> fwd_lstm_;
  std::unique_ptr<nn::LstmCell> bwd_lstm_;
  std::unique_ptr<nn::Linear> bilstm_proj_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_ENCODER_H_
