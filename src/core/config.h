#ifndef M2G_CORE_CONFIG_H_
#define M2G_CORE_CONFIG_H_

#include <cstdint>

#include "common/status.h"
#include "graph/multi_level_graph.h"

namespace m2g::core {

/// Hyper-parameters and ablation switches of M2G4RTP. Defaults are sized
/// for single-core CPU training on the synthetic dataset; the architecture
/// follows §IV of the paper exactly.
struct ModelConfig {
  uint64_t seed = 42;

  // --- Encoder (Eq. 18-26) ---
  int hidden_dim = 48;       // d_l == d_a
  int num_heads = 4;         // P
  int num_layers = 2;        // K
  int aoi_id_embed_dim = 12; // d_disc for the AOI id
  int aoi_type_embed_dim = 4;
  int aoi_id_vocab = 512;    // ids are clamped into this vocab
  float leaky_slope = 0.2f;

  // --- Decoders (Eq. 27-36) ---
  int lstm_hidden_dim = 48;
  int courier_dim = 24;  // d_u (global/courier embedding)
  /// Vocabulary of the courier-identity embedding (§IV-C: "we
  /// concatenate the courier's embedding and his profile features").
  /// Ids are clamped into the vocab.
  int courier_id_vocab = 1024;
  int courier_id_embed_dim = 12;
  int pos_enc_dim = 8;   // positional encoding width (Eq. 32)
  float pos_enc_base = 10000.0f;  // r
  /// Route decoding beam width at inference. 1 reproduces the paper's
  /// greedy argmax (Eq. 31); >1 is an extension of this library.
  int beam_width = 1;
  /// Feed the GAT-e edge representation of each traversed leg into
  /// SortLSTM alongside Eq. 33's inputs. The edge stream explicitly
  /// encodes pairwise distance / deadline gap (Eq. 14), the per-leg
  /// information an arrival-time integrator needs; see DESIGN.md §4b.
  bool sort_lstm_edge_input = true;

  // --- Training ---
  /// Arrival-time targets are divided by this (minutes -> hours) so the
  /// regression head trains at O(1) scale.
  float time_scale_minutes = 60.0f;

  // --- Ablation switches (§V-E) ---
  /// "two-step": stop gradients from the time heads into the shared
  /// encoder/route parts and train the time heads separately.
  bool two_step = false;
  /// "w/o AOI": single-level model, no AOI decoders, no guidance.
  bool use_aoi_level = true;
  /// "w/o graph": replace GAT-e with a bidirectional LSTM encoder.
  bool use_graph_encoder = true;
  /// "w/o uncertainty": fixed 100:1 route:time loss weights.
  bool use_uncertainty_weighting = true;

  // --- Serving ---
  // No-grad Predict() and PredictIncremental() encode through the fused
  // GAT-e layer kernel, bitwise-identical to the autograd encode that
  // grad mode and the BiLSTM ablation take; whether a service uses
  // encode sessions is serve::ServingConfig::encode_sessions.enabled.
  /// Staleness backstop: after 63 consecutive deltas a session's next
  /// prediction performs a full re-encode even when a delta would apply,
  /// bounding how long any cached representation chain can grow. Deltas
  /// are bitwise-equal to a full encode, so this never moves a result;
  /// on courier traffic a pick-up's full encode resets the count long
  /// before it fires.
  static constexpr int incremental_refresh_period = 64;

  graph::GraphConfig graph;
};

/// Rejects configurations the architecture cannot realize (e.g. hidden_dim
/// not divisible by the head count).
Status ValidateConfig(const ModelConfig& config);

}  // namespace m2g::core

#endif  // M2G_CORE_CONFIG_H_
