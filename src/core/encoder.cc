#include "core/encoder.h"

#include "common/string_util.h"
#include "core/incremental_encode.h"
#include "tensor/grad_mode.h"

namespace m2g::core {

LevelEncoder::LevelEncoder(const ModelConfig& config, int continuous_dim,
                           Rng* rng)
    : use_graph_(config.use_graph_encoder) {
  feature_embed_ =
      std::make_unique<LevelFeatureEmbed>(config, continuous_dim, rng);
  AddChild("feature_embed", feature_embed_.get());
  input_proj_ = std::make_unique<nn::Linear>(
      config.hidden_dim + config.courier_dim, config.hidden_dim, rng);
  AddChild("input_proj", input_proj_.get());
  if (use_graph_) {
    for (int k = 0; k < config.num_layers; ++k) {
      const bool is_last = (k == config.num_layers - 1);
      layers_.push_back(std::make_unique<GatELayer>(config, is_last, rng));
      AddChild(StrFormat("gat%d", k), layers_.back().get());
    }
  } else {
    fwd_lstm_ = std::make_unique<nn::LstmCell>(config.hidden_dim,
                                               config.hidden_dim, rng);
    bwd_lstm_ = std::make_unique<nn::LstmCell>(config.hidden_dim,
                                               config.hidden_dim, rng);
    bilstm_proj_ = std::make_unique<nn::Linear>(2 * config.hidden_dim,
                                                config.hidden_dim, rng);
    AddChild("fwd_lstm", fwd_lstm_.get());
    AddChild("bwd_lstm", bwd_lstm_.get());
    AddChild("bilstm_proj", bilstm_proj_.get());
  }
}

EncodedLevel LevelEncoder::Encode(const graph::LevelGraph& level,
                                  const Tensor& global_embed,
                                  EncodePlan* plan) const {
  if (plan != nullptr && use_graph_ && !GradMode::enabled()) {
    return EncodeFast(level, global_embed, plan);
  }
  return EncodeLegacy(level, global_embed);
}

Tensor LevelEncoder::EmbedNodes(const graph::LevelGraph& level,
                                const Tensor& global_embed) const {
  Tensor nodes = feature_embed_->EmbedNodes(level);
  // Concatenate the global/courier vector onto every node (§IV-B).
  return input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(global_embed, level.n)));
}

EncodedLevel LevelEncoder::EncodeLegacy(const graph::LevelGraph& level,
                                        const Tensor& global_embed) const {
  Tensor nodes = EmbedNodes(level, global_embed);
  if (use_graph_) {
    Tensor edges = feature_embed_->EmbedEdges(level);
    return EncodeWithGat(nodes, edges, level.adjacency);
  }
  return {EncodeWithBiLstm(nodes), Tensor()};
}

EncodedLevel LevelEncoder::EncodeFast(const graph::LevelGraph& level,
                                      const Tensor& global_embed,
                                      EncodePlan* plan) const {
  M2G_CHECK(use_graph_);
  M2G_CHECK(!GradMode::enabled());
  // Embeddings and the input projection stay on the op layer: under
  // no-grad they already fold to constants, and they are O(n d^2) —
  // fusing them would not move the n^2 d^2 needle the GAT stack does.
  // The running representations are copies that draw from the pool,
  // mutated in place across layers, and become the returned tensors'
  // storage.
  Matrix h = EmbedNodes(level, global_embed).value();
  Matrix z = feature_embed_->EmbedEdges(level).value();
  ForwardLayers(level, h.data(), z.data(), nullptr, nullptr, plan);
  return {Tensor::Constant(std::move(h)), Tensor::Constant(std::move(z))};
}

void LevelEncoder::ForwardLayers(const graph::LevelGraph& level, float* h,
                                 float* z, LevelEncodeCache* cache,
                                 DirtySets* dirty, EncodePlan* plan) const {
  for (size_t l = 0; l < layers_.size(); ++l) {
    GatEFastArgs args;
    args.n = level.n;
    args.adjacency = &level.adjacency;
    if (cache == nullptr) {
      args.block = level.n;
      args.h_in = args.h_out = h;
      args.z_in = args.z_out = z;
    } else {
      const size_t heads = layers_[l]->num_heads();
      args.block = cache->cap;
      args.h_in = cache->h[l].data();
      args.z_in = cache->z[l].data();
      args.h_out = cache->h[l + 1].data();
      args.z_out = cache->z[l + 1].data();
      args.ew3 = &cache->ew3[l * heads];
      args.se = &cache->se[l * heads];
    }
    if (dirty != nullptr) {
      args.node_dirty = dirty->node.data();
      args.pair_dirty = dirty->pair.data();
      args.row_changed = dirty->row_changed.data();
      args.fresh = dirty->fresh.data();
      args.out_node_dirty = dirty->out_node.data();
      args.out_pair_dirty = dirty->out_pair.data();
    }
    layers_[l]->ForwardFast(args, plan);
    if (dirty != nullptr) {
      // Each layer's changed outputs are the next layer's dirty inputs.
      dirty->node.swap(dirty->out_node);
      dirty->pair.swap(dirty->out_pair);
    }
  }
}

EncodedLevel LevelEncoder::EncodeWithGat(
    const Tensor& nodes, const Tensor& edges,
    const std::vector<bool>& adjacency) const {
  Tensor h = nodes;
  Tensor z = edges;
  for (const auto& layer : layers_) {
    GatEOutput out = layer->Forward(h, z, adjacency);
    // Residual connections (all layers keep width hidden_dim): attention
    // aggregation alone washes out node identity on these tiny dense
    // graphs, and the pointer decoder needs distinguishable nodes.
    h = Add(h, out.nodes);
    z = Add(z, out.edges);
  }
  return {h, z};
}

Tensor LevelEncoder::EncodeWithBiLstm(const Tensor& nodes) const {
  const int n = nodes.rows();
  std::vector<Tensor> fwd(n), bwd(n);
  nn::LstmState state = fwd_lstm_->InitialState();
  for (int i = 0; i < n; ++i) {
    state = fwd_lstm_->Forward(Row(nodes, i), state);
    fwd[i] = state.h;
  }
  state = bwd_lstm_->InitialState();
  for (int i = n - 1; i >= 0; --i) {
    state = bwd_lstm_->Forward(Row(nodes, i), state);
    bwd[i] = state.h;
  }
  std::vector<Tensor> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(ConcatCols(fwd[i], bwd[i]));
  }
  return bilstm_proj_->Forward(ConcatRows(rows));
}

}  // namespace m2g::core
