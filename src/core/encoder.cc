#include "core/encoder.h"

#include "common/string_util.h"
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

EncodedLevel LevelEncoder::EncodeLegacy(const graph::LevelGraph& level,
                                        const Tensor& global_embed) const {
  Tensor nodes = feature_embed_->EmbedNodes(level);
  // Concatenate the global/courier vector onto every node (§IV-B).
  nodes = input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(global_embed, level.n)));
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
  M2G_CHECK_GE(plan->max_nodes, level.n);
  // Embeddings and the input projection stay on the op layer: under
  // no-grad they already fold to constants, and they are O(n d^2) —
  // fusing them would not move the n^2 d^2 needle the GAT stack does.
  Tensor nodes = feature_embed_->EmbedNodes(level);
  nodes = input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(global_embed, level.n)));
  Tensor edges = feature_embed_->EmbedEdges(level);
  // Running representations, mutated in place across layers; the copies
  // draw from the pool and become the returned tensors' storage.
  Matrix h = nodes.value();
  Matrix z = edges.value();
  for (const auto& layer : layers_) {
    layer->ForwardFast(h, z, level.adjacency, plan);
    plan->AddResiduals(&h, &z);
  }
  return {Tensor::Constant(std::move(h)), Tensor::Constant(std::move(z))};
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
