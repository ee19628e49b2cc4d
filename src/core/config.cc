#include "core/config.h"

#include "common/status.h"

namespace m2g::core {

Status ValidateConfig(const ModelConfig& config) {
  if (config.hidden_dim <= 0 || config.num_heads <= 0 ||
      config.num_layers <= 0) {
    return Status::InvalidArgument("encoder dims must be positive");
  }
  if (config.hidden_dim % config.num_heads != 0) {
    return Status::InvalidArgument(
        "hidden_dim must be divisible by num_heads");
  }
  if (config.aoi_id_embed_dim + config.aoi_type_embed_dim >=
      config.hidden_dim) {
    return Status::InvalidArgument(
        "discrete embedding dims must leave room for continuous features");
  }
  if (config.pos_enc_dim % 2 != 0) {
    return Status::InvalidArgument("pos_enc_dim must be even");
  }
  if (config.time_scale_minutes <= 0) {
    return Status::InvalidArgument("time_scale_minutes must be positive");
  }
  if (config.beam_width < 1) {
    return Status::InvalidArgument("beam_width must be >= 1");
  }
  return Status::Ok();
}

}  // namespace m2g::core
