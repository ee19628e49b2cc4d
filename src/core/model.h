#ifndef M2G_CORE_MODEL_H_
#define M2G_CORE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/route_decoder.h"
#include "core/sort_lstm.h"
#include "core/uncertainty_loss.h"

namespace m2g::core {

struct IncrementalState;   // core/incremental_encode.h
struct IncrementalResult;  // core/incremental_encode.h

/// Joint route-and-time prediction for one request (Eq. 10): location
/// route & per-location arrival gaps, plus the AOI-level outputs when the
/// model runs multi-level.
struct RtpPrediction {
  std::vector<int> location_route;          // permutation of locations
  std::vector<double> location_times_min;   // indexed by location node
  std::vector<int> aoi_route;               // empty if single-level
  std::vector<double> aoi_times_min;        // indexed by AOI node
};

/// Per-task loss values of one training pass (for logging and the
/// uncertainty tests).
struct LossBreakdown {
  float aoi_route = 0;
  float location_route = 0;
  float aoi_time = 0;
  float location_time = 0;
  float total = 0;
};

/// M2G4RTP (§IV): multi-level GAT-e encoder + multi-task decoders with
/// AOI-guided location decoding and homoscedastic-uncertainty loss
/// weighting. Ablation variants are configured through ModelConfig.
class M2g4Rtp : public nn::Module {
 public:
  explicit M2g4Rtp(const ModelConfig& config);

  /// Teacher-forced multi-task training loss for one sample (Eq. 37-41).
  /// The returned scalar tensor backpropagates into all four task heads
  /// (subject to the ablation switches). `guidance_rng`, when non-null,
  /// supplies the scheduled-sampling draw instead of the model's internal
  /// stream — data-parallel trainers pass a per-sample Rng so concurrent
  /// ComputeLoss calls are race-free and deterministic for any thread
  /// count; the default (nullptr) preserves the serial stream exactly.
  Tensor ComputeLoss(const synth::Sample& sample,
                     LossBreakdown* breakdown = nullptr,
                     Rng* guidance_rng = nullptr) const;

  /// Greedy joint prediction (§IV-D).
  RtpPrediction Predict(const synth::Sample& sample) const;

  /// Predict through a per-courier incremental-encode session: when each
  /// of the request's level graphs has the node count of `state`'s cached
  /// graph or one inserted node (and the global embedding is unchanged),
  /// only the GAT-e attention rows and edge pairs whose inputs changed are
  /// re-encoded (LevelEncoder::EncodeDelta); otherwise — cold state,
  /// structural diff, capacity overflow, scheduled refresh or dirty
  /// spread — it performs a full encode and rewarms the state. Under grad mode or
  /// the BiLSTM ablation sessions are inert: the legacy encode runs and
  /// `state` is left untouched.
  /// The prediction is bitwise-identical to Predict(sample) in every
  /// case (incremental_encode_test). Records encode.delta_steps /
  /// encode.full_fallbacks and the encode.delta.ms span. Not
  /// thread-safe per state: callers serialize on the owning session.
  /// Defined in core/incremental_encode.cc.
  RtpPrediction PredictIncremental(const synth::Sample& sample,
                                   IncrementalState* state,
                                   IncrementalResult* result =
                                       nullptr) const;

  const ModelConfig& config() const { return config_; }
  const UncertaintyLoss& uncertainty() const { return *uncertainty_; }

  /// Scheduled sampling for the AOI->location guidance during training:
  /// with probability `p` the guidance (AOI route positions + times fed
  /// into Eq. 34) comes from the model's own greedy AOI decode — exactly
  /// the inference path — and otherwise from the teacher route. The
  /// Trainer anneals this from 0 (fast early learning) to 1 (no
  /// exposure bias at the end). Default 1.
  void set_guidance_sampling_prob(float p) { guidance_sampling_prob_ = p; }
  float guidance_sampling_prob() const { return guidance_sampling_prob_; }

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  /// Location-decoder inputs x_in (Eq. 34): node representation, plus the
  /// positional encoding of its AOI within `aoi_route` and the (scaled)
  /// AOI arrival prediction, when multi-level.
  Tensor BuildLocationInputs(const Tensor& loc_nodes,
                             const std::vector<int>& loc_to_aoi,
                             const std::vector<int>& aoi_route,
                             const std::vector<Tensor>& aoi_times) const;

  /// The one predict pipeline behind Predict (`state` null) and
  /// PredictIncremental (`state` and `result` non-null): graph build,
  /// global embed and encode under the serve.stage.graph_build/encode
  /// spans, then DecodeWithEncodings. A null `state`, grad mode or the
  /// BiLSTM ablation runs the stateless Encode; otherwise
  /// EncodeWithSession runs.
  RtpPrediction PredictPipeline(const synth::Sample& sample,
                                IncrementalState* state,
                                IncrementalResult* result) const;

  /// PredictIncremental's session fallback chain for a live session and
  /// a no-grad GAT-e encode: delta-encode both levels when the request
  /// is a single-node change of `state`'s cached graphs, else a full
  /// cached encode that rewarms `state` (which takes ownership of `*g`).
  /// Defined in core/incremental_encode.cc.
  void EncodeWithSession(graph::MultiLevelGraph* g, const Tensor& u,
                         EncodePlan* plan, IncrementalState* state,
                         IncrementalResult* result, EncodedLevel* loc_enc,
                         EncodedLevel* aoi_enc) const;

  /// The pipeline's decode + ETA tail: beam decode and SortLSTM heads
  /// over already-encoded levels, with the
  /// serve.stage.route_decode/eta_head spans.
  RtpPrediction DecodeWithEncodings(const synth::Sample& sample,
                                    const Tensor& u,
                                    const EncodedLevel& loc_enc,
                                    const EncodedLevel& aoi_enc) const;

  ModelConfig config_;
  float guidance_sampling_prob_ = 1.0f;
  mutable Rng guidance_rng_{0x6a1dacef00dULL};
  std::unique_ptr<GlobalFeatureEmbed> global_embed_;
  std::unique_ptr<LevelEncoder> location_encoder_;
  std::unique_ptr<LevelEncoder> aoi_encoder_;            // multi-level only
  std::unique_ptr<AttentionRouteDecoder> aoi_route_decoder_;
  std::unique_ptr<SortLstm> aoi_sort_lstm_;
  std::unique_ptr<AttentionRouteDecoder> location_route_decoder_;
  std::unique_ptr<SortLstm> location_sort_lstm_;
  std::unique_ptr<UncertaintyLoss> uncertainty_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_MODEL_H_
