#ifndef M2G_SERVE_FEATURE_EXTRACTOR_H_
#define M2G_SERVE_FEATURE_EXTRACTOR_H_

#include <vector>

#include "common/status.h"
#include "synth/dataset.h"

namespace m2g::serve {

/// A live RTP request, as the Figure 7 Feature Extraction Layer receives
/// it: the courier's identity and position, the wall clock, the context,
/// and the raw unvisited orders. No labels — this is the online path.
struct RtpRequest {
  synth::CourierProfile courier;
  geo::LatLng courier_pos;
  double query_time_min = 0;
  int weather = 0;
  int weekday = 0;
  std::vector<synth::Order> pending;
};

/// Figure 7 "Feature Extraction Layer": resolves the request into the
/// model-facing Sample (node ordering, AOI node set, distances, AOI
/// types). The returned sample has empty labels.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(const synth::World* world) : world_(world) {}

  /// Rejects requests BuildSample cannot resolve: an empty order list,
  /// an order whose AOI id the world does not know, a courier_pos or
  /// order pos outside lat [-90, 90] / lng [-180, 180], or a
  /// query_time_min, accept_time_min, deadline_min or courier-profile
  /// statistic (avg_working_hours, avg_speed_mps, attendance,
  /// service_time_mean_min) that is not finite or exceeds 1e7 in
  /// magnitude (the message names the field), a weather code outside
  /// [0, synth::kNumWeatherCodes), a weekday outside [0, 7), or two
  /// orders sharing an id. Requests come from outside the process, so a
  /// bad one yields an InvalidArgument status rather than a CHECK
  /// failure.
  Status Validate(const RtpRequest& request) const;

  /// Requires Validate(request).ok().
  synth::Sample BuildSample(const RtpRequest& request) const;

  /// In-place variant for the serving hot path: builds straight into
  /// `*out` (clearing any previous contents), so the sample's vectors are
  /// constructed in their final home — the response — and never copied.
  /// `out` must not alias `request`. Requires Validate(request).ok().
  void BuildSample(const RtpRequest& request, synth::Sample* out) const;

 private:
  const synth::World* world_;
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_FEATURE_EXTRACTOR_H_
