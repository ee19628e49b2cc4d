#include "serve/eta_service.h"

#include "common/string_util.h"
#include "obs/trace.h"

namespace m2g::serve {

Result<std::vector<EtaService::OrderEta>> EtaService::Estimate(
    const RtpRequest& request) const {
  static obs::Counter& requests_counter =
      obs::MetricsRegistry::Global().counter("serve.eta.requests");
  static obs::Histogram& estimate_hist =
      obs::StageHistogram("serve.eta.estimate.ms");

  // Request-scoped arena (nests with the one inside Handle): the
  // response's sample/prediction buffers are released back to the pool
  // before the next estimate on this thread.
  ArenaGuard arena;
  obs::TraceSpan span("serve.eta.estimate.ms", &estimate_hist);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  requests_counter.Increment();
  RtpService::Response response = rtp_->Handle(request);
  if (!response.status.ok()) return response.status;
  const auto& route = response.prediction.location_route;
  std::vector<int> stops_before(route.size(), 0);
  for (size_t rank = 0; rank < route.size(); ++rank) {
    stops_before[route[rank]] = static_cast<int>(rank);
  }
  std::vector<OrderEta> out;
  out.reserve(route.size());
  for (size_t node = 0; node < route.size(); ++node) {
    OrderEta eta;
    eta.order_id = response.sample.locations[node].order_id;
    eta.eta_minutes = response.prediction.location_times_min[node];
    eta.stops_before = stops_before[node];
    eta.notify_user = eta.eta_minutes <= config_.notify_within_minutes;
    out.push_back(eta);
  }
  return out;
}

Result<EtaService::OrderEta> EtaService::EstimateOrder(
    const RtpRequest& request, int order_id) const {
  Result<std::vector<OrderEta>> etas = Estimate(request);
  if (!etas.ok()) return etas.status();
  for (const OrderEta& eta : etas.value()) {
    if (eta.order_id == order_id) return eta;
  }
  return Status::NotFound(
      StrFormat("order %d is not pending in this request", order_id));
}

}  // namespace m2g::serve
