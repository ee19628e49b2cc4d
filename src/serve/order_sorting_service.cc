#include "serve/order_sorting_service.h"

namespace m2g::serve {

Result<std::vector<OrderSortingService::SortedOrder>>
OrderSortingService::Sort(const RtpRequest& request) const {
  RtpService::Response response = rtp_->Handle(request);
  if (!response.status.ok()) return response.status;
  std::vector<SortedOrder> out;
  out.reserve(response.prediction.location_route.size());
  for (size_t rank = 0; rank < response.prediction.location_route.size();
       ++rank) {
    const int node = response.prediction.location_route[rank];
    SortedOrder so;
    so.order_id = response.sample.locations[node].order_id;
    so.rank = static_cast<int>(rank);
    so.eta_minutes = response.prediction.location_times_min[node];
    out.push_back(so);
  }
  return out;
}

}  // namespace m2g::serve
