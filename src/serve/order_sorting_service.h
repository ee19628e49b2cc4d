#ifndef M2G_SERVE_ORDER_SORTING_SERVICE_H_
#define M2G_SERVE_ORDER_SORTING_SERVICE_H_

#include "serve/rtp_service.h"

namespace m2g::serve {

/// §VI-B "Intelligent Order Sorting Service": presents the courier's
/// unpicked orders ranked by the predicted future route instead of the
/// old time-/distance-greedy listings.
class OrderSortingService {
 public:
  explicit OrderSortingService(const RtpService* rtp) : rtp_(rtp) {}

  struct SortedOrder {
    int order_id = 0;
    int rank = 0;             // 0 = next pick-up
    double eta_minutes = 0;   // predicted arrival gap
  };

  /// Orders in predicted visit sequence, or the status of a request the
  /// RTP service rejected.
  Result<std::vector<SortedOrder>> Sort(const RtpRequest& request) const;

 private:
  const RtpService* rtp_;
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_ORDER_SORTING_SERVICE_H_
