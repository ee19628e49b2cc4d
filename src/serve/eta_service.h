#ifndef M2G_SERVE_ETA_SERVICE_H_
#define M2G_SERVE_ETA_SERVICE_H_

#include "serve/rtp_service.h"

namespace m2g::serve {

/// §VI-C "Minute-level ETA Service": user-facing arrival estimates,
/// replacing the old 2-hour window, plus the pre-arrival push that lets
/// customers get ready (package pick-up is face-to-face).
///
/// Thread-safe: estimates go through RtpService::Handle (no-grad,
/// concurrent) and the only mutable service state is the atomic request
/// counter.
class EtaService {
 public:
  struct Config {
    /// Push a notification when the predicted arrival is within this
    /// many minutes.
    double notify_within_minutes = 10.0;
  };

  EtaService(const RtpService* rtp, const Config& config)
      : rtp_(rtp), config_(config) {}
  explicit EtaService(const RtpService* rtp)
      : EtaService(rtp, Config{}) {}

  struct OrderEta {
    int order_id = 0;
    double eta_minutes = 0;   // minutes from the request time
    int stops_before = 0;     // how many pick-ups precede this one
    bool notify_user = false; // pre-arrival push fired
  };

  /// Minute-level ETA for every pending order of the request, or the
  /// status of a request the RTP service rejected.
  Result<std::vector<OrderEta>> Estimate(const RtpRequest& request) const;

  /// ETA for a single order id (NotFound if the order is not pending,
  /// the rejection status if the request is invalid).
  Result<OrderEta> EstimateOrder(const RtpRequest& request,
                                 int order_id) const;

  /// Number of Estimate calls served (monitoring counter; EstimateOrder
  /// counts once through its inner Estimate).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  const RtpService* rtp_;
  Config config_;
  mutable std::atomic<int64_t> requests_served_{0};
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_ETA_SERVICE_H_
