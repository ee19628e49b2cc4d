#ifndef M2G_SERVE_REPLAY_H_
#define M2G_SERVE_REPLAY_H_

#include "serve/feature_extractor.h"
#include "serve/rtp_service.h"

namespace m2g::serve {

/// Converts offline samples/trips back into the live requests the
/// Figure 7 pipeline would have received — the replay harness used by the
/// deployment bench, the serving tests and the app demos.

/// Rebuilds the RTP request a Sample was snapshotted from.
RtpRequest RequestFromSample(const synth::Sample& sample);

/// All requests a trip generates if the app re-queries after every
/// pick-up: element 0 is the trip start (all orders pending), element i
/// has the first i orders already served, with the clock and courier
/// position advanced to the realized values.
std::vector<RtpRequest> ReplayTrip(const synth::TripRecord& trip,
                                   const synth::CourierProfile& courier);

/// Maps an order id to its node index in `sample` (-1 if absent).
int NodeIndexOfOrder(const synth::Sample& sample, int order_id);

/// Result of a multi-threaded replay run: responses are indexed exactly
/// like the input requests regardless of which worker served them.
/// Rejected requests keep their slot (with a non-OK status and no
/// prediction) and are counted in `rejected`.
struct ConcurrentReplayResult {
  std::vector<RtpService::Response> responses;
  int64_t rejected = 0;
  double wall_seconds = 0;
  double requests_per_second = 0;
};

/// Serves every request through `service` from `threads` concurrent
/// workers (0 = DefaultThreads(); 1 degenerates to a serial replay).
/// Responses land at their request's index, so the output is
/// deterministic and directly comparable to a serial replay.
ConcurrentReplayResult ReplayConcurrently(
    const RtpService& service, const std::vector<RtpRequest>& requests,
    int threads);

}  // namespace m2g::serve

#endif  // M2G_SERVE_REPLAY_H_
