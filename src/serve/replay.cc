#include "serve/replay.h"

#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace m2g::serve {

RtpRequest RequestFromSample(const synth::Sample& sample) {
  RtpRequest req;
  req.courier = sample.courier;
  req.courier_pos = sample.courier_pos;
  req.query_time_min = sample.query_time_min;
  req.weather = sample.weather;
  req.weekday = sample.weekday;
  req.pending.reserve(sample.locations.size());
  for (const synth::LocationTask& task : sample.locations) {
    synth::Order o;
    o.id = task.order_id;
    o.pos = task.pos;
    o.aoi_id = task.aoi_id;
    o.accept_time_min = task.accept_time_min;
    o.deadline_min = task.deadline_min;
    req.pending.push_back(o);
  }
  return req;
}

std::vector<RtpRequest> ReplayTrip(const synth::TripRecord& trip,
                                   const synth::CourierProfile& courier) {
  std::vector<RtpRequest> requests;
  const int total = static_cast<int>(trip.served.size());
  for (int prefix = 0; prefix < total; ++prefix) {
    RtpRequest req;
    req.courier = courier;
    req.weather = trip.weather;
    req.weekday = trip.weekday;
    if (prefix == 0) {
      req.courier_pos = trip.start_pos;
      req.query_time_min = trip.start_time_min;
    } else {
      req.courier_pos = trip.served[prefix - 1].order.pos;
      req.query_time_min = trip.served[prefix - 1].departure_time_min;
    }
    for (int j = prefix; j < total; ++j) {
      req.pending.push_back(trip.served[j].order);
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

ConcurrentReplayResult ReplayConcurrently(
    const RtpService& service, const std::vector<RtpRequest>& requests,
    int threads) {
  ConcurrentReplayResult result;
  result.responses.resize(requests.size());
  ThreadPool pool(ResolveThreads(threads));
  Stopwatch watch;
  pool.ParallelFor(static_cast<int64_t>(requests.size()), [&](int64_t i) {
    result.responses[i] = service.Handle(requests[i]);
  });
  result.wall_seconds = watch.ElapsedSeconds();
  for (const RtpService::Response& response : result.responses) {
    if (!response.status.ok()) ++result.rejected;
  }
  result.requests_per_second =
      result.wall_seconds > 0
          ? static_cast<double>(requests.size()) / result.wall_seconds
          : 0;
  return result;
}

int NodeIndexOfOrder(const synth::Sample& sample, int order_id) {
  for (int i = 0; i < sample.num_locations(); ++i) {
    if (sample.locations[i].order_id == order_id) return i;
  }
  return -1;
}

}  // namespace m2g::serve
