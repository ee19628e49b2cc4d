#include "serve/feature_extractor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "synth/time_model.h"

namespace m2g::serve {

Status FeatureExtractor::Validate(const RtpRequest& request) const {
  if (request.pending.empty()) {
    return Status::InvalidArgument("request has no pending orders");
  }
  // Coordinates, times and courier statistics become float features. A
  // NaN or infinite value, or a finite one past float range, turns every
  // pointer score NaN, and no decode can pick a node from those. The
  // bounds are written so that NaN fails them too.
  constexpr double kMaxMagnitude = 1e7;
  const auto bounded = [](double x) {
    return std::fabs(x) <= kMaxMagnitude;
  };
  const auto on_globe = [](const geo::LatLng& p) {
    return std::fabs(p.lat) <= 90.0 && std::fabs(p.lng) <= 180.0;
  };
  const auto out_of_range = [](const std::string& field) {
    return Status::InvalidArgument(field + " is not finite or out of range");
  };
  // The embedding tables clamp an out-of-range code, which would
  // silently answer for a different weather or weekday.
  if (request.weather < 0 || request.weather >= synth::kNumWeatherCodes) {
    return Status::InvalidArgument(
        StrFormat("weather code %d is out of range", request.weather));
  }
  if (request.weekday < 0 || request.weekday >= 7) {
    return Status::InvalidArgument(
        StrFormat("weekday %d is out of range", request.weekday));
  }
  if (!on_globe(request.courier_pos)) return out_of_range("courier_pos");
  if (!bounded(request.query_time_min)) return out_of_range("query_time_min");
  const synth::CourierProfile& c = request.courier;
  for (const auto& [field, value] :
       {std::pair<const char*, double>{"courier.avg_working_hours",
                                       c.avg_working_hours},
        {"courier.avg_speed_mps", c.avg_speed_mps},
        {"courier.attendance", c.attendance},
        {"courier.service_time_mean_min", c.service_time_mean_min}}) {
    if (!bounded(value)) return out_of_range(field);
  }
  for (const synth::Order& o : request.pending) {
    if (o.aoi_id < 0 || o.aoi_id >= world_->num_aois()) {
      return Status::InvalidArgument(
          StrFormat("order %d has unknown AOI id %d", o.id, o.aoi_id));
    }
    if (!on_globe(o.pos)) return out_of_range(StrFormat("order %d pos", o.id));
    if (!bounded(o.accept_time_min)) {
      return out_of_range(StrFormat("order %d accept_time_min", o.id));
    }
    if (!bounded(o.deadline_min)) {
      return out_of_range(StrFormat("order %d deadline_min", o.id));
    }
  }
  // Order ids key the answer (EstimateOrder, NodeIndexOfOrder): a
  // duplicate would be answered for whichever copy comes first.
  std::vector<int> ids;
  ids.reserve(request.pending.size());
  for (const synth::Order& o : request.pending) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    return Status::InvalidArgument(
        StrFormat("duplicate order id %d", *dup));
  }
  return Status::Ok();
}

synth::Sample FeatureExtractor::BuildSample(const RtpRequest& request) const {
  synth::Sample s;
  BuildSample(request, &s);
  return s;
}

void FeatureExtractor::BuildSample(const RtpRequest& request,
                                   synth::Sample* out) const {
  M2G_CHECK(!request.pending.empty());
  synth::Sample& s = *out;
  // Reset by clearing each vector rather than assigning a fresh Sample,
  // so a reused `out` keeps its vector capacity.
  s.day = 0;
  s.locations.clear();
  s.aoi_node_ids.clear();
  s.loc_to_aoi.clear();
  s.route_label.clear();
  s.time_label_min.clear();
  s.aoi_route_label.clear();
  s.aoi_time_label_min.clear();
  s.courier_id = request.courier.id;
  s.courier = request.courier;
  s.courier_pos = request.courier_pos;
  s.query_time_min = request.query_time_min;
  s.weather = request.weather;
  s.weekday = request.weekday;

  // Node order: ascending order id, exactly like the offline snapshots.
  std::vector<const synth::Order*> by_id;
  by_id.reserve(request.pending.size());
  for (const synth::Order& o : request.pending) by_id.push_back(&o);
  std::sort(by_id.begin(), by_id.end(),
            [](const synth::Order* a, const synth::Order* b) {
              return a->id < b->id;
            });

  std::set<int> distinct_aois;
  for (const synth::Order* o : by_id) distinct_aois.insert(o->aoi_id);
  s.aoi_node_ids.assign(distinct_aois.begin(), distinct_aois.end());
  std::map<int, int> aoi_to_node;
  for (size_t k = 0; k < s.aoi_node_ids.size(); ++k) {
    aoi_to_node[s.aoi_node_ids[k]] = static_cast<int>(k);
  }

  for (const synth::Order* o : by_id) {
    synth::LocationTask task;
    task.order_id = o->id;
    task.pos = o->pos;
    task.aoi_id = o->aoi_id;
    task.aoi_type = static_cast<int>(world_->aoi(o->aoi_id).type);
    task.accept_time_min = o->accept_time_min;
    task.deadline_min = o->deadline_min;
    task.dist_from_courier_m =
        geo::ApproxMeters(request.courier_pos, o->pos);
    s.locations.push_back(task);
    s.loc_to_aoi.push_back(aoi_to_node[o->aoi_id]);
  }
}

}  // namespace m2g::serve
