// Intelligent Order Sorting demo (§VI-B): follows one courier through a
// simulated trip. After every pick-up the app re-requests the sorted
// order list, exactly like the Cainiao courier app.
//
//   ./build/examples/courier_day

#include <algorithm>
#include <cstdio>

#include "core/trainer.h"
#include "serve/order_sorting_service.h"

namespace {

using namespace m2g;

serve::RtpRequest MakeRequest(const synth::Sample& base,
                              const std::vector<synth::Order>& pending,
                              const geo::LatLng& pos, double now) {
  serve::RtpRequest req;
  req.courier = base.courier;
  req.courier_pos = pos;
  req.query_time_min = now;
  req.weather = base.weather;
  req.weekday = base.weekday;
  req.pending = pending;
  return req;
}

}  // namespace

int main() {
  using namespace m2g;

  synth::DataConfig dc;
  dc.seed = 11;
  dc.world.num_aois = 120;
  dc.couriers.num_couriers = 12;
  dc.num_days = 10;
  synth::BuiltWorld built = synth::BuildWorldAndDataset(dc);

  core::ModelConfig mc;
  core::M2g4Rtp model(mc);
  core::TrainConfig tc;
  tc.epochs = 3;
  tc.max_samples_per_epoch = 300;
  core::Trainer trainer(&model, tc);
  std::printf("training the order-sorting model ...\n");
  trainer.Fit(built.splits.train, built.splits.val);

  serve::RtpService service(&built.world, &model);
  serve::OrderSortingService sorting(&service);

  // Pick a rich test sample and replay its trip interactively.
  const synth::Sample* sample = &built.splits.test.samples.front();
  for (const synth::Sample& s : built.splits.test.samples) {
    if (s.num_locations() >= 8 && s.num_aois() >= 3) {
      sample = &s;
      break;
    }
  }
  std::printf("\ncourier %d starts a trip with %d pick-ups in %d AOIs\n",
              sample->courier_id, sample->num_locations(),
              sample->num_aois());

  // Pending orders, courier position and clock evolve as the courier
  // follows the app's top suggestion.
  std::vector<synth::Order> pending;
  for (const synth::LocationTask& task : sample->locations) {
    synth::Order o;
    o.id = task.order_id;
    o.pos = task.pos;
    o.aoi_id = task.aoi_id;
    o.accept_time_min = task.accept_time_min;
    o.deadline_min = task.deadline_min;
    pending.push_back(o);
  }
  geo::LatLng pos = sample->courier_pos;
  double now = sample->query_time_min;
  synth::TimeModel time_model;

  int stop = 1;
  while (!pending.empty()) {
    auto result = sorting.Sort(MakeRequest(*sample, pending, pos, now));
    if (!result.ok()) {
      std::fprintf(stderr, "request rejected: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const auto& sorted = result.value();
    std::printf("\n[t=%.0f min] app shows %zu orders; top of list:\n", now,
                sorted.size());
    for (size_t i = 0; i < std::min<size_t>(3, sorted.size()); ++i) {
      std::printf("   %zu. order #%d  (ETA %.0f min)\n", i + 1,
                  sorted[i].order_id, sorted[i].eta_minutes);
    }
    // The courier follows the top suggestion.
    const int next_id = sorted.front().order_id;
    auto it = std::find_if(pending.begin(), pending.end(),
                           [&](const synth::Order& o) {
                             return o.id == next_id;
                           });
    now += time_model.ExpectedTravelMinutes(sample->courier, pos, it->pos,
                                            sample->weather,
                                            sample->weekday);
    std::printf("-> stop %d: picked up order #%d at t=%.0f "
                "(deadline %.0f, %s)\n",
                stop++, next_id, now, it->deadline_min,
                now <= it->deadline_min ? "on time" : "LATE");
    now += sample->courier.service_time_mean_min;
    pos = it->pos;
    pending.erase(it);
  }
  std::printf("\ntrip complete after %d requests to the sorting service\n",
              static_cast<int>(service.requests_served()));
  return 0;
}
