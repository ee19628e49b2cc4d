#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bench_core.h"
#include "common/rng.h"
#include "geo/latlng.h"
#include "serve/replay.h"

namespace perfbench {
namespace {

using m2g::Rng;
using m2g::serve::RtpRequest;
using m2g::synth::CourierProfile;
using m2g::synth::Order;
using m2g::synth::Sample;

/// Per-purpose streams derived from the workload seed, so changing how
/// one generator draws never shifts another's inputs.
uint64_t Stream(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL + 1;
}

/// The seeded city: world, courier profiles and labelled samples.
m2g::synth::BuiltWorld BuildCity(uint64_t seed) {
  m2g::synth::DataConfig config;
  config.seed = seed;
  config.num_days = kCityDays;
  return m2g::synth::BuildWorldAndDataset(config);
}

/// kTrainSamples labelled samples from the city's train split, one per
/// node-count quantile (locations, then AOIs): training cost grows
/// steeply with n, so a plain random draw of so few samples would make
/// the epoch's cost swing with the seed. The seed still picks which
/// sample stands for each quantile.
std::vector<Sample> PickTrainSamples(const m2g::synth::Dataset& split,
                                     uint64_t seed) {
  const int total = split.size();
  std::vector<int> order(total);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(Stream(seed, 3));
  rng.Shuffle(&order);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const Sample& x = split.samples[a];
    const Sample& y = split.samples[b];
    return x.num_locations() != y.num_locations()
               ? x.num_locations() < y.num_locations()
               : x.num_aois() < y.num_aois();
  });
  std::vector<Sample> out;
  for (int i = 0; i < kTrainSamples && i < total; ++i) {
    const int quantile = (2 * i + 1) * total / (2 * kTrainSamples);
    out.push_back(split.samples[order[quantile]]);
  }
  return out;
}

Order MakeOrder(const m2g::synth::World& world, const CourierProfile& courier,
                int id, double now_min, Rng* rng) {
  Order o;
  o.id = id;
  o.aoi_id = courier.served_aois[rng->UniformInt(
      0, static_cast<int>(courier.served_aois.size()) - 1)];
  o.pos = world.SamplePointInAoi(o.aoi_id, rng);
  o.accept_time_min = now_min - rng->Uniform(0, 45);
  o.deadline_min = now_min + rng->Uniform(30, 120);
  return o;
}

/// Labelled probe samples for crafted requests: the first kTrainSamples
/// pool entries, resolved and labelled.
std::vector<Sample> ProbeSamples(const m2g::synth::World& world,
                                 const std::vector<RtpRequest>& requests) {
  m2g::serve::FeatureExtractor extractor(&world);
  std::vector<Sample> out;
  for (int i = 0; i < kTrainSamples && i < static_cast<int>(requests.size());
       ++i) {
    Sample s = extractor.BuildSample(requests[i]);
    AttachProbeLabels(&s);
    out.push_back(std::move(s));
  }
  return out;
}

/// Courier backlogs of 35-80 orders from the courier's own AOIs: the
/// large-n regime the offline filter (<= 20 locations) never produces.
std::vector<RtpRequest> DenseRequests(
    const m2g::synth::World& world,
    const std::vector<CourierProfile>& couriers, uint64_t seed) {
  Rng rng(Stream(seed, 4));
  // Node counts cover the range evenly in a seeded order: the cost of a
  // request grows with n^2, so freely drawn counts would make the pool's
  // cost, and every latency, swing with the seed.
  std::vector<int> sizes(kDenseRequests);
  for (int r = 0; r < kDenseRequests; ++r) {
    sizes[r] = kDenseMinNodes +
               r * (kDenseMaxNodes - kDenseMinNodes + 1) / kDenseRequests;
  }
  rng.Shuffle(&sizes);
  std::vector<RtpRequest> out;
  for (int r = 0; r < kDenseRequests; ++r) {
    RtpRequest req;
    req.courier = couriers[r % couriers.size()];
    req.query_time_min = rng.Uniform(9 * 60, 20 * 60);
    req.weather = rng.UniformInt(0, 3);
    req.weekday = rng.UniformInt(0, 6);
    const int home = req.courier.served_aois[rng.UniformInt(
        0, static_cast<int>(req.courier.served_aois.size()) - 1)];
    req.courier_pos = world.aoi(home).center;
    for (int i = 0; i < sizes[r]; ++i) {
      req.pending.push_back(
          MakeOrder(world, req.courier, 1 + i, req.query_time_min, &rng));
    }
    out.push_back(std::move(req));
  }
  return out;
}

/// kStreamCouriers couriers, each re-querying kStreamSteps times. Between
/// queries one order changes: an arrival (new, higher id, so it appends to
/// the id-sorted node order; clock and position unchanged) or a pick-up
/// of the nearest pending order, which moves the courier there and
/// advances the clock as serve::ReplayTrip does.
std::vector<RtpRequest> StreamRequests(
    const m2g::synth::World& world,
    const std::vector<CourierProfile>& couriers, uint64_t seed) {
  std::vector<RtpRequest> out(static_cast<size_t>(kStreamCouriers) *
                              kStreamSteps);
  // Each courier's backlog hovers around its own target, and the targets
  // cover 12-40 evenly in a seeded courier order, for the same reason as
  // the dense node counts: a free random walk would leave the pool's share
  // of large-n queries, and so its tail latency, to the seed. Targets stop
  // at 40 so the sessions stay inside the default byte budget (~185 MB of
  // 256 MB); a population over budget is a different regime.
  std::vector<int> targets(kStreamCouriers);
  for (int c = 0; c < kStreamCouriers; ++c) {
    targets[c] = 12 + c * 28 / (kStreamCouriers - 1);
  }
  Rng order_rng(Stream(seed, 5));
  order_rng.Shuffle(&targets);
  for (int c = 0; c < kStreamCouriers; ++c) {
    Rng rng(Stream(seed, 100 + c));
    RtpRequest req;
    req.courier = couriers[c % couriers.size()];
    // Distinct ids: sessions are keyed by courier id.
    req.courier.id = 1 + c;
    req.query_time_min = rng.Uniform(9 * 60, 18 * 60);
    req.weather = rng.UniformInt(0, 3);
    req.weekday = rng.UniformInt(0, 6);
    const int home = req.courier.served_aois[rng.UniformInt(
        0, static_cast<int>(req.courier.served_aois.size()) - 1)];
    req.courier_pos = world.aoi(home).center;
    int next_id = 1;
    for (int i = 0; i < targets[c]; ++i) {
      req.pending.push_back(
          MakeOrder(world, req.courier, next_id++, req.query_time_min, &rng));
    }
    for (int s = 0; s < kStreamSteps; ++s) {
      out[static_cast<size_t>(s) * kStreamCouriers + c] = req;
      const int n = static_cast<int>(req.pending.size());
      const bool arrival =
          n <= kStreamMinNodes ||
          (n < kStreamMaxNodes && rng.Bernoulli(n < targets[c] ? 0.7 : 0.3));
      if (arrival) {
        req.pending.push_back(MakeOrder(world, req.courier, next_id++,
                                        req.query_time_min, &rng));
        continue;
      }
      size_t nearest = 0;
      double best = 1e300;
      for (size_t i = 0; i < req.pending.size(); ++i) {
        const double m = m2g::geo::ApproxMeters(req.courier_pos,
                                                req.pending[i].pos);
        if (m < best) {
          best = m;
          nearest = i;
        }
      }
      req.courier_pos = req.pending[nearest].pos;
      req.query_time_min += best / req.courier.avg_speed_mps / 60.0 +
                            rng.Uniform(2, 5);
      req.pending.erase(req.pending.begin() + nearest);
    }
  }
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kAll[] = {
      {"city_replay", Kind::kCityReplay, false},
      {"dense_backlog", Kind::kDenseBacklog, false},
      {"courier_stream", Kind::kCourierStream, true},
      {"train_epoch", Kind::kTrainEpoch, false},
  };
  for (const WorkloadSpec& w : kAll) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

WorkloadInputs MakeInputs(Kind kind, uint64_t seed) {
  m2g::synth::BuiltWorld city = BuildCity(seed);
  WorkloadInputs in;
  in.world = std::make_unique<m2g::synth::World>(std::move(city.world));
  switch (kind) {
    case Kind::kCityReplay:
    case Kind::kTrainEpoch: {
      // Every simulated snapshot of the city, rebuilt as a live request,
      // in a seeded order that mixes couriers and times of day.
      for (const m2g::synth::Dataset* split :
           {&city.splits.train, &city.splits.val, &city.splits.test}) {
        for (const Sample& s : split->samples) {
          in.requests.push_back(m2g::serve::RequestFromSample(s));
        }
      }
      Rng rng(Stream(seed, 2));
      rng.Shuffle(&in.requests);
      in.train = PickTrainSamples(city.splits.train, seed);
      break;
    }
    case Kind::kDenseBacklog:
      in.requests = DenseRequests(*in.world, city.couriers, seed);
      in.train = ProbeSamples(*in.world, in.requests);
      break;
    case Kind::kCourierStream:
      in.requests = StreamRequests(*in.world, city.couriers, seed);
      in.train = ProbeSamples(*in.world, in.requests);
      break;
  }
  return in;
}

void AttachProbeLabels(Sample* sample) {
  const int n = sample->num_locations();
  std::vector<int> route(n);
  std::iota(route.begin(), route.end(), 0);
  std::stable_sort(route.begin(), route.end(), [&](int a, int b) {
    return sample->locations[a].deadline_min <
           sample->locations[b].deadline_min;
  });
  sample->route_label = route;
  sample->time_label_min.assign(n, 0.0);
  for (int i = 0; i < n; ++i) {
    sample->time_label_min[i] = std::max(
        1.0, sample->locations[i].deadline_min - sample->query_time_min);
  }
  sample->aoi_route_label.clear();
  sample->aoi_time_label_min.assign(sample->num_aois(), 0.0);
  std::vector<bool> seen(sample->num_aois(), false);
  for (int loc : route) {
    const int a = sample->loc_to_aoi[loc];
    if (seen[a]) continue;
    seen[a] = true;
    sample->aoi_route_label.push_back(a);
    sample->aoi_time_label_min[a] = sample->time_label_min[loc];
  }
}

uint64_t HashPrediction(const m2g::core::RtpPrediction& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](const auto& v) {
    const uint64_t size = v.size();
    h = HashBytes(&size, sizeof(size), h);
    h = HashBytes(v.data(), v.size() * sizeof(v[0]), h);
  };
  add(p.location_route);
  add(p.location_times_min);
  add(p.aoi_route);
  add(p.aoi_times_min);
  return h;
}

uint64_t HashParameters(const m2g::nn::Module& module) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const m2g::Tensor& p : module.Parameters()) {
    const m2g::Matrix& m = p.value();
    h = HashBytes(m.data(), m.size() * sizeof(float), h);
  }
  return h;
}

double EncodeFlops(const m2g::core::ModelConfig& config, int n,
                   int edge_feature_dim) {
  const double d = config.hidden_dim;
  const double nn = static_cast<double>(n) * n;
  // Embeddings: edge projection over all pairs, input projection of the
  // node+courier concatenation.
  double macs = nn * edge_feature_dim * d + n * (d + config.courier_dim) * d;
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const bool last = layer + 1 == config.num_layers;
    const double dh = last ? d : d / config.num_heads;
    const double per_head =
        4 * n * d * dh      // W1, W2, W4, W5 node products
        + 2 * n * dh        // a_v source/destination scores
        + nn * d            // a_e edge scores
        + nn * dh           // attention-weighted message sum
        + nn * d * dh       // z * W3 edge update
        + 2 * nn * dh;      // edge update combine
    macs += config.num_heads * per_head;
  }
  return 2 * macs;
}

double EncodeBytes(const m2g::core::ModelConfig& config, int n,
                   int edge_feature_dim) {
  const double d = config.hidden_dim;
  const double nn = static_cast<double>(n) * n;
  double floats = nn * edge_feature_dim + nn * d;  // edge features in, embedded
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const bool last = layer + 1 == config.num_layers;
    const double dh = last ? d : d / config.num_heads;
    // Edge and node activations read and written, plus the head weights.
    floats += 2 * (nn * d + n * d) +
              config.num_heads * (5 * d * dh + 2 * dh + d);
  }
  return 4 * floats;
}

}  // namespace perfbench
