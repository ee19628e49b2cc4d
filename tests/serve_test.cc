#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "obs/admin_server.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "obs/wide_event.h"
#include "serve/eta_service.h"
#include "serve/model_registry.h"
#include "serve/order_sorting_service.h"
#include "serve/replay.h"
#include "synth/time_model.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::serve {
namespace {

struct ServeFixture {
  synth::DataConfig data_config;
  synth::BuiltWorld built;
  std::unique_ptr<core::M2g4Rtp> model;

  ServeFixture()
      : data_config([] {
          synth::DataConfig dc;
          dc.seed = 707;
          dc.world.num_aois = 70;
          dc.world.num_districts = 3;
          dc.couriers.num_couriers = 6;
          dc.num_days = 6;
          return dc;
        }()),
        built(synth::BuildWorldAndDataset(data_config)) {
    core::ModelConfig mc;
    mc.hidden_dim = 16;
    mc.num_heads = 2;
    mc.num_layers = 1;
    mc.aoi_id_embed_dim = 4;
    mc.aoi_type_embed_dim = 2;
    mc.lstm_hidden_dim = 16;
    mc.courier_dim = 8;
    mc.pos_enc_dim = 4;
    model = std::make_unique<core::M2g4Rtp>(mc);
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.max_samples_per_epoch = 30;
    core::Trainer trainer(model.get(), tc);
    trainer.Fit(built.splits.train, built.splits.val);
  }

  RtpRequest RequestFromSample(const synth::Sample& s) const {
    RtpRequest req;
    req.courier = s.courier;
    req.courier_pos = s.courier_pos;
    req.query_time_min = s.query_time_min;
    req.weather = s.weather;
    req.weekday = s.weekday;
    for (const synth::LocationTask& task : s.locations) {
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
};

ServeFixture* Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return fixture;
}

TEST(FeatureExtractorTest, ReconstructsOfflineSampleExactly) {
  // The online feature path must produce the same sample the offline
  // snapshot pipeline produced (minus labels).
  ServeFixture* f = Fixture();
  FeatureExtractor extractor(&f->built.world);
  const synth::Sample& offline = f->built.splits.test.samples.front();
  synth::Sample online =
      extractor.BuildSample(f->RequestFromSample(offline));
  ASSERT_EQ(online.num_locations(), offline.num_locations());
  ASSERT_EQ(online.num_aois(), offline.num_aois());
  EXPECT_EQ(online.loc_to_aoi, offline.loc_to_aoi);
  EXPECT_EQ(online.aoi_node_ids, offline.aoi_node_ids);
  for (int i = 0; i < online.num_locations(); ++i) {
    EXPECT_EQ(online.locations[i].order_id, offline.locations[i].order_id);
    EXPECT_EQ(online.locations[i].aoi_type, offline.locations[i].aoi_type);
    EXPECT_NEAR(online.locations[i].dist_from_courier_m,
                offline.locations[i].dist_from_courier_m, 1e-6);
  }
  EXPECT_TRUE(online.route_label.empty());  // no labels online
}

TEST(FeatureExtractorTest, OnlineGraphMatchesOffline) {
  // An online-extracted sample builds the same multi-level graph as the
  // offline sample it was reconstructed from.
  ServeFixture* f = Fixture();
  FeatureExtractor extractor(&f->built.world);
  const synth::Sample& offline = f->built.splits.test.samples.front();
  synth::Sample online =
      extractor.BuildSample(f->RequestFromSample(offline));
  const graph::GraphConfig config;
  graph::MultiLevelGraph og = graph::BuildMultiLevelGraph(offline, config);
  graph::MultiLevelGraph ng = graph::BuildMultiLevelGraph(online, config);
  EXPECT_EQ(og.location.adjacency, ng.location.adjacency);
  EXPECT_EQ(og.aoi.adjacency, ng.aoi.adjacency);
  for (size_t i = 0; i < og.location.node_continuous.size(); ++i) {
    EXPECT_FLOAT_EQ(og.location.node_continuous[i],
                    ng.location.node_continuous[i]);
  }
}

TEST(RtpServiceTest, HandleServesJointPrediction) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  const synth::Sample& s = f->built.splits.test.samples.front();
  RtpService::Response response = service.Handle(f->RequestFromSample(s));
  EXPECT_EQ(static_cast<int>(response.prediction.location_route.size()),
            s.num_locations());
  EXPECT_EQ(service.requests_served(), 1);
}

TEST(RtpServiceTest, OnlinePredictionMatchesOfflinePrediction) {
  // The deployed path and the offline eval path must agree bit-for-bit:
  // same features, same graph, same model.
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  const synth::Sample& s = f->built.splits.test.samples.front();
  core::RtpPrediction offline = f->model->Predict(s);
  RtpService::Response online = service.Handle(f->RequestFromSample(s));
  EXPECT_EQ(online.prediction.location_route, offline.location_route);
  EXPECT_EQ(online.prediction.aoi_route, offline.aoi_route);
}

TEST(OrderSortingServiceTest, RanksEveryPendingOrderOnce) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  OrderSortingService sorting(&service);
  const synth::Sample& s = f->built.splits.test.samples.front();
  auto result = sorting.Sort(f->RequestFromSample(s));
  ASSERT_TRUE(result.ok());
  const auto& sorted = result.value();
  ASSERT_EQ(static_cast<int>(sorted.size()), s.num_locations());
  std::vector<int> ids;
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].rank, static_cast<int>(i));
    ids.push_back(sorted[i].order_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(EtaServiceTest, EtasAlignWithRouteRanks) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService eta(&service);
  const synth::Sample& s = f->built.splits.test.samples.front();
  auto etas = eta.Estimate(f->RequestFromSample(s));
  ASSERT_TRUE(etas.ok());
  ASSERT_EQ(static_cast<int>(etas.value().size()), s.num_locations());
  for (const auto& e : etas.value()) {
    EXPECT_GE(e.eta_minutes, 0.0);
    EXPECT_GE(e.stops_before, 0);
    EXPECT_LT(e.stops_before, s.num_locations());
  }
}

TEST(EtaServiceTest, NotifyFiresOnlyWithinThreshold) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService::Config config;
  config.notify_within_minutes = 15.0;
  EtaService eta(&service, config);
  const synth::Sample& s = f->built.splits.test.samples.front();
  auto etas = eta.Estimate(f->RequestFromSample(s));
  ASSERT_TRUE(etas.ok());
  for (const auto& e : etas.value()) {
    EXPECT_EQ(e.notify_user, e.eta_minutes <= 15.0);
  }
}

TEST(EtaServiceTest, EstimateOrderFindsAndRejects) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService eta(&service);
  const synth::Sample& s = f->built.splits.test.samples.front();
  RtpRequest req = f->RequestFromSample(s);
  auto found = eta.EstimateOrder(req, s.locations[0].order_id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().order_id, s.locations[0].order_id);
  auto missing = eta.EstimateOrder(req, -1234);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// Exact (bitwise) equality between two predictions: routes are integer
// vectors, times are doubles produced by identical float op sequences.
void ExpectPredictionBitwiseEq(const core::RtpPrediction& got,
                               const core::RtpPrediction& want) {
  EXPECT_EQ(got.location_route, want.location_route);
  EXPECT_EQ(got.aoi_route, want.aoi_route);
  ASSERT_EQ(got.location_times_min.size(), want.location_times_min.size());
  for (size_t i = 0; i < want.location_times_min.size(); ++i) {
    EXPECT_EQ(got.location_times_min[i], want.location_times_min[i]) << i;
  }
  ASSERT_EQ(got.aoi_times_min.size(), want.aoi_times_min.size());
  for (size_t i = 0; i < want.aoi_times_min.size(); ++i) {
    EXPECT_EQ(got.aoi_times_min[i], want.aoi_times_min[i]) << i;
  }
}

/// A fixed model served through a one-snapshot registry (the model is
/// owned by the fixture).
std::shared_ptr<const core::M2g4Rtp> Borrowed(const core::M2g4Rtp* model) {
  return std::shared_ptr<const core::M2g4Rtp>(model,
                                              [](const core::M2g4Rtp*) {});
}

TEST(RtpServiceTest, EmptyOrderListIsRejectedAndServingContinues) {
  // Requests are untrusted input: an empty order list, a NaN, infinite
  // or float-overflowing coordinate, time or courier statistic (which
  // would make every pointer score NaN), an out-of-range weather or
  // weekday code, or a duplicate order id must cost one response, not
  // the process.
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  obs::Counter& rejected =
      obs::MetricsRegistry::Global().counter("serve.rejected");
  const synth::Sample& s = f->built.splits.test.samples.front();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double huge = 1e300;  // finite, but float inf once featurized
  struct BadRequest {
    const char* field;  // must appear in the status message
    std::function<void(RtpRequest*)> spoil;
  };
  const std::vector<BadRequest> cases = {
      {"pending orders", [](RtpRequest* r) { r->pending.clear(); }},
      {"courier_pos", [&](RtpRequest* r) { r->courier_pos.lat = nan; }},
      {"query_time_min", [&](RtpRequest* r) { r->query_time_min = inf; }},
      {"pos", [&](RtpRequest* r) { r->pending.back().pos.lng = -inf; }},
      {"accept_time_min",
       [&](RtpRequest* r) { r->pending.front().accept_time_min = nan; }},
      {"deadline_min",
       [&](RtpRequest* r) { r->pending.back().deadline_min = inf; }},
      {"courier_pos", [&](RtpRequest* r) { r->courier_pos.lat = huge; }},
      {"courier_pos", [&](RtpRequest* r) { r->courier_pos.lat = 90.5; }},
      {"courier_pos", [&](RtpRequest* r) { r->courier_pos.lng = -180.5; }},
      {"query_time_min",
       [&](RtpRequest* r) { r->query_time_min = huge; }},
      {"pos", [&](RtpRequest* r) { r->pending.front().pos.lat = -91; }},
      {"deadline_min",
       [&](RtpRequest* r) { r->pending.front().deadline_min = huge; }},
      {"accept_time_min",
       [&](RtpRequest* r) { r->pending.back().accept_time_min = -huge; }},
      {"courier.avg_working_hours",
       [&](RtpRequest* r) { r->courier.avg_working_hours = nan; }},
      {"courier.avg_speed_mps",
       [&](RtpRequest* r) { r->courier.avg_speed_mps = inf; }},
      {"courier.avg_speed_mps",
       [&](RtpRequest* r) { r->courier.avg_speed_mps = huge; }},
      {"courier.attendance",
       [&](RtpRequest* r) { r->courier.attendance = -inf; }},
      {"courier.service_time_mean_min",
       [&](RtpRequest* r) { r->courier.service_time_mean_min = nan; }},
      {"weather", [](RtpRequest* r) { r->weather = -1; }},
      {"weather",
       [](RtpRequest* r) { r->weather = synth::kNumWeatherCodes; }},
      {"weekday", [](RtpRequest* r) { r->weekday = -1; }},
      {"weekday", [](RtpRequest* r) { r->weekday = 7; }},
      {"duplicate order id",
       [](RtpRequest* r) { r->pending.push_back(r->pending.front()); }},
  };
  for (const BadRequest& c : cases) {
    SCOPED_TRACE(c.field);
    RtpRequest bad = f->RequestFromSample(s);
    c.spoil(&bad);
    const uint64_t rejected_before = rejected.Value();
    RtpService::Response response = service.Handle(bad);
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(response.status.message().find(c.field), std::string::npos)
        << response.status.ToString();
    EXPECT_TRUE(response.prediction.location_route.empty());
    EXPECT_EQ(response.sample.num_locations(), 0);
    EXPECT_EQ(rejected.Value() - rejected_before, 1u);

    // The services built on Handle surface the rejection as a status.
    OrderSortingService sorting(&service);
    EtaService eta(&service);
    EXPECT_FALSE(sorting.Sort(bad).ok());
    EXPECT_FALSE(eta.Estimate(bad).ok());
    EXPECT_EQ(eta.EstimateOrder(bad, 1).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.requests_served(), 0);

  // The process keeps serving valid requests, including ones with every
  // bounded field and code at its limit.
  RtpService::Response ok = service.Handle(f->RequestFromSample(s));
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(static_cast<int>(ok.prediction.location_route.size()),
            s.num_locations());
  RtpRequest edge = f->RequestFromSample(s);
  edge.query_time_min = 1e7;
  edge.courier.avg_working_hours = 1e7;
  edge.courier.avg_speed_mps = -1e7;
  edge.courier.attendance = 1e7;
  edge.courier.service_time_mean_min = -1e7;
  edge.weather = synth::kNumWeatherCodes - 1;
  edge.weekday = 6;
  for (synth::Order& o : edge.pending) {
    o.accept_time_min = -1e7;
    o.deadline_min = 1e7;
  }
  RtpService::Response at_limit = service.Handle(edge);
  ASSERT_TRUE(at_limit.status.ok()) << at_limit.status.ToString();
  EXPECT_EQ(static_cast<int>(at_limit.prediction.location_route.size()),
            s.num_locations());
}

TEST(RtpServiceTest, UnknownAoiIdIsRejectedAndServingContinues) {
  ServeFixture* f = Fixture();
  ModelRegistry registry(Borrowed(f->model.get()));
  RtpService service(&f->built.world, &registry, ServingConfig());
  obs::Counter& rejected =
      obs::MetricsRegistry::Global().counter("serve.rejected");
  const uint64_t rejected_before = rejected.Value();
  const synth::Sample& s = f->built.splits.test.samples.front();
  const int num_aois = f->built.world.num_aois();
  std::vector<RtpRequest> requests;
  for (int bad_id : {num_aois, -1, 1 << 30}) {
    RtpRequest req = f->RequestFromSample(s);
    req.pending.back().aoi_id = bad_id;
    requests.push_back(req);
  }
  requests.push_back(f->RequestFromSample(s));

  ConcurrentReplayResult replay =
      ReplayConcurrently(service, requests, /*threads=*/2);
  EXPECT_EQ(replay.rejected, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(replay.responses[i].status.code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(replay.responses[i].prediction.location_route.empty());
  }
  EXPECT_EQ(rejected.Value() - rejected_before, 3u);
  const RtpService::Response& ok = replay.responses[3];
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(static_cast<int>(ok.prediction.location_route.size()),
            s.num_locations());
  EXPECT_EQ(service.requests_served(), 1);
}

TEST(RtpServiceConcurrencyTest, ConcurrentStressZeroSteadyStateMisses) {
  // requests_served() must equal submissions, and once each serving
  // thread's pool is warm, concurrent registry-backed Handle() calls
  // must allocate nothing new: zero pool misses across the steady phase.
  ServeFixture* f = Fixture();
  const synth::Sample& sample = f->built.splits.test.samples.front();
  const RtpRequest request = f->RequestFromSample(sample);

  ModelRegistry registry(Borrowed(f->model.get()));
  RtpService service(&f->built.world, &registry, ServingConfig());

  core::RtpPrediction want;
  {
    NoGradGuard no_grad;
    want = f->model->Predict(sample);
  }

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 12;
  std::barrier sync(kThreads + 1);
  TensorPool::ArenaCounters baseline;
  int64_t served_before = 0;
  std::vector<std::vector<RtpService::Response>> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Warm this thread's pool on the exact request it will serve.
      service.Handle(request);
      service.Handle(request);
      sync.arrive_and_wait();  // all threads warm
      sync.arrive_and_wait();  // baseline counters captured
      for (int r = 0; r < kRequestsPerThread; ++r) {
        responses[t].push_back(service.Handle(request));
      }
    });
  }
  sync.arrive_and_wait();
  baseline = RtpService::pool_counters();
  served_before = service.requests_served();
  sync.arrive_and_wait();
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(service.requests_served() - served_before,
            kThreads * kRequestsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(),
              static_cast<size_t>(kRequestsPerThread));
    for (const RtpService::Response& resp : responses[t]) {
      ExpectPredictionBitwiseEq(resp.prediction, want);
      EXPECT_EQ(resp.model_version, 1);
    }
  }
  const TensorPool::ArenaCounters after = RtpService::pool_counters();
  EXPECT_EQ(after.misses - baseline.misses, 0u);
  EXPECT_GT(after.hits, baseline.hits);
}

TEST(ModelRegistryTest, PublishBumpsVersionAndTagsResponses) {
  ServeFixture* f = Fixture();
  std::shared_ptr<const core::M2g4Rtp> initial(f->model.get(),
                                               [](const core::M2g4Rtp*) {});
  ModelRegistry registry(initial, /*initial_version=*/7);
  EXPECT_EQ(registry.version(), 7);
  EXPECT_EQ(registry.swap_count(), 0u);

  RtpService service(&f->built.world, &registry, ServingConfig());
  const synth::Sample& s = f->built.splits.test.samples.front();
  RtpService::Response before = service.Handle(f->RequestFromSample(s));
  EXPECT_EQ(before.model_version, 7);

  // Publish the same weights reloaded through Save/Load: version must
  // move, predictions must not.
  const std::string path = ::testing::TempDir() + "/serve_swap_weights.bin";
  ASSERT_TRUE(f->model->Save(path).ok());
  auto reloaded = std::make_shared<core::M2g4Rtp>(f->model->config());
  ASSERT_TRUE(reloaded->Load(path).ok());
  EXPECT_EQ(registry.Publish(reloaded), 8);
  EXPECT_EQ(registry.version(), 8);
  EXPECT_EQ(registry.swap_count(), 1u);

  RtpService::Response after = service.Handle(f->RequestFromSample(s));
  EXPECT_EQ(after.model_version, 8);
  ExpectPredictionBitwiseEq(after.prediction, before.prediction);

  // A bad weights path must leave the registry untouched.
  auto bad = registry.PublishFromFile(f->model->config(),
                                      path + ".does_not_exist");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(registry.version(), 8);
}

TEST(ModelRegistryTest, SwapUnderConcurrentLoadDropsNothing) {
  // The hot-swap safety contract: a Publish racing live concurrent traffic
  // never drops, mixes, or double-serves a request. Every response must
  // carry correct outputs and the version of a snapshot that actually
  // existed when it was served.
  ServeFixture* f = Fixture();
  const auto& samples = f->built.splits.test.samples;
  const int kDistinct = std::min<int>(4, static_cast<int>(samples.size()));
  std::vector<RtpRequest> requests;
  std::vector<core::RtpPrediction> want;
  {
    NoGradGuard no_grad;
    for (int i = 0; i < kDistinct; ++i) {
      requests.push_back(f->RequestFromSample(samples[i]));
      want.push_back(f->model->Predict(samples[i]));
    }
  }

  ModelRegistry registry(Borrowed(f->model.get()));
  RtpService service(&f->built.world, &registry, ServingConfig());
  const int64_t served_before = service.requests_served();

  // v2 = the same weights reloaded, so outputs stay deterministic while
  // the swap itself is observable through the version tags.
  const std::string path = ::testing::TempDir() + "/serve_swap_load.bin";
  ASSERT_TRUE(f->model->Save(path).ok());
  auto v2 = std::make_shared<core::M2g4Rtp>(f->model->config());
  ASSERT_TRUE(v2->Load(path).ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::barrier sync(kThreads + 1);
  std::vector<std::vector<RtpService::Response>> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kDistinct; ++i) {
          responses[t].push_back(service.Handle(requests[i]));
        }
      }
    });
  }
  sync.arrive_and_wait();
  // Mid-load publish from the main thread — the "load off-thread" path.
  registry.Publish(v2);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(registry.version(), 2);
  EXPECT_EQ(registry.swap_count(), 1u);
  EXPECT_EQ(service.requests_served() - served_before,
            kThreads * kRounds * kDistinct);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(),
              static_cast<size_t>(kRounds * kDistinct));
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kDistinct; ++i) {
        const RtpService::Response& resp = responses[t][r * kDistinct + i];
        ExpectPredictionBitwiseEq(resp.prediction, want[i]);
        EXPECT_TRUE(resp.model_version == 1 || resp.model_version == 2)
            << resp.model_version;
      }
    }
  }
  // After the swap drains, new requests are served by v2.
  RtpService::Response post = service.Handle(requests[0]);
  EXPECT_EQ(post.model_version, 2);
}

TEST(TelemetryTest, ServingExportsCoverEveryStageAndCounter) {
  // End-to-end telemetry: a concurrent replay (so the thread-pool
  // gauges exist) plus one ETA call must leave every promised serving
  // metric visible in both export formats.
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService eta(&service);
  std::vector<RtpRequest> requests;
  const auto& samples = f->built.splits.test.samples;
  for (size_t i = 0; i < samples.size() && i < 6; ++i) {
    requests.push_back(f->RequestFromSample(samples[i]));
  }
  ASSERT_FALSE(requests.empty());
  ConcurrentReplayResult replay =
      ReplayConcurrently(service, requests, /*threads=*/2);
  EXPECT_EQ(replay.responses.size(), requests.size());
  EXPECT_FALSE(eta.Estimate(requests.front()).value().empty());
  EXPECT_EQ(eta.requests_served(), 1);

  const std::string prom = obs::ExportPrometheus();
  for (const char* needle :
       {"m2g_serve_stage_feature_extract_ms_bucket",
        "m2g_serve_stage_graph_build_ms_bucket",
        "m2g_serve_stage_encode_ms_bucket",
        "m2g_serve_stage_route_decode_ms_bucket",
        "m2g_serve_stage_eta_head_ms_bucket",
        "m2g_serve_rtp_requests_total", "m2g_serve_eta_requests_total",
        "m2g_pool_arena_hits", "m2g_pool_arena_misses",
        "m2g_threadpool_queue_depth",
        "m2g_threadpool_tasks_executed_total"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
  const std::string json = obs::ExportJson();
  for (const char* needle :
       {"\"serve.request.ms\"", "\"serve.eta.estimate.ms\"", "\"p50\"",
        "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramSnapshot* request_ms =
      snap.FindHistogram("serve.request.ms");
  ASSERT_NE(request_ms, nullptr);
  // The registry is process-wide, so earlier tests may have served too.
  EXPECT_GE(request_ms->count, requests.size());
  EXPECT_LE(request_ms->Quantile(0.50), request_ms->Quantile(0.95));
  EXPECT_LE(request_ms->Quantile(0.95), request_ms->Quantile(0.99));
}

/// Minimal blocking HTTP GET against loopback (mirrors obs_test's).
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[2048];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(AdminServerUnderLoadTest, ScrapesStayValidWhileServing) {
  // The admin endpoint must answer every route correctly while 8
  // threads push requests through a registry-backed service (this test
  // runs under TSan in CI, so it is also the data-race gate for the
  // exporters racing live recording).
  ServeFixture* f = Fixture();
  obs::SetEnabled(true);

  ModelRegistry registry(Borrowed(f->model.get()));
  RtpService service(&f->built.world, &registry, ServingConfig());

  obs::AdminOptions options;
  options.extra_health_json = [&service] {
    return std::string("\"requests_served\": ") +
           std::to_string(service.requests_served());
  };
  obs::AdminServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  const auto& samples = f->built.splits.test.samples;
  constexpr int kServers = 8;
  constexpr int kRounds = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> scrape_failures{0};
  std::atomic<int> scrapes{0};
  std::thread scraper([&server, &stop, &scrape_failures, &scrapes] {
    const char* paths[] = {"/metrics", "/metrics.json", "/traces",
                           "/events", "/healthz"};
    size_t i = 0;
    // At least one full sweep of every route, then keep scraping until
    // the serving threads drain.
    while (i < 5 || !stop.load(std::memory_order_acquire)) {
      const std::string resp = HttpGet(server.port(), paths[i % 5]);
      if (resp.find(" 200 OK") == std::string::npos) {
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });
  std::vector<std::thread> servers;
  for (int t = 0; t < kServers; ++t) {
    servers.emplace_back([&, t] {
      const RtpRequest req =
          f->RequestFromSample(samples[t % samples.size()]);
      for (int r = 0; r < kRounds; ++r) service.Handle(req);
    });
  }
  for (std::thread& th : servers) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_GE(scrapes.load(), 5);
  EXPECT_EQ(server.requests_served(),
            static_cast<uint64_t>(scrapes.load()));
  EXPECT_EQ(service.requests_served(), kServers * kRounds);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(EncodeSessionTest, SessionHandleMatchesStatelessBitwise) {
  // Session-routed responses are an optimization, never a behavior
  // change: a growing-pending stream must match the stateless service
  // bitwise, request by request.
  ServeFixture* f = Fixture();
  const synth::Sample* sample = nullptr;
  for (const synth::Sample& s : f->built.splits.test.samples) {
    if (sample == nullptr || s.num_locations() > sample->num_locations()) {
      sample = &s;
    }
  }
  ASSERT_GE(sample->num_locations(), 3);

  ServingConfig config;
  config.encode_sessions.enabled = true;
  RtpService service(&f->built.world, f->model.get(), config);
  RtpService stateless(&f->built.world, f->model.get());
  ASSERT_NE(service.session_store(), nullptr);

  const RtpRequest full = f->RequestFromSample(*sample);
  for (int count = 2; count <= static_cast<int>(full.pending.size());
       ++count) {
    RtpRequest req = full;
    req.pending.resize(count);
    RtpService::Response got = service.Handle(req);
    RtpService::Response want = stateless.Handle(req);
    ExpectPredictionBitwiseEq(got.prediction, want.prediction);
  }
  EXPECT_EQ(service.session_store()->sessions(), 1u);
  EXPECT_GT(service.session_store()->bytes(), 0u);
}

TEST(EncodeSessionTest, LruEvictionHoldsByteBudget) {
  // A byte budget that fits roughly two sessions: serving many couriers
  // must keep evicting the least recently used while the most recent
  // always survives — the store never grows without bound.
  ServeFixture* f = Fixture();
  const synth::Sample& s = f->built.splits.test.samples.front();

  // Measure one session's footprint with an unbounded store first.
  size_t one_session = 0;
  {
    ServingConfig config;
    config.encode_sessions.enabled = true;
    RtpService probe(&f->built.world, f->model.get(), config);
    probe.Handle(f->RequestFromSample(s));
    one_session = probe.session_store()->bytes();
    ASSERT_GT(one_session, 0u);
  }

  ServingConfig config;
  config.encode_sessions.enabled = true;
  config.encode_sessions.byte_budget = 2 * one_session + one_session / 2;
  RtpService service(&f->built.world, f->model.get(), config);
  constexpr int kCouriers = 8;
  for (int c = 0; c < kCouriers; ++c) {
    RtpRequest req = f->RequestFromSample(s);
    req.courier.id = 1000 + c;
    service.Handle(req);
    EXPECT_LE(service.session_store()->sessions(), 3u);
  }
  const EncodeSessionStore* store = service.session_store();
  EXPECT_LT(store->sessions(), kCouriers);
  EXPECT_GE(store->sessions(), 1u);
  EXPECT_LE(store->bytes(), config.encode_sessions.byte_budget);
  // An evicted courier simply re-warms: same bits, fresh session.
  RtpRequest req = f->RequestFromSample(s);
  req.courier.id = 1000;
  RtpService::Response again = service.Handle(req);
  RtpService stateless(&f->built.world, f->model.get());
  ExpectPredictionBitwiseEq(
      again.prediction,
      stateless.Handle(req).prediction);
}

TEST(EncodeSessionTest, ConcurrentSameCourierSerializesOnSession) {
  // Many threads hammering ONE courier: the session mutex serializes the
  // delta stream (this test runs in the TSan matrix), every response
  // bitwise-matches the stateless reference, and the store holds exactly
  // one session at the end.
  ServeFixture* f = Fixture();
  const synth::Sample& s = f->built.splits.test.samples.front();
  const RtpRequest request = f->RequestFromSample(s);
  core::RtpPrediction want;
  {
    NoGradGuard no_grad;
    want = f->model->Predict(s);
  }

  ServingConfig config;
  config.encode_sessions.enabled = true;
  RtpService service(&f->built.world, f->model.get(), config);
  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        RtpService::Response resp = service.Handle(request);
        ExpectPredictionBitwiseEq(resp.prediction, want);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(service.requests_served(), kThreads * kRounds);
  EXPECT_EQ(service.session_store()->sessions(), 1u);
}

TEST(EncodeSessionTest, SnapshotHotSwapInvalidatesSessions) {
  // After a Publish, a warm session must never serve encodings cached
  // under the old weights: the next response must match the NEW model's
  // stateless prediction bitwise.
  ServeFixture* f = Fixture();
  const synth::Sample& s = f->built.splits.test.samples.front();
  const RtpRequest request = f->RequestFromSample(s);

  std::shared_ptr<const core::M2g4Rtp> initial(f->model.get(),
                                               [](const core::M2g4Rtp*) {});
  ModelRegistry registry(initial, /*initial_version=*/3);
  ServingConfig config;
  config.encode_sessions.enabled = true;
  RtpService service(&f->built.world, &registry, config);

  // Warm the session on the initial snapshot (second call delta-serves).
  RtpService::Response warm1 = service.Handle(request);
  RtpService::Response warm2 = service.Handle(request);
  EXPECT_EQ(warm1.model_version, 3);
  EXPECT_EQ(warm2.model_version, 3);
  ExpectPredictionBitwiseEq(warm2.prediction, warm1.prediction);

  // Publish genuinely different weights (fresh seed, same shape).
  core::ModelConfig other_config = f->model->config();
  other_config.seed = f->model->config().seed + 41;
  auto swapped = std::make_shared<core::M2g4Rtp>(other_config);
  EXPECT_EQ(registry.Publish(swapped), 4);

  core::RtpPrediction want;
  {
    NoGradGuard no_grad;
    want = swapped->Predict(s);
  }
  RtpService::Response after = service.Handle(request);
  EXPECT_EQ(after.model_version, 4);
  ExpectPredictionBitwiseEq(after.prediction, want);
  // And the session re-warms under the new version: still the new bits.
  RtpService::Response again = service.Handle(request);
  ExpectPredictionBitwiseEq(again.prediction, want);
}

}  // namespace
}  // namespace m2g::serve
