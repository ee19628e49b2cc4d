#include <gtest/gtest.h>

#include <cstdio>

#include "core/trainer.h"
#include "eval/comparison.h"
#include "serve/eta_service.h"
#include "serve/order_sorting_service.h"

namespace m2g {
namespace {

/// End-to-end: simulate a city, train the model, evaluate against a
/// heuristic, save weights, reload into the serving stack and answer a
/// live request. One flow through every subsystem.
TEST(IntegrationTest, FullPipelineFromSimulationToServing) {
  // 1. Simulate the world.
  synth::DataConfig dc;
  dc.seed = 909;
  dc.world.num_aois = 80;
  dc.world.num_districts = 4;
  dc.couriers.num_couriers = 8;
  dc.num_days = 8;
  synth::BuiltWorld built = synth::BuildWorldAndDataset(dc);
  ASSERT_GT(built.splits.train.size(), 50);
  ASSERT_GT(built.splits.test.size(), 10);

  // 2. Train a small-but-real model.
  core::ModelConfig mc;
  mc.hidden_dim = 16;
  mc.num_heads = 2;
  mc.num_layers = 1;
  mc.aoi_id_embed_dim = 4;
  mc.aoi_type_embed_dim = 2;
  mc.lstm_hidden_dim = 16;
  mc.courier_dim = 8;
  mc.pos_enc_dim = 4;
  core::M2g4Rtp model(mc);
  core::TrainConfig tc;
  tc.epochs = 4;
  tc.max_samples_per_epoch = 150;
  core::Trainer trainer(&model, tc);
  auto history = trainer.Fit(built.splits.train, built.splits.val);
  ASSERT_FALSE(history.empty());

  // 3. Trained model beats the naive heuristics' route quality.
  metrics::BucketedEvaluator model_eval, greedy_eval;
  auto greedy = eval::CreateModel("Distance-Greedy", {});
  for (const synth::Sample& s : built.splits.test.samples) {
    core::RtpPrediction pred = model.Predict(s);
    model_eval.AddSample(pred.location_route, s.route_label,
                         pred.location_times_min, s.time_label_min);
    core::RtpPrediction g = greedy->Predict(s);
    greedy_eval.AddSample(g.location_route, s.route_label,
                          g.location_times_min, s.time_label_min);
  }
  const auto model_all = model_eval.Get(metrics::Bucket::kAll);
  const auto greedy_all = greedy_eval.Get(metrics::Bucket::kAll);
  EXPECT_GT(model_all.krc, 0.05);  // clearly above random
  EXPECT_LT(model_all.mae, greedy_all.mae);

  // 4. Save, reload into a fresh model, serve a live request.
  const std::string path = ::testing::TempDir() + "/integration_model.bin";
  ASSERT_TRUE(model.Save(path).ok());
  core::M2g4Rtp served_model(mc);
  ASSERT_TRUE(served_model.Load(path).ok());

  serve::RtpService service(&built.world, &served_model);
  serve::OrderSortingService sorting(&service);
  serve::EtaService eta(&service);

  const synth::Sample& s = built.splits.test.samples.front();
  serve::RtpRequest request;
  request.courier = s.courier;
  request.courier_pos = s.courier_pos;
  request.query_time_min = s.query_time_min;
  request.weather = s.weather;
  request.weekday = s.weekday;
  for (const synth::LocationTask& task : s.locations) {
    synth::Order o;
    o.id = task.order_id;
    o.pos = task.pos;
    o.aoi_id = task.aoi_id;
    o.accept_time_min = task.accept_time_min;
    o.deadline_min = task.deadline_min;
    request.pending.push_back(o);
  }

  auto sorted_result = sorting.Sort(request);
  ASSERT_TRUE(sorted_result.ok());
  const auto& sorted = sorted_result.value();
  ASSERT_EQ(static_cast<int>(sorted.size()), s.num_locations());
  auto etas = eta.Estimate(request);
  ASSERT_TRUE(etas.ok());
  ASSERT_EQ(etas.value().size(), sorted.size());

  // The serving path must agree with direct offline inference of the
  // same weights.
  core::RtpPrediction direct = served_model.Predict(s);
  EXPECT_EQ(sorted.front().order_id,
            s.locations[direct.location_route.front()].order_id);
  std::remove(path.c_str());
}

/// The headline claim at miniature scale: the multi-level model's route
/// quality exceeds a single-level variant trained identically.
TEST(IntegrationTest, MultiLevelBeatsSingleLevelOnRoute) {
  synth::DataConfig dc;
  dc.seed = 910;
  dc.world.num_aois = 80;
  dc.couriers.num_couriers = 8;
  dc.num_days = 8;
  synth::DatasetSplits splits = synth::BuildDataset(dc);

  auto run = [&](bool use_aoi) {
    core::ModelConfig mc;
    mc.hidden_dim = 16;
    mc.num_heads = 2;
    mc.num_layers = 1;
    mc.aoi_id_embed_dim = 4;
    mc.aoi_type_embed_dim = 2;
    mc.lstm_hidden_dim = 16;
    mc.courier_dim = 8;
    mc.pos_enc_dim = 4;
    mc.use_aoi_level = use_aoi;
    core::M2g4Rtp model(mc);
    core::TrainConfig tc;
    tc.epochs = 4;
    tc.max_samples_per_epoch = 150;
    core::Trainer trainer(&model, tc);
    trainer.Fit(splits.train, splits.val);
    metrics::BucketedEvaluator evaluator;
    for (const synth::Sample& s : splits.test.samples) {
      core::RtpPrediction pred = model.Predict(s);
      evaluator.AddSample(pred.location_route, s.route_label,
                          pred.location_times_min, s.time_label_min);
    }
    return evaluator.Get(metrics::Bucket::kAll);
  };

  const auto multi = run(true);
  const auto single = run(false);
  // At this miniature scale we assert a soft ordering: multi-level is at
  // least competitive (within noise) and usually better; the full-scale
  // comparison is bench_fig5_ablation.
  EXPECT_GT(multi.krc, single.krc - 0.10);
}

}  // namespace
}  // namespace m2g
