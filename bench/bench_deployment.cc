// Reproduces the §VI deployment numbers: streams the held-out test days
// through the Figure 7 serving pipeline and reports the Intelligent
// Order Sorting quality (HR@3 / KRC — paper: 66.89% / 0.61) and the
// Minute-level ETA quality (RMSE / MAE — paper: 31.11 / 22.40).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/trainer.h"
#include "metrics/report.h"
#include "obs/export.h"
#include "serve/eta_service.h"
#include "serve/order_sorting_service.h"
#include "serve/replay.h"

int main() {
  using namespace m2g;
  synth::BuiltWorld built =
      synth::BuildWorldAndDataset(bench::StandardDataConfig());
  eval::EvalScale scale = bench::StandardScale();

  std::printf("=== Deployment simulation (Fig. 7 pipeline) ===\n");
  std::printf("offline training of the M2G4RTP Service model ...\n");
  core::ModelConfig mc;
  mc.seed = scale.seed;
  core::M2g4Rtp model(mc);
  core::TrainConfig tc;
  tc.epochs = scale.epochs;
  tc.max_samples_per_epoch = scale.max_samples_per_epoch;
  core::Trainer trainer(&model, tc);
  trainer.Fit(built.splits.train, built.splits.val);

  serve::RtpService service(&built.world, &model);
  serve::OrderSortingService sorting(&service);
  serve::EtaService eta(&service);

  metrics::BucketedEvaluator evaluator;
  int notifications = 0;
  int64_t orders = 0;
  for (const synth::Sample& s : built.splits.test.samples) {
    // Rebuild the live request exactly as the app would send it.
    serve::RtpRequest request = serve::RequestFromSample(s);

    auto sorted = sorting.Sort(request);
    auto etas = eta.Estimate(request);
    M2G_CHECK(sorted.ok() && etas.ok());
    // Map sorted order ids back to node indices (node order: by id).
    std::vector<int> predicted_route;
    for (const auto& so : sorted.value()) {
      predicted_route.push_back(serve::NodeIndexOfOrder(s, so.order_id));
    }
    std::vector<double> predicted_times(s.num_locations(), 0.0);
    for (const auto& e : etas.value()) {
      predicted_times[serve::NodeIndexOfOrder(s, e.order_id)] =
          e.eta_minutes;
      if (e.notify_user) ++notifications;
    }
    orders += s.num_locations();
    evaluator.AddSample(predicted_route, s.route_label, predicted_times,
                        s.time_label_min);
  }

  const auto all = evaluator.Get(metrics::Bucket::kAll);
  std::printf("\nrequests served: %lld, orders ranked: %lld, pre-arrival "
              "pushes: %d\n",
              static_cast<long long>(service.requests_served()),
              static_cast<long long>(orders), notifications);
  std::printf("\nIntelligent Order Sorting  (paper: HR@3 66.89, KRC 0.61)\n");
  std::printf("  measured: HR@3 %.2f, KRC %.3f\n", all.hr3, all.krc);
  std::printf("\nMinute-level ETA           (paper: RMSE 31.11, MAE 22.40)\n");
  std::printf("  measured: RMSE %.2f, MAE %.2f, acc@20 %.2f%%\n", all.rmse,
              all.mae, all.acc20);

  // Telemetry from the whole run (training epochs + every served
  // request), in both scrape formats.
  for (const char* path :
       {"bench_deployment_metrics.prom", "bench_deployment_metrics.json"}) {
    if (obs::WriteMetricsFile(path)) {
      std::printf("metrics snapshot written to %s\n", path);
    }
  }
  return 0;
}
