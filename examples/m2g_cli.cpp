// End-to-end command-line interface over the library's public API:
//
//   m2g_cli generate --days 18 --couriers 30 --out splits.bin [--csv t.csv]
//   m2g_cli train    --data splits.bin --out weights.bin [--epochs 15]
//                    [--hidden 48] [--weight-decay 0.0] [--beam 1]
//                    [--threads 1]
//   m2g_cli eval     --data splits.bin --weights weights.bin
//   m2g_cli predict  --data splits.bin --weights weights.bin --sample 0
//   m2g_cli serve    --data splits.bin --weights weights.bin
//                    [--admin_port 0] [--threads 4]
//                    [--requests 64] [--traces_out t.json]
//                    [--events_out e.jsonl]
//
// `generate` without --out prints dataset statistics only. Every command
// also accepts --log_level=debug|info|warning|error,
// --metrics_out=FILE (telemetry snapshot; ".json" suffix selects the
// JSON exporter, anything else the Prometheus text format), and the
// observability knobs --obs_enabled / --obs_head_sample / --obs_tail_ms.
// `serve --traces_out` writes the span trees of the wide events kept in
// the event ring (the same trees /traces serves).

#include <algorithm>
#include <cstdio>

#include "common/flags.h"
#include "core/trainer.h"
#include "metrics/report.h"
#include "obs/admin_server.h"
#include "obs/export.h"
#include "obs/wide_event.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "synth/dataset_io.h"
#include "tensor/simd.h"

namespace {

using namespace m2g;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::printf(
      "usage: m2g_cli <generate|train|eval|predict|serve> [--flags]\n"
      "  generate --days N --couriers N --seed S [--out FILE] [--csv FILE]\n"
      "  train    --data FILE --out FILE [--epochs N] [--hidden N]\n"
      "           [--weight-decay X] [--lr X] [--threads N]\n"
      "  eval     --data FILE --weights FILE [--hidden N] [--beam N]\n"
      "  predict  --data FILE --weights FILE --sample I [--hidden N]\n"
      "  serve    --data FILE --weights FILE [--admin_port P]\n"
      "           [--threads N] [--requests N] [--traces_out FILE]\n"
      "           [--events_out FILE]\n"
      "common:    [--log_level debug|info|warning|error]\n"
      "           [--metrics_out FILE[.json]] [--obs_enabled BOOL]\n"
      "           [--obs_head_sample N] [--obs_tail_ms X]\n");
  return 2;
}

core::ModelConfig ConfigFromFlags(const FlagParser& flags) {
  core::ModelConfig mc;
  mc.hidden_dim = flags.GetInt("hidden", mc.hidden_dim);
  mc.lstm_hidden_dim = mc.hidden_dim;
  // Scale the discrete embedding widths down with the hidden size so
  // small --hidden values stay valid.
  mc.aoi_id_embed_dim = std::min(12, mc.hidden_dim / 4);
  mc.aoi_type_embed_dim = std::min(4, mc.hidden_dim / 8);
  mc.beam_width = flags.GetInt("beam", 1);
  mc.seed = static_cast<uint64_t>(flags.GetInt("model-seed", 42));
  return mc;
}

Result<synth::DatasetSplits> LoadData(const FlagParser& flags) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) return Status::InvalidArgument("--data is required");
  return synth::LoadSplits(path);
}

int Generate(const FlagParser& flags) {
  synth::DataConfig config;
  config.num_days = flags.GetInt("days", config.num_days);
  config.couriers.num_couriers =
      flags.GetInt("couriers", config.couriers.num_couriers);
  config.world.num_aois = flags.GetInt("aois", config.world.num_aois);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 20230707));
  std::printf("simulating %d couriers x %d days over %d AOIs ...\n",
              config.couriers.num_couriers, config.num_days,
              config.world.num_aois);
  synth::DatasetSplits splits = synth::BuildDataset(config);
  synth::Dataset all;
  for (const synth::Dataset* ds :
       {&splits.train, &splits.val, &splits.test}) {
    for (const synth::Sample& s : ds->samples) all.samples.push_back(s);
  }
  synth::DataStats stats = synth::ComputeDataStats(all);
  std::printf("%d samples (train %d / val %d / test %d); %.2f locations "
              "and %.2f AOIs per sample; mean arrival gap %.1f min\n",
              stats.num_samples, splits.train.size(), splits.val.size(),
              splits.test.size(), stats.mean_locations_per_sample,
              stats.mean_aois_per_sample,
              stats.mean_location_arrival_gap_min);
  if (flags.Has("out")) {
    const std::string out = flags.GetString("out", "");
    Status s = synth::SaveSplits(splits, out);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("splits written to %s\n", out.c_str());
  }
  if (flags.Has("csv")) {
    const std::string csv = flags.GetString("csv", "");
    Status s = synth::ExportLocationsCsv(splits.test, csv);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("test locations exported to %s\n", csv.c_str());
  }
  return 0;
}

int Train(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail("--out is required");

  core::M2g4Rtp model(ConfigFromFlags(flags));
  std::printf("training %lld parameters on %d samples ...\n",
              static_cast<long long>(model.ParameterCount()),
              data.value().train.size());
  core::TrainConfig tc;
  tc.epochs = flags.GetInt("epochs", 15);
  tc.learning_rate = static_cast<float>(flags.GetDouble("lr", 2e-3));
  tc.weight_decay =
      static_cast<float>(flags.GetDouble("weight-decay", 0.0));
  tc.verbose = flags.GetBool("verbose", true);
  // --threads 1 is the bitwise-reproducible serial trainer; N > 1 runs
  // data-parallel batches; 0 uses every core (M2G_THREADS overridable).
  tc.threads = flags.GetInt("threads", 1);
  core::Trainer trainer(&model, tc);
  trainer.Fit(data.value().train, data.value().val);
  Status s = model.Save(out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("weights written to %s\n", out.c_str());
  return 0;
}

int Eval(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  core::M2g4Rtp model(ConfigFromFlags(flags));
  Status s = model.Load(flags.GetString("weights", "weights.bin"));
  if (!s.ok()) return Fail(s.ToString());

  metrics::BucketedEvaluator evaluator;
  for (const synth::Sample& sample : data.value().test.samples) {
    core::RtpPrediction pred = model.Predict(sample);
    evaluator.AddSample(pred.location_route, sample.route_label,
                        pred.location_times_min, sample.time_label_min);
  }
  for (int b = 0; b < metrics::kNumBuckets; ++b) {
    const auto m = evaluator.Get(static_cast<metrics::Bucket>(b));
    std::printf("%-14s (%3d samples): HR@3 %6.2f | KRC %6.3f | LSD %6.2f "
                "| RMSE %6.2f | MAE %6.2f | acc@20 %6.2f\n",
                metrics::BucketName(static_cast<metrics::Bucket>(b)),
                m.samples, m.hr3, m.krc, m.lsd, m.rmse, m.mae, m.acc20);
  }
  return 0;
}

int Predict(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  core::M2g4Rtp model(ConfigFromFlags(flags));
  Status s = model.Load(flags.GetString("weights", "weights.bin"));
  if (!s.ok()) return Fail(s.ToString());
  const int index = flags.GetInt("sample", 0);
  if (index < 0 || index >= data.value().test.size()) {
    return Fail("--sample out of range");
  }
  const synth::Sample& sample = data.value().test.samples[index];
  core::RtpPrediction pred = model.Predict(sample);
  std::printf("sample %d: courier %d, %d locations in %d AOIs\n", index,
              sample.courier_id, sample.num_locations(),
              sample.num_aois());
  for (size_t step = 0; step < pred.location_route.size(); ++step) {
    const int node = pred.location_route[step];
    std::printf("  %2zu. order #%d (AOI %d)  ETA %6.1f min  actual %6.1f\n",
                step + 1, sample.locations[node].order_id,
                sample.locations[node].aoi_id,
                pred.location_times_min[node],
                sample.time_label_min[node]);
  }
  return 0;
}

int Serve(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  auto model = std::make_shared<core::M2g4Rtp>(ConfigFromFlags(flags));
  Status s = model->Load(flags.GetString("weights", "weights.bin"));
  if (!s.ok()) return Fail(s.ToString());
  if (data.value().test.size() == 0) return Fail("test split is empty");

  serve::ModelRegistry registry(model, /*initial_version=*/1);
  // Rebuild the world the dataset was generated from (splits files carry
  // samples, not the city): --seed / --aois must match the generate run.
  synth::DataConfig dconfig;
  dconfig.world.num_aois = flags.GetInt("aois", dconfig.world.num_aois);
  dconfig.seed = static_cast<uint64_t>(flags.GetInt("seed", 20230707));
  Rng seed_rng(dconfig.seed);
  Rng world_rng = seed_rng.Fork();
  const synth::World world = synth::GenerateWorld(dconfig.world, &world_rng);
  serve::RtpService service(&world, &registry, serve::ServingConfig());

  // The admin endpoint stays live for the whole replay: scrape
  // /metrics, /traces, /events, /healthz from another terminal while
  // requests flow. --admin_port=0 picks an ephemeral port (printed).
  const bool admin_requested = flags.Has("admin_port");
  obs::AdminOptions admin_options;
  admin_options.port = flags.GetInt("admin_port", 0);
  admin_options.extra_health_json = [&registry] {
    const auto snapshot = registry.Current();
    return "\"model_version\": " +
           std::to_string(snapshot != nullptr ? snapshot->version : 0) +
           ", \"swaps\": " + std::to_string(registry.swap_count()) +
           ", \"simd_tier\": \"" +
           simd::TierName(simd::ActiveTier()) + "\"";
  };
  obs::AdminServer admin(admin_options);
  if (admin_requested) {
    std::string error;
    if (!admin.Start(&error)) {
      return Fail("admin server failed to start: " + error);
    }
    std::printf("admin endpoint on http://127.0.0.1:%d "
                "(/metrics /traces /events /healthz)\n",
                admin.port());
  }

  std::vector<serve::RtpRequest> requests;
  const int total = std::max(1, flags.GetInt("requests", 64));
  requests.reserve(total);
  for (int i = 0; i < total; ++i) {
    requests.push_back(serve::RequestFromSample(
        data.value().test.samples[i % data.value().test.size()]));
  }
  const int threads = std::max(1, flags.GetInt("threads", 4));
  std::printf("serving %d requests from %d threads ...\n", total,
              threads);
  serve::ConcurrentReplayResult replay =
      serve::ReplayConcurrently(service, requests, threads);
  std::printf("%zu responses in %.2fs (%.1f req/s), %lld rejected\n",
              replay.responses.size(), replay.wall_seconds,
              replay.requests_per_second,
              static_cast<long long>(replay.rejected));
  for (const serve::RtpService::Response& response : replay.responses) {
    if (!response.status.ok()) {
      std::fprintf(stderr, "first rejection: %s\n",
                   response.status.ToString().c_str());
      break;
    }
  }

  if (flags.Has("traces_out")) {
    const std::string path = flags.GetString("traces_out", "traces.json");
    if (obs::WriteFileAtomic(path, obs::ExportTracesJson())) {
      std::printf("traces written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }
  if (flags.Has("events_out")) {
    const std::string path = flags.GetString("events_out", "events.jsonl");
    if (obs::WideEventSink::Global().WriteJsonl(path)) {
      std::printf("events written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const FlagParser& flags = parsed.value();
  if (!flags.ApplyLogLevelFlag()) {
    return Fail("unrecognized --log_level value");
  }
  flags.ApplyObsFlags();
  // Queried up front so a typo'd command still reports the flag as used.
  const std::string metrics_out = flags.GetString("metrics_out", "");
  int rc;
  if (flags.command() == "generate") {
    rc = Generate(flags);
  } else if (flags.command() == "train") {
    rc = Train(flags);
  } else if (flags.command() == "eval") {
    rc = Eval(flags);
  } else if (flags.command() == "predict") {
    rc = Predict(flags);
  } else if (flags.command() == "serve") {
    rc = Serve(flags);
  } else {
    return Usage();
  }
  if (!metrics_out.empty()) {
    if (m2g::obs::WriteMetricsFile(metrics_out)) {
      std::printf("metrics written to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write metrics to %s\n",
                   metrics_out.c_str());
    }
  }
  for (const std::string& unused : flags.UnqueriedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 unused.c_str());
  }
  return rc;
}
