// Observability overhead bench: serves the same request mix with event
// recording enabled vs disabled (obs::SetEnabled A/B in one binary; the
// disabled path is a strict upper bound on a compiled-out M2G_OBS_DISABLED
// build, which removes even the relaxed-load gate) and reports the
// telemetry tax on end-to-end serving latency. The enabled side runs the
// full pipeline — request-scoped trace trees, per-stage spans, and wide
// events at default (keep-everything) sampling — so the budget gates
// tracing and structured logging, not just histogram records.
//
// `--smoke` runs a reduced configuration for CI and exits nonzero when
//   * instrumented serving is more than 3% slower than uninstrumented
//     (best-of-N interleaved passes, retried to ride out scheduler noise),
//   * or the exported snapshot is missing any of the per-stage serving
//     histograms, the wide-event counters, the service request counters,
//     the tensor-pool counters or the thread-pool queue-depth gauge,
//   * or no trace trees / wide events were retained.
// It also dumps the final snapshot to m2g_metrics.prom / m2g_metrics.json
// plus sample traces.json / events.jsonl (uploaded as CI artifacts).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wide_event.h"
#include "serve/eta_service.h"
#include "serve/replay.h"
#include "serve/rtp_service.h"
#include "synth/dataset.h"

namespace {

volatile float g_sink = 0.0f;  // defeats dead-code elimination

void Sink(float v) { g_sink = g_sink + v; }

/// One timed pass: every request through the full serving path.
double TimePass(const m2g::serve::RtpService& service,
                const std::vector<m2g::serve::RtpRequest>& requests) {
  m2g::Stopwatch watch;
  for (const auto& req : requests) {
    Sink(static_cast<float>(
        service.Handle(req).prediction.location_times_min[0]));
  }
  return watch.ElapsedSeconds();
}

/// Best-of-`reps` interleaved A/B: alternating enabled/disabled passes
/// so slow drift (turbo, thermal) hits both sides equally.
struct AbResult {
  double on_seconds = 0;
  double off_seconds = 0;
  double overhead() const {
    return off_seconds > 0 ? on_seconds / off_seconds - 1.0 : 0.0;
  }
};

AbResult MeasureOverhead(const m2g::serve::RtpService& service,
                         const std::vector<m2g::serve::RtpRequest>& requests,
                         int reps) {
  AbResult r;
  r.on_seconds = 1e30;
  r.off_seconds = 1e30;
  for (int i = 0; i < reps; ++i) {
    m2g::obs::SetEnabled(true);
    r.on_seconds = std::min(r.on_seconds, TimePass(service, requests));
    m2g::obs::SetEnabled(false);
    r.off_seconds = std::min(r.off_seconds, TimePass(service, requests));
  }
  m2g::obs::SetEnabled(true);
  return r;
}

int CheckExports(const std::string& prom, const std::string& json) {
  // Every serving-path metric the telemetry layer promises. Prometheus
  // names are the mangled forms, JSON keeps the dotted registry names.
  const char* prom_needles[] = {
      "m2g_serve_stage_feature_extract_ms_bucket",
      "m2g_serve_stage_graph_build_ms_bucket",
      "m2g_serve_stage_encode_ms_bucket",
      "m2g_serve_stage_route_decode_ms_bucket",
      "m2g_serve_stage_eta_head_ms_bucket",
      "m2g_serve_request_ms_bucket",
      "m2g_serve_rtp_requests_total",
      "m2g_serve_eta_requests_total",
      "m2g_pool_arena_hits",
      "m2g_pool_arena_misses",
      "m2g_threadpool_queue_depth",
      "m2g_threadpool_tasks_executed_total",
      "m2g_obs_wide_events_recorded_total",
  };
  const char* json_needles[] = {
      "\"serve.stage.encode.ms\"", "\"serve.rtp.requests\"",
      "\"serve.eta.requests\"",    "\"pool.arena_hits\"",
      "\"threadpool.queue_depth\"", "\"p99\"",
      "\"obs.wide_events.recorded\"",
  };
  int failures = 0;
  for (const char* needle : prom_needles) {
    if (prom.find(needle) == std::string::npos) {
      std::fprintf(stderr, "FAIL: Prometheus export is missing %s\n",
                   needle);
      ++failures;
    }
  }
  for (const char* needle : json_needles) {
    if (json.find(needle) == std::string::npos) {
      std::fprintf(stderr, "FAIL: JSON export is missing %s\n", needle);
      ++failures;
    }
  }
  return failures;
}

bool WriteText(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("=== Observability overhead (telemetry on vs off) ===\n");
  m2g::synth::DataConfig dc;
  dc.num_days = smoke ? 4 : 8;
  m2g::synth::BuiltWorld built = m2g::synth::BuildWorldAndDataset(dc);
  // Untrained weights: the instrumentation cost per request does not
  // depend on the parameter values, only on the op mix.
  m2g::core::M2g4Rtp model{m2g::core::ModelConfig{}};
  m2g::serve::RtpService service(&built.world, &model);
  m2g::serve::EtaService eta(&service);

  std::vector<m2g::serve::RtpRequest> requests;
  const auto& samples = built.splits.test.samples;
  const size_t max_requests = smoke ? 16 : 64;
  for (size_t i = 0; i < samples.size() && i < max_requests; ++i) {
    requests.push_back(m2g::serve::RequestFromSample(samples[i]));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "no test requests generated\n");
    return 1;
  }

  // Populate every exported surface once: a concurrent replay (creates a
  // ThreadPool, so the queue-depth gauge and tasks counter exist), plus
  // the ETA service path.
  m2g::serve::ConcurrentReplayResult replay =
      m2g::serve::ReplayConcurrently(service, requests, /*threads=*/2);
  for (size_t i = 0; i < requests.size() && i < 4; ++i) {
    Sink(static_cast<float>(eta.Estimate(requests[i]).value().size()));
  }
  std::printf("warmup replay: %zu requests at %.0f req/s\n",
              replay.responses.size(), replay.requests_per_second);

  // Interleaved A/B with retries: a single noisy scheduling quantum can
  // fake a >3% delta on a short smoke pass, so widen the best-of window
  // before concluding the telemetry itself is slow.
  const int reps = smoke ? 5 : 10;
  AbResult ab = MeasureOverhead(service, requests, reps);
  const double budget = 0.03;
  int attempts = 1;
  while (smoke && ab.overhead() > budget && attempts < 4) {
    std::printf("overhead %.2f%% over budget, retrying (%d) ...\n",
                100.0 * ab.overhead(), attempts);
    AbResult again = MeasureOverhead(service, requests, reps);
    ab.on_seconds = std::min(ab.on_seconds, again.on_seconds);
    ab.off_seconds = std::min(ab.off_seconds, again.off_seconds);
    ++attempts;
  }

  const double per_req_us =
      1e6 * (ab.on_seconds - ab.off_seconds) / requests.size();
  std::printf("\nserving %zu requests, best of %d interleaved passes\n",
              requests.size(), reps * attempts);
  std::printf("  %-14s %12s\n", "telemetry", "seconds");
  std::printf("  %-14s %12.4f\n", "enabled", ab.on_seconds);
  std::printf("  %-14s %12.4f\n", "disabled", ab.off_seconds);
  std::printf("  overhead: %.2f%% (%.1f us/request)\n",
              100.0 * ab.overhead(), per_req_us);

  const size_t trace_trees = m2g::obs::RecentTraceTrees().size();
  const uint64_t wide_events = m2g::obs::WideEventSink::Global().recorded();

  // Final snapshot out to disk (CI uploads these as artifacts) and the
  // export completeness check.
  const std::string prom = m2g::obs::ExportPrometheus();
  const std::string json = m2g::obs::ExportJson();
  int failures = CheckExports(prom, json);
  if (!WriteText("m2g_metrics.prom", prom) ||
      !WriteText("m2g_metrics.json", json)) {
    std::fprintf(stderr, "FAIL: could not write metrics snapshots\n");
    ++failures;
  } else {
    std::printf("snapshots written to m2g_metrics.prom / m2g_metrics.json\n");
  }
  if (trace_trees == 0) {
    std::fprintf(stderr, "FAIL: no trace trees retained after serving\n");
    ++failures;
  }
  if (wide_events == 0) {
    std::fprintf(stderr, "FAIL: no wide events recorded after serving\n");
    ++failures;
  }
  // Sample trace-tree / wide-event artifacts, written atomically like
  // the live WriteMetricsFile path.
  if (!m2g::obs::WriteFileAtomic("traces.json",
                                 m2g::obs::ExportTracesJson()) ||
      !m2g::obs::WideEventSink::Global().WriteJsonl("events.jsonl")) {
    std::fprintf(stderr, "FAIL: could not write traces.json/events.jsonl\n");
    ++failures;
  } else {
    std::printf("%zu trace trees -> traces.json, %llu wide events -> "
                "events.jsonl\n",
                trace_trees,
                static_cast<unsigned long long>(wide_events));
  }

  namespace bench = m2g::bench;
  bench::JsonValue doc =
      bench::JsonValue::Object()
          .Set("bench", bench::JsonValue::String("obs_overhead"))
          .Set("mode", bench::JsonValue::String(smoke ? "smoke" : "full"))
          .Set("requests",
               bench::JsonValue::Int(static_cast<int64_t>(requests.size())))
          .Set("passes", bench::JsonValue::Int(reps * attempts))
          .Set("on_seconds", bench::JsonValue::Number(ab.on_seconds))
          .Set("off_seconds", bench::JsonValue::Number(ab.off_seconds))
          .Set("overhead", bench::JsonValue::Number(ab.overhead()))
          .Set("per_request_us", bench::JsonValue::Number(per_req_us))
          .Set("trace_trees",
               bench::JsonValue::Int(static_cast<int64_t>(trace_trees)))
          .Set("wide_events",
               bench::JsonValue::Int(static_cast<int64_t>(wide_events)))
          .Set("export_check_failures", bench::JsonValue::Int(failures));
  if (!bench::WriteBenchJson("BENCH_obs_overhead.json", doc)) ++failures;

  if (smoke) {
    if (ab.overhead() > budget) {
      std::fprintf(stderr,
                   "FAIL: telemetry overhead %.2f%% exceeds %.0f%% budget\n",
                   100.0 * ab.overhead(), 100.0 * budget);
      ++failures;
    }
    if (failures == 0) {
      std::printf("smoke OK: %.2f%% overhead, all exports present\n",
                  100.0 * ab.overhead());
    }
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
