// Observability overhead bench: serves the same request mix with event
// recording enabled vs disabled (obs::SetEnabled A/B in one binary) and
// reports the telemetry tax on end-to-end serving latency. The enabled
// side runs the full pipeline — per-stage spans collected into each
// request's trace tree, and wide events carrying those trees at default
// (keep-everything) sampling — so the budget gates tracing and
// structured logging, not just histogram records.
//
// `--smoke` runs a reduced configuration for CI and exits nonzero when
//   * instrumented serving is more than 3% slower than uninstrumented
//     (bench::MeasureAb: interleaved enabled/disabled rounds over the
//     request mix, the overhead being the median per-round ratio
//     minus 1, printed with its IQR),
//   * or the exported snapshot is missing any of the per-stage serving
//     histograms, the wide-event counters, the service request counters,
//     the tensor-pool counters or the thread-pool queue-depth gauge,
//   * or no wide events, or none carrying a trace tree, were retained.
// It also dumps the final snapshot to m2g_metrics.prom / m2g_metrics.json
// plus sample traces.json / events.jsonl (uploaded as CI artifacts).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"
#include "serve/eta_service.h"
#include "serve/replay.h"
#include "serve/rtp_service.h"
#include "synth/dataset.h"

namespace {

volatile float g_sink = 0.0f;  // defeats dead-code elimination

void Sink(float v) { g_sink = g_sink + v; }

/// Serves the request mix round-robin, one request per call, with
/// telemetry switched `enabled`. Each arm of the A/B owns one, so both
/// arms walk the mix in lockstep.
class RequestCycle {
 public:
  RequestCycle(const m2g::serve::RtpService* service,
               const std::vector<m2g::serve::RtpRequest>* requests,
               bool enabled)
      : service_(service), requests_(requests), enabled_(enabled) {}

  void operator()() {
    m2g::obs::SetEnabled(enabled_);
    const auto& req = (*requests_)[next_];
    next_ = (next_ + 1) % requests_->size();
    Sink(static_cast<float>(
        service_->Handle(req).prediction.location_times_min[0]));
  }

 private:
  const m2g::serve::RtpService* service_;
  const std::vector<m2g::serve::RtpRequest>* requests_;
  bool enabled_;
  size_t next_ = 0;
};

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

  // Interleaved A/B: each round serves the same few requests with
  // telemetry on and off, back to back, so a frequency shift or a
  // neighbour's burst on the shared box lands on both arms of a round
  // rather than on one arm's pass. Every request of the mix is served
  // 20 times per arm.
  const int rounds = 20 * static_cast<int>(requests.size());
  RequestCycle on(&service, &requests, true);
  RequestCycle off(&service, &requests, false);
  const m2g::bench::AbTiming ab = m2g::bench::MeasureAb(
      on, off, rounds, /*min_round_ms=*/2.0);
  m2g::obs::SetEnabled(true);
  const double budget = 0.03;
  const double overhead = ab.ratio.median - 1.0;
  std::printf("\nserving %zu requests round-robin, median of %d "
              "interleaved rounds\n",
              requests.size(), rounds);
  std::printf("  %-14s %12s\n", "telemetry", "ms/request");
  std::printf("  %-14s %12.3f\n", "enabled", ab.a_ms.median);
  std::printf("  %-14s %12.3f\n", "disabled", ab.b_ms.median);
  std::printf("  overhead: %.2f%% (iqr %.2f%%)\n", 100.0 * overhead,
              100.0 * ab.ratio.iqr());

  size_t trace_trees = 0;
  for (const m2g::obs::WideEvent& e :
       m2g::obs::WideEventSink::Global().Recent()) {
    if (!e.spans.empty()) ++trace_trees;
  }
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
          .Set("rounds", bench::JsonValue::Int(rounds))
          .Set("on_ms", bench::JsonValue::Number(ab.a_ms.median))
          .Set("off_ms", bench::JsonValue::Number(ab.b_ms.median))
          .Set("overhead", bench::JsonValue::Number(overhead))
          .Set("overhead_iqr", bench::JsonValue::Number(ab.ratio.iqr()))
          .Set("trace_trees",
               bench::JsonValue::Int(static_cast<int64_t>(trace_trees)))
          .Set("wide_events",
               bench::JsonValue::Int(static_cast<int64_t>(wide_events)))
          .Set("export_check_failures", bench::JsonValue::Int(failures));
  if (!bench::WriteBenchJson("BENCH_obs_overhead.json", doc)) ++failures;

  if (smoke) {
    if (overhead > budget) {
      std::fprintf(stderr,
                   "FAIL: telemetry overhead %.2f%% exceeds %.0f%% budget\n",
                   100.0 * overhead, 100.0 * budget);
      ++failures;
    }
    if (failures == 0) {
      std::printf("smoke OK: %.2f%% overhead, all exports present\n",
                  100.0 * overhead);
    }
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
