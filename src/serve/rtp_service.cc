#include "serve/rtp_service.h"

#include <mutex>

#include "obs/trace.h"
#include "tensor/grad_mode.h"
#include "tensor/simd.h"

namespace m2g::serve {
namespace {

std::unique_ptr<EncodeSessionStore> MakeSessions(
    const ServingConfig& config) {
  if (!config.encode_sessions.enabled) return nullptr;
  return std::make_unique<EncodeSessionStore>(
      config.encode_sessions.byte_budget);
}

}  // namespace

RtpService::RtpService(const synth::World* world,
                       const core::M2g4Rtp* model,
                       const ServingConfig& config)
    : extractor_(world), sessions_(MakeSessions(config)) {
  M2G_CHECK(model != nullptr);
  // Non-owning: the caller keeps the model alive for the service's life.
  fixed_ = std::make_shared<const ModelSnapshot>(ModelSnapshot{
      std::shared_ptr<const core::M2g4Rtp>(model,
                                           [](const core::M2g4Rtp*) {}),
      /*version=*/0});
}

RtpService::RtpService(const synth::World* world,
                       const ModelRegistry* registry,
                       const ServingConfig& config)
    : extractor_(world), registry_(registry),
      sessions_(MakeSessions(config)) {
  M2G_CHECK(registry != nullptr);
}

RtpService::Response RtpService::Handle(const RtpRequest& request) const {
  static obs::Counter& requests_counter =
      obs::MetricsRegistry::Global().counter("serve.rtp.requests");
  static obs::Counter& rejected_counter =
      obs::MetricsRegistry::Global().counter("serve.rejected");
  static obs::Histogram& request_hist =
      obs::StageHistogram("serve.request.ms");
  static obs::Histogram& extract_hist =
      obs::StageHistogram("serve.stage.feature_extract.ms");

  Response response;
  // Untrusted input is checked before any work: a bad request costs one
  // response, never the process.
  response.status = extractor_.Validate(request);
  if (!response.status.ok()) {
    rejected_counter.Increment();
    return response;
  }

  // Serving never backpropagates: skip all graph construction.
  NoGradGuard no_grad;
  // The request trace owns this request's span tree and wide event; the
  // serve.request.ms span right below becomes its root. Inert when a
  // trace is already active on this thread (a nested Handle attributes
  // to the outer request) or when obs is disabled.
  obs::RequestTrace trace("rtp");
  const TensorPool::ArenaCounters pool_before =
      trace.active() ? pool_counters() : TensorPool::ArenaCounters{};
  obs::TraceSpan request_span("serve.request.ms", &request_hist);
  obs::WideEvent& event = trace.event();
  event.simd_tier = simd::TierName(simd::ActiveTier());
  // The request-scoped arena recycles every forward-pass buffer through
  // the thread-local pool — once a serving thread is warm, the
  // steady-state hot path performs zero heap allocations for tensor
  // storage.
  ArenaGuard arena;
  {
    obs::TraceSpan span("serve.stage.feature_extract.ms", &extract_hist);
    extractor_.BuildSample(request, &response.sample);
  }
  // One snapshot read per request: a concurrent Publish lands between
  // requests, and the response is tagged with the weights that served it.
  const std::shared_ptr<const ModelSnapshot> snapshot = CurrentSnapshot();
  const core::M2g4Rtp& model = *snapshot->model;
  response.model_version = snapshot->version;
  if (sessions_ == nullptr) {
    response.prediction = model.Predict(response.sample);
  } else {
    // The session mutex serializes concurrent Handle() calls for the
    // same courier; distinct couriers proceed in parallel.
    const int courier_id = request.courier.id;
    std::shared_ptr<EncodeSession> session = sessions_->Acquire(courier_id);
    size_t session_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      if (session->model_version != response.model_version) {
        // Snapshot hot-swap (or first use): cached encodings belong to
        // other weights — never serve them.
        session->state.Reset();
        session->model_version = response.model_version;
      }
      core::IncrementalResult incremental;
      response.prediction = model.PredictIncremental(
          response.sample, &session->state, &incremental);
      event.delta_encode = incremental.delta;
      session_bytes = session->state.bytes();
    }
    sessions_->Release(courier_id, session_bytes);
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  requests_counter.Increment();
  if (trace.active()) {
    event.model_version = response.model_version;
    event.num_locations = response.sample.num_locations();
    event.num_aois = response.sample.num_aois();
    event.route_length =
        static_cast<int>(response.prediction.location_route.size());
    event.beam_width = model.config().beam_width;
    const TensorPool::ArenaCounters pool_after = pool_counters();
    event.pool_hit_delta = pool_after.hits - pool_before.hits;
    event.pool_miss_delta = pool_after.misses - pool_before.misses;
  }
  return response;
}

TensorPool::ArenaCounters RtpService::pool_counters() {
  return TensorPool::AggregatedArenaCounters();
}

}  // namespace m2g::serve
