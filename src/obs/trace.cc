#include "obs/trace.h"

#include <atomic>
#include <cstring>
#include <utility>

#include "obs/trace_context.h"

namespace m2g::obs {
namespace {

std::chrono::steady_clock::time_point ProcessStart() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

double MsSinceProcessStart(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - ProcessStart())
      .count();
}

std::atomic<uint64_t> g_next_trace_id{1};

/// The request trace this thread is serving; spans append to it with no
/// lock because no other thread ever sees it before it is recorded.
thread_local RequestTrace* t_trace = nullptr;

/// Adds `duration` into the WideEvent field owned by `stage`, so a
/// finalized tree and its wide event agree by construction. Stages the
/// wide event doesn't break out (cache builds nested inside decode,
/// the request root itself) are skipped — total_ms comes from the
/// RequestTrace's own wall clock.
void AccumulateStage(WideEvent* event, const char* stage,
                     double duration_ms) {
  if (std::strcmp(stage, "serve.stage.feature_extract.ms") == 0) {
    event->feature_extract_ms += duration_ms;
  } else if (std::strcmp(stage, "serve.stage.graph_build.ms") == 0) {
    event->graph_build_ms += duration_ms;
  } else if (std::strcmp(stage, "serve.stage.encode.ms") == 0) {
    event->encode_ms += duration_ms;
  } else if (std::strcmp(stage, "serve.stage.route_decode.ms") == 0) {
    event->decode_ms += duration_ms;
  } else if (std::strcmp(stage, "serve.stage.eta_head.ms") == 0) {
    event->eta_head_ms += duration_ms;
  }
}

}  // namespace

double UptimeMs() {
  return MsSinceProcessStart(std::chrono::steady_clock::now());
}

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void ResetTraceIds(uint64_t next) {
  g_next_trace_id.store(next == 0 ? 1 : next, std::memory_order_relaxed);
}

uint64_t CurrentTraceId() {
  return t_trace != nullptr ? t_trace->trace_id() : 0;
}

void TraceSpan::Start(const char* stage, Histogram* hist) {
  stage_ = stage;
  hist_ = hist;
  active_ = true;
  // Latch the process-start origin before reading the span clock so the
  // very first span's offset cannot come out negative.
  ProcessStart();
  if (t_trace != nullptr) {
    trace_ = t_trace;
    parent_span_id_ = trace_->open_span_id_;
    span_id_ = ++trace_->last_span_id_;
    trace_->open_span_id_ = span_id_;
  }
  start_ = std::chrono::steady_clock::now();
}

void TraceSpan::Finish() {
  const auto end = std::chrono::steady_clock::now();
  active_ = false;
  const double duration_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  if (hist_ != nullptr) hist_->Record(duration_ms);
  if (trace_ == nullptr) return;
  TraceEvent event;
  event.stage = stage_;
  event.start_ms = MsSinceProcessStart(start_);
  event.duration_ms = duration_ms;
  event.thread_slot = internal::ThreadSlot();
  event.span_id = span_id_;
  event.parent_span_id = parent_span_id_;
  // Properly nested scope: the parent is the innermost open span again.
  trace_->open_span_id_ = parent_span_id_;
  trace_->event_.spans.push_back(event);
}

RequestTrace::RequestTrace(const char* tag) {
  if (!Enabled()) return;
  // A trace already owns this thread (e.g. a nested Handle under an
  // already-traced request): stay inert rather than shadow it.
  if (t_trace != nullptr) return;
  active_ = true;
  event_.tag = tag;
  event_.trace_id = NextTraceId();
  event_.spans.reserve(16);
  t_trace = this;
  start_ = std::chrono::steady_clock::now();
}

RequestTrace::~RequestTrace() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  t_trace = nullptr;
  event_.total_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  for (const TraceEvent& span : event_.spans) {
    AccumulateStage(&event_, span.stage, span.duration_ms);
  }
  WideEventSink::Global().Record(std::move(event_));
}

Histogram& StageHistogram(const char* stage) {
  return MetricsRegistry::Global().latency_histogram(stage);
}

}  // namespace m2g::obs
