#include "obs/trace.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

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

/// Fixed-capacity ring of finalized trees. A mutex push is fine here:
/// one tree completes per multi-millisecond request.
struct TreeRing {
  std::mutex mu;
  std::vector<TraceTree> trees;
  size_t capacity = 64;
  size_t next = 0;
  bool wrapped = false;

  void Push(TraceTree&& tree) {
    std::lock_guard<std::mutex> lock(mu);
    if (capacity == 0) return;
    if (trees.size() < capacity) {
      trees.push_back(std::move(tree));
      next = trees.size() % capacity;
      wrapped = trees.size() == capacity && next == 0;
      return;
    }
    trees[next] = std::move(tree);
    next = (next + 1) % capacity;
    wrapped = true;
  }
};

TreeRing& Trees() {
  static TreeRing* ring = new TreeRing();
  return *ring;
}

/// In-flight traces: trace id -> spans recorded so far. Spans can arrive
/// from any thread that installed the trace's context, so the table is
/// mutex-protected; a trace lives here only for the duration of its
/// request, then moves to the tree ring at finalization. Events for
/// unknown trace ids (already finalized, or begun while obs was toggled
/// off) are dropped.
struct ActiveTraces {
  std::mutex mu;
  std::unordered_map<uint64_t, std::vector<TraceEvent>> traces;

  void Begin(uint64_t trace_id) {
    std::lock_guard<std::mutex> lock(mu);
    traces[trace_id].reserve(8);
  }

  void Append(uint64_t trace_id, const TraceEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = traces.find(trace_id);
    if (it != traces.end()) it->second.push_back(event);
  }

  std::vector<TraceEvent> Take(uint64_t trace_id) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = traces.find(trace_id);
    if (it == traces.end()) return {};
    std::vector<TraceEvent> spans = std::move(it->second);
    traces.erase(it);
    return spans;
  }
};

ActiveTraces& Active() {
  static ActiveTraces* active = new ActiveTraces();
  return *active;
}

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t (*)()> g_trace_id_source{nullptr};

thread_local TraceContext t_trace_ctx;

void SetCurrentContext(const TraceContext& ctx) { t_trace_ctx = ctx; }

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
  uint64_t (*source)() = g_trace_id_source.load(std::memory_order_relaxed);
  if (source != nullptr) return source();
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void SetTraceIdSource(uint64_t (*source)()) {
  g_trace_id_source.store(source, std::memory_order_relaxed);
}

void ResetTraceIds(uint64_t next) {
  g_trace_id_source.store(nullptr, std::memory_order_relaxed);
  g_next_trace_id.store(next == 0 ? 1 : next, std::memory_order_relaxed);
}

TraceContext CurrentTraceContext() { return t_trace_ctx; }

TraceContextScope::TraceContextScope(const TraceContext& ctx)
    : prev_(t_trace_ctx) {
  t_trace_ctx = ctx;
}

TraceContextScope::~TraceContextScope() { t_trace_ctx = prev_; }

void SetTraceTreeRingCapacity(size_t capacity) {
  TreeRing& ring = Trees();
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.capacity = capacity;
  ring.trees.clear();
  ring.trees.reserve(capacity);
  ring.next = 0;
  ring.wrapped = false;
}

std::vector<TraceTree> RecentTraceTrees() {
  TreeRing& ring = Trees();
  std::lock_guard<std::mutex> lock(ring.mu);
  std::vector<TraceTree> out;
  out.reserve(ring.trees.size());
  if (ring.wrapped) {
    out.insert(out.end(), ring.trees.begin() + ring.next,
               ring.trees.end());
    out.insert(out.end(), ring.trees.begin(),
               ring.trees.begin() + ring.next);
  } else {
    out = ring.trees;
  }
  return out;
}

void ClearTraceTrees() {
  TreeRing& ring = Trees();
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.trees.clear();
  ring.next = 0;
  ring.wrapped = false;
}

void TraceSpan::Start(const char* stage, Histogram* hist) {
  stage_ = stage;
  hist_ = hist;
  active_ = true;
  // Latch the process-start origin before reading the span clock so the
  // very first span's offset cannot come out negative.
  ProcessStart();
  const TraceContext ctx = CurrentTraceContext();
  if (ctx.active()) {
    trace_id_ = ctx.trace_id;
    parent_span_id_ = ctx.span_id;
    span_id_ = NextTraceId();
    SetCurrentContext(TraceContext{trace_id_, span_id_});
  }
  start_ = std::chrono::steady_clock::now();
}

void TraceSpan::Finish() {
  const auto end = std::chrono::steady_clock::now();
  active_ = false;
  const double duration_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  if (hist_ != nullptr) hist_->Record(duration_ms);
  if (trace_id_ == 0) return;
  TraceEvent event;
  event.stage = stage_;
  event.start_ms = MsSinceProcessStart(start_);
  event.duration_ms = duration_ms;
  event.thread_slot = internal::ThreadSlot();
  event.trace_id = trace_id_;
  event.span_id = span_id_;
  event.parent_span_id = parent_span_id_;
  // Properly nested scope: restore the parent as the thread's innermost
  // open span before handing the event to the trace table.
  SetCurrentContext(TraceContext{trace_id_, parent_span_id_});
  Active().Append(trace_id_, event);
}

RequestTrace::RequestTrace(const char* tag) {
#ifndef M2G_OBS_DISABLED
  if (!Enabled()) return;
  // A trace already owns this thread (e.g. a nested Handle under an
  // already-traced request): stay inert rather than shadow it.
  if (CurrentTraceContext().active()) return;
  active_ = true;
  event_.tag = tag;
  ctx_.trace_id = NextTraceId();
  ctx_.span_id = 0;
  prev_ = CurrentTraceContext();
  SetCurrentContext(ctx_);
  Active().Begin(ctx_.trace_id);
  start_ = std::chrono::steady_clock::now();
#else
  (void)tag;
#endif
}

RequestTrace::~RequestTrace() {
#ifndef M2G_OBS_DISABLED
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  SetCurrentContext(prev_);
  TraceTree tree;
  tree.trace_id = ctx_.trace_id;
  tree.tag = event_.tag;
  tree.spans = Active().Take(ctx_.trace_id);
  event_.trace_id = ctx_.trace_id;
  event_.total_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  for (const TraceEvent& span : tree.spans) {
    AccumulateStage(&event_, span.stage, span.duration_ms);
  }
  Trees().Push(std::move(tree));
  WideEventSink::Global().Record(event_);
#endif
}

Histogram& StageHistogram(const char* stage) {
  return MetricsRegistry::Global().latency_histogram(stage);
}

}  // namespace m2g::obs
