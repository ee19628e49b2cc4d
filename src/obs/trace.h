#ifndef M2G_OBS_TRACE_H_
#define M2G_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "obs/wide_event.h"

namespace m2g::obs {

/// One completed span of a request trace. `stage` points at the literal
/// passed to TraceSpan (spans must be constructed with string literals /
/// static storage).
struct TraceEvent {
  const char* stage = nullptr;
  double start_ms = 0;     // steady-clock offset from process start
  double duration_ms = 0;
  int thread_slot = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// Milliseconds since the process-wide steady-clock origin (the first
/// obs timestamp taken). Used by the admin endpoint's /healthz.
double UptimeMs();

/// A finalized request span tree: every span recorded under one trace id,
/// in completion order. Parent/child edges are encoded in the events
/// (`parent_span_id == 0` marks a root).
struct TraceTree {
  uint64_t trace_id = 0;
  std::string tag;
  std::vector<TraceEvent> spans;
};

/// Ring of recently finalized trace trees (default 64). 0 disables
/// retention; traces then only feed wide events and histograms.
void SetTraceTreeRingCapacity(size_t capacity);
std::vector<TraceTree> RecentTraceTrees();
void ClearTraceTrees();

/// RAII stage timer: measures the enclosed scope and, on destruction,
/// records the duration into `hist` (typically the registry's latency
/// histogram for this stage name). When the thread has an active
/// TraceContext the span also joins the owning trace's span tree, and
/// while open it installs itself as the thread's current context so
/// nested spans become its children. Untraced spans (training, offline
/// eval) feed only their histogram. `stage` must have static storage
/// duration.
///
/// Cost when obs is enabled: two steady_clock reads and one histogram
/// record, plus one trace-table append when traced. When disabled via
/// SetEnabled(false) the constructor is a single relaxed load; under
/// M2G_OBS_DISABLED the whole class compiles to nothing.
class TraceSpan {
 public:
  explicit TraceSpan(const char* stage, Histogram* hist = nullptr) {
#ifndef M2G_OBS_DISABLED
    if (Enabled()) Start(stage, hist);
#else
    (void)stage;
    (void)hist;
#endif
  }

  ~TraceSpan() {
#ifndef M2G_OBS_DISABLED
    if (active_) Finish();
#endif
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Start(const char* stage, Histogram* hist);
  void Finish();

  const char* stage_ = nullptr;
  Histogram* hist_ = nullptr;
  bool active_ = false;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

/// RAII owner of one request-scoped trace. When obs is enabled and no
/// trace is already active on this thread, the constructor allocates a
/// trace id and installs a TraceContext, so every TraceSpan in the scope
/// (and every span recorded under a captured copy of context() on other
/// threads) lands in this trace. The destructor finalizes: sums the
/// per-stage durations into the embedded WideEvent, stamps total wall
/// time, pushes the finished TraceTree to the tree ring, and records the
/// wide event through WideEventSink::Global().
///
/// When a trace is already active on the thread the new RequestTrace is
/// inert (inner Handle calls don't shadow an outer trace). Fields the obs
/// layer can't know (model version, level sizes, ...) are filled by the
/// caller via event() before scope exit.
class RequestTrace {
 public:
  explicit RequestTrace(const char* tag);
  ~RequestTrace();

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  bool active() const { return active_; }
  uint64_t trace_id() const { return ctx_.trace_id; }

  /// The context to capture for cross-thread span attribution (inactive
  /// context when the trace is inert).
  TraceContext context() const { return CurrentTraceContext(); }

  /// Caller-filled request facts, merged with the per-stage sums at
  /// finalization. Safe to touch even when inactive (writes are dropped).
  WideEvent& event() { return event_; }

 private:
  bool active_ = false;
  TraceContext ctx_;
  TraceContext prev_;
  WideEvent event_;
  std::chrono::steady_clock::time_point start_{};
};

/// The registry latency histogram spans for `stage` record into; call
/// sites cache the result in a function-local static so the registry
/// lock is taken once per stage name per process.
Histogram& StageHistogram(const char* stage);

}  // namespace m2g::obs

#endif  // M2G_OBS_TRACE_H_
