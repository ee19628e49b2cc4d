#ifndef M2G_OBS_TRACE_H_
#define M2G_OBS_TRACE_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/wide_event.h"

namespace m2g::obs {

/// Milliseconds since the process-wide steady-clock origin (the first
/// obs timestamp taken). Used by the admin endpoint's /healthz.
double UptimeMs();

/// Process-wide trace id allocator: a relaxed atomic counter starting at
/// 1, so ids are unique, dense, and deterministic for a deterministic
/// workload. ResetTraceIds rewinds it (tests).
uint64_t NextTraceId();
void ResetTraceIds(uint64_t next = 1);

class RequestTrace;

/// RAII stage timer: measures the enclosed scope and, on destruction,
/// records the duration into `hist` (typically the registry's latency
/// histogram for this stage name). When the thread is serving a
/// RequestTrace the span also joins that trace's span tree, and while
/// open it is the trace's innermost span, so nested spans become its
/// children. Untraced spans (training, offline eval) feed only their
/// histogram. `stage` must have static storage duration.
///
/// Cost when obs is enabled: two steady_clock reads and one histogram
/// record, plus, when traced, one append to the thread's own span vector
/// (no lock). When disabled via SetEnabled(false) the constructor is a
/// single relaxed load.
class TraceSpan {
 public:
  explicit TraceSpan(const char* stage, Histogram* hist = nullptr) {
    if (Enabled()) Start(stage, hist);
  }

  ~TraceSpan() {
    if (active_) Finish();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Start(const char* stage, Histogram* hist);
  void Finish();

  const char* stage_ = nullptr;
  Histogram* hist_ = nullptr;
  bool active_ = false;
  RequestTrace* trace_ = nullptr;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

/// RAII owner of one request-scoped trace, bound to the thread that
/// constructs it. When obs is enabled and the thread serves no trace
/// yet, the constructor allocates a trace id and makes this the thread's
/// trace, so every TraceSpan opened on the thread inside the scope lands
/// in its span vector. The destructor finalizes: sums the per-stage
/// durations into the embedded WideEvent, stamps total wall time, and
/// records the event, span tree included, through WideEventSink::Global().
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
  uint64_t trace_id() const { return event_.trace_id; }

  /// Caller-filled request facts, merged with the per-stage sums at
  /// finalization. Safe to touch even when inactive (writes are dropped).
  WideEvent& event() { return event_; }

 private:
  friend class TraceSpan;

  bool active_ = false;
  /// Innermost open span (0 at the root) and the last span id handed out.
  uint64_t open_span_id_ = 0;
  uint64_t last_span_id_ = 0;
  WideEvent event_;
  std::chrono::steady_clock::time_point start_{};
};

/// The registry latency histogram spans for `stage` record into; call
/// sites cache the result in a function-local static so the registry
/// lock is taken once per stage name per process.
Histogram& StageHistogram(const char* stage);

}  // namespace m2g::obs

#endif  // M2G_OBS_TRACE_H_
