#ifndef M2G_OBS_TRACE_CONTEXT_H_
#define M2G_OBS_TRACE_CONTEXT_H_

#include <cstdint>

namespace m2g::obs {

/// Identity of the trace a thread is currently working for. Spans opened
/// while a context is installed attach themselves to `trace_id` with
/// `span_id` as their parent, so nested TraceSpan scopes form a tree
/// without any argument plumbing. `trace_id == 0` means "no trace": spans
/// then feed only their stage histograms (the training spans stay
/// untraced on purpose).
///
/// The context is plain data so it can be captured on one thread and
/// replayed on another (TraceContextScope) when a request hands work to
/// a helper thread.
struct TraceContext {
  uint64_t trace_id = 0;
  /// Innermost open span; 0 at the root, so the first span opened under a
  /// fresh context becomes the trace's root span.
  uint64_t span_id = 0;

  bool active() const { return trace_id != 0; }
};

/// Process-wide id allocator shared by trace and span ids: a relaxed
/// atomic counter starting at 1, so ids are unique, dense, and
/// deterministic for a deterministic workload. Tests inject their own
/// source with SetTraceIdSource (nullptr restores the counter) or rewind
/// the counter with ResetTraceIds.
uint64_t NextTraceId();
void SetTraceIdSource(uint64_t (*source)());
void ResetTraceIds(uint64_t next = 1);

/// This thread's installed context ({0, 0} when none).
TraceContext CurrentTraceContext();

/// RAII: installs `ctx` as this thread's current context and restores the
/// previous one on destruction, so work run on a helper thread attributes
/// to the request that owns it.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

}  // namespace m2g::obs

#endif  // M2G_OBS_TRACE_CONTEXT_H_
