#ifndef M2G_OBS_WIDE_EVENT_H_
#define M2G_OBS_WIDE_EVENT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace m2g::obs {

/// One completed span of a request trace. `stage` points at the literal
/// passed to TraceSpan (spans must be constructed with string literals /
/// static storage). Span ids are dense within their trace, starting at
/// 1; `parent_span_id == 0` marks a root.
struct TraceEvent {
  const char* stage = nullptr;
  double start_ms = 0;     // steady-clock offset from process start
  double duration_ms = 0;
  int thread_slot = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// One structured event per served request: everything a latency or
/// drift investigation wants to slice by, denormalized into a single
/// record ("wide event" / canonical log line). Serialized as one JSON
/// object per line (JSONL) by ToJsonLine / WriteJsonl and served live by
/// the admin endpoint's /events route.
struct WideEvent {
  uint64_t trace_id = 0;
  /// Short request-class label ("rtp", "eval", ...). Escaped on output —
  /// arbitrary bytes are safe.
  std::string tag;
  int64_t model_version = 0;
  /// True when the request was served through an encode session's delta
  /// path (incremental re-encode) rather than a full graph encode.
  bool delta_encode = false;
  /// SIMD dispatch tier the tensor kernels ran at ("scalar" or
  /// "avx2"). Filled by the serving layer from simd::ActiveTier() —
  /// obs/ sits below tensor/, so the value arrives as a plain string.
  /// Constant within a process unless simd::SetTier switches it, but
  /// recorded per event so mixed fleets slice latency by tier.
  std::string simd_tier;
  int num_locations = 0;
  int num_aois = 0;
  int beam_width = 0;
  int route_length = 0;
  double total_ms = 0;
  double feature_extract_ms = 0;
  double graph_build_ms = 0;
  double encode_ms = 0;
  double decode_ms = 0;
  double eta_head_ms = 0;
  /// Process-wide tensor-pool counter movement across the request (an
  /// attribution approximation under concurrency: concurrent requests'
  /// pool traffic lands in whichever window observes it).
  uint64_t pool_hit_delta = 0;
  uint64_t pool_miss_delta = 0;
  /// The request's span tree, in completion order. Rendered by /traces
  /// (ExportTracesJson); the JSONL line leaves it out.
  std::vector<TraceEvent> spans;
};

/// Sampling and retention knobs. The defaults keep every event (head
/// sampling off at 1) — bench_obs_overhead gates that a fully-enabled
/// pipeline still costs <= 3%, so sampling is a volume knob for log
/// shipping, not a performance requirement.
struct WideEventOptions {
  /// Keep every Nth event (1 = all, 0 = none except tail). Head sampling
  /// is a deterministic modulo on the event sequence number, which
  /// Configure rewinds to 0: the first event after it is always kept.
  int head_sample_every = 1;
  /// Requests at or over this end-to-end latency are always kept, even
  /// when head sampling would drop them (tail sampling: the slow
  /// requests are the ones worth debugging).
  double tail_keep_over_ms = 250.0;
  /// Ring of recent kept events (with their span trees) served by
  /// /events and /traces.
  size_t ring_capacity = 256;
};

/// Process-wide sink for wide events: a bounded in-memory ring (for the
/// admin endpoint) plus JSONL serialization helpers. Record is gated by
/// obs::SetEnabled, like every other event path.
class WideEventSink {
 public:
  static WideEventSink& Global();

  WideEventSink() = default;
  WideEventSink(const WideEventSink&) = delete;
  WideEventSink& operator=(const WideEventSink&) = delete;

  void Configure(const WideEventOptions& options);
  WideEventOptions options() const;

  void Record(WideEvent event) {
    if (Enabled()) RecordImpl(std::move(event));
  }

  /// Kept events, oldest first (snapshot).
  std::vector<WideEvent> Recent() const;
  void Clear();

  /// Events kept / dropped by head sampling since process start (also
  /// exported as obs.wide_events.recorded / obs.wide_events.sampled_out).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }

  /// One RFC 8259 JSON object, no trailing newline.
  static std::string ToJsonLine(const WideEvent& event);

  /// Writes the recent ring as JSON lines, atomically (tmp + rename).
  bool WriteJsonl(const std::string& path) const;

 private:
  void RecordImpl(WideEvent&& event);

  mutable std::mutex mu_;
  WideEventOptions options_;
  std::vector<WideEvent> ring_;
  size_t next_ = 0;
  bool wrapped_ = false;
  uint64_t seq_ = 0;  // events offered since the last Configure
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> sampled_out_{0};
};

}  // namespace m2g::obs

#endif  // M2G_OBS_WIDE_EVENT_H_
