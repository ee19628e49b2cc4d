#include "obs/wide_event.h"

#include "obs/export.h"

namespace m2g::obs {
namespace {

Counter& RecordedCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("obs.wide_events.recorded");
  return c;
}

Counter& SampledOutCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("obs.wide_events.sampled_out");
  return c;
}

}  // namespace

WideEventSink& WideEventSink::Global() {
  static WideEventSink* sink = new WideEventSink();
  return *sink;
}

void WideEventSink::Configure(const WideEventOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  ring_.clear();
  ring_.reserve(options_.ring_capacity);
  next_ = 0;
  wrapped_ = false;
  seq_ = 0;
}

WideEventOptions WideEventSink::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

void WideEventSink::RecordImpl(WideEvent&& event) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = seq_++;
  const bool head_keep =
      options_.head_sample_every > 0 &&
      seq % static_cast<uint64_t>(options_.head_sample_every) == 0;
  const bool tail_keep = event.total_ms >= options_.tail_keep_over_ms;
  if (!head_keep && !tail_keep) {
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    SampledOutCounter().Increment();
    return;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  RecordedCounter().Increment();
  if (options_.ring_capacity == 0) return;
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(event));
    next_ = ring_.size() % options_.ring_capacity;
    wrapped_ = ring_.size() == options_.ring_capacity && next_ == 0;
    return;
  }
  // The evicted event lands in `event` and is freed after the lock is
  // released.
  std::swap(ring_[next_], event);
  next_ = (next_ + 1) % options_.ring_capacity;
  wrapped_ = true;
}

std::vector<WideEvent> WideEventSink::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WideEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + next_, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + next_);
  } else {
    out = ring_;
  }
  return out;
}

void WideEventSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
}

std::string WideEventSink::ToJsonLine(const WideEvent& e) {
  std::string out = "{";
  auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ", ";
    out += '"';
    out += key;
    out += "\": ";
    out += value;
  };
  field("trace_id", JsonNum(static_cast<double>(e.trace_id)));
  field("tag", "\"" + JsonEscape(e.tag) + "\"");
  field("model_version", JsonNum(static_cast<double>(e.model_version)));
  field("delta_encode", e.delta_encode ? "true" : "false");
  field("simd_tier", "\"" + JsonEscape(e.simd_tier) + "\"");
  field("locations", JsonNum(e.num_locations));
  field("aois", JsonNum(e.num_aois));
  field("beam_width", JsonNum(e.beam_width));
  field("route_length", JsonNum(e.route_length));
  field("total_ms", JsonNum(e.total_ms));
  field("feature_extract_ms", JsonNum(e.feature_extract_ms));
  field("graph_build_ms", JsonNum(e.graph_build_ms));
  field("encode_ms", JsonNum(e.encode_ms));
  field("decode_ms", JsonNum(e.decode_ms));
  field("eta_head_ms", JsonNum(e.eta_head_ms));
  field("pool_hit_delta", JsonNum(static_cast<double>(e.pool_hit_delta)));
  field("pool_miss_delta", JsonNum(static_cast<double>(e.pool_miss_delta)));
  out += "}";
  return out;
}

bool WideEventSink::WriteJsonl(const std::string& path) const {
  std::string text;
  for (const WideEvent& e : Recent()) {
    text += ToJsonLine(e);
    text += '\n';
  }
  return WriteFileAtomic(path, text);
}

}  // namespace m2g::obs
