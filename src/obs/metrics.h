#ifndef M2G_OBS_METRICS_H_
#define M2G_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace m2g::obs {

namespace internal {

/// Hot-path kill switch for *event* recording (counter increments, trace
/// spans, ring pushes). Gauges and direct Histogram::Record calls stay
/// live — they are either rare (per-epoch) or deliberate measurements
/// (the eval latency probes) that must work even when serving telemetry
/// is switched off for an A/B run.
extern std::atomic<bool> g_obs_enabled;

/// Per-metric storage is sharded by a small per-thread slot so the hot
/// path never contends: each thread writes (relaxed atomics) into its
/// own shard and readers merge all shards on demand. Threads beyond the
/// cap share the last slot — still race-free, just contended.
constexpr int kMaxShards = 64;

/// This thread's shard slot in [0, kMaxShards). Assigned on first use,
/// never reused (a dead thread's shard keeps its accumulated counts).
int ThreadSlot();

}  // namespace internal

/// Runtime switch for event recording (default on). Used by
/// bench_obs_overhead to A/B instrumented vs uninstrumented serving in
/// one binary.
void SetEnabled(bool enabled);
inline bool Enabled() {
  return internal::g_obs_enabled.load(std::memory_order_relaxed);
}

/// Monotonically increasing event count. Increment is lock-free
/// (one relaxed add on a thread-local shard); Value merges the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    if (Enabled()) IncrementImpl(delta);
  }

  uint64_t Value() const;

 private:
  void IncrementImpl(uint64_t delta);

  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[internal::kMaxShards];
};

/// Last-written instantaneous value (queue depth, epoch loss, ...).
/// A single atomic — gauge writes are rare or already serialized by the
/// caller (the thread-pool queue mutex), so sharding buys nothing.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-side merge of one histogram: per-bucket counts (bucket i counts
/// values <= bounds[i], Prometheus `le` semantics; the last entry is the
/// overflow bucket) plus count/sum/min/max for mean and quantile reads.
struct HistogramSnapshot {
  std::vector<double> bounds;    // upper bounds, ascending, +inf implied
  std::vector<uint64_t> counts;  // size bounds.size() + 1
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  double mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Quantile estimate by linear interpolation inside the bucket that
  /// holds rank q*count. The first bucket interpolates up from the
  /// observed min, the overflow bucket from the last bound to the
  /// observed max, so estimates never leave the observed range.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram. Record is lock-free after a thread's first
/// touch: one bucket search plus relaxed atomic updates on the thread's
/// own shard. Snapshot merges shards in slot order (deterministic).
/// Usable standalone (the eval latency probes) or via MetricsRegistry.
class Histogram {
 public:
  /// `bounds` must be strictly ascending upper bucket bounds.
  explicit Histogram(std::vector<double> bounds);
  ~Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Always live (not gated by SetEnabled): direct callers use this as a
  /// measurement helper, and TraceSpan already gates before recording.
  void Record(double value);

  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Shard;
  Shard& ShardForThisThread();

  std::vector<double> bounds_;
  std::atomic<Shard*> shards_[internal::kMaxShards] = {};
};

/// Latency bucket ladder in milliseconds: 1-2.5-5 steps from 1 us to
/// 10 s. Shared by every latency histogram so exports line up.
const std::vector<double>& DefaultLatencyBucketsMs();

/// Name-keyed snapshot of every registered metric, sorted by name
/// (callback gauges are folded into `gauges`). The exporters consume
/// this, never the live registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// Process-wide registry of named metrics. Lookup takes a mutex — call
/// sites cache the returned reference (function-local static); the
/// returned objects live as long as the registry and their hot paths
/// never touch the registry lock again.
///
/// Names are dot-separated, lower_snake segments: `<layer>.<what>[.ms]`
/// (e.g. "serve.stage.encode.ms"). The Prometheus exporter maps them to
/// `m2g_<name with '.'->'_'>`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds);
  /// histogram(name, DefaultLatencyBucketsMs()).
  Histogram& latency_histogram(const std::string& name);

  /// Gauge whose value is pulled at snapshot time (monitoring counters
  /// owned by another subsystem, e.g. the tensor-pool hit/miss totals).
  void AddCallbackGauge(const std::string& name,
                        std::function<double()> fn);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> callback_gauges_;
};

}  // namespace m2g::obs

#endif  // M2G_OBS_METRICS_H_
