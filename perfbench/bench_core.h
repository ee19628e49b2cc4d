// Measurement helpers of the serving-and-training benchmark: the
// percentile rule, order-independent output digests, residual
// arithmetic and the open-loop arrival schedule. Header-only and free of
// model code so perfbench_test can pin each rule directly.
#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// Samples needed beyond a reported percentile. A tail figure with fewer
/// samples past it is one or two outliers, not a distribution property.
constexpr int64_t kMinSamplesBeyond = 10;

/// Nearest-rank index (0-based) of the `pct`-th percentile in a sorted
/// sample of size n: the value at rank ceil(pct/100 * n).
inline int64_t PercentileRank(int64_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  // Guard the ceil against 990.0000000001-style float noise.
  const int64_t rank =
      static_cast<int64_t>(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<int64_t>(rank, 1, std::max<int64_t>(n, 1)) - 1;
}

/// Samples strictly above the nearest-rank percentile position.
inline int64_t SamplesBeyond(int64_t n, double pct) {
  return n <= 0 ? 0 : n - 1 - PercentileRank(n, pct);
}

/// Whether a sample of size n supports reporting its `pct`-th percentile.
inline bool TailSupported(int64_t n, double pct) {
  return SamplesBeyond(n, pct) >= kMinSamplesBeyond;
}

/// Smallest sample size that supports the `pct`-th percentile.
inline int64_t MinSamplesFor(double pct) {
  int64_t n = 1;
  while (!TailSupported(n, pct)) ++n;
  return n;
}

/// Nearest-rank percentile; NaN for an empty sample.
inline double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return std::nan("");
  const int64_t rank =
      PercentileRank(static_cast<int64_t>(values.size()), pct);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

/// Midpoint median (the mean of the two middle values for even sizes).
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

/// Time of a parent span left after subtracting its traced children: the
/// unattributed remainder. Negative when children overlap or noise
/// exceeds the gap; never clamped, so a bias stays visible.
inline double Residual(double parent, const std::vector<double>& children) {
  double sum = 0;
  for (double c : children) sum += c;
  return parent - sum;
}

/// FNV-1a over raw bytes, chained through `h`.
inline uint64_t HashBytes(const void* data, size_t size,
                          uint64_t h = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Multiset digest: the same outputs in any completion order give the
/// same digest, while dropping, duplicating or altering one changes it.
/// Each element is finalized through splitmix64 before a wrapping sum, so
/// equal elements do not cancel the way a plain XOR would.
class OrderFreeDigest {
 public:
  void Add(uint64_t element) {
    uint64_t x = element + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    sum_ += x ^ (x >> 31);
    ++count_;
  }
  void Merge(const OrderFreeDigest& other) {
    sum_ += other.sum_;
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }
  /// "<count>-<16 hex digits>", the form goldens.json stores.
  std::string Hex() const {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu-%016llx",
                  static_cast<unsigned long long>(count_),
                  static_cast<unsigned long long>(sum_));
    return buf;
  }
  bool operator==(const OrderFreeDigest& o) const {
    return sum_ == o.sum_ && count_ == o.count_;
  }

 private:
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
};

/// Open-loop arrival offsets (seconds from the start) of a Poisson process
/// at `rate_per_s` over `seconds`, deterministic in `seed`.
inline std::vector<double> PoissonOffsets(uint64_t seed, double rate_per_s,
                                          double seconds) {
  std::vector<double> offsets;
  if (rate_per_s <= 0 || seconds <= 0) return offsets;
  m2g::Rng rng(seed);
  double t = rng.Exponential(rate_per_s);
  while (t < seconds) {
    offsets.push_back(t);
    t += rng.Exponential(rate_per_s);
  }
  return offsets;
}

/// Splits samples (in arrival order) into the most equal windows, at most
/// `max_windows`, that each still support the `pct`-th percentile; returns
/// the median over windows of each window's percentile. A median of
/// several windows damps one scheduler hiccup, which would otherwise own
/// the tail of the whole run. Falls back to one window when even that is
/// short, so callers must check TailSupported on the full sample.
inline double WindowedPercentile(const std::vector<double>& samples,
                                 double pct, int max_windows) {
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t need = MinSamplesFor(pct);
  const int64_t windows =
      std::clamp<int64_t>(n / need, 1, std::max(1, max_windows));
  std::vector<double> per_window;
  for (int64_t w = 0; w < windows; ++w) {
    const int64_t begin = n * w / windows;
    const int64_t end = n * (w + 1) / windows;
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin, samples.begin() + end),
        pct));
  }
  return Median(per_window);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
