#ifndef M2G_BENCH_BENCH_UTIL_H_
#define M2G_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "eval/rtp_model.h"
#include "obs/export.h"
#include "synth/dataset.h"

namespace m2g::bench {

/// The standard evaluation world every bench shares: a scaled-down
/// Hangzhou (identical seed across benches so the comparison cache is
/// coherent). Size is chosen so the full 8-method comparison trains in
/// minutes on one CPU core while keeping the Figure 4 statistics.
inline synth::DataConfig StandardDataConfig() {
  synth::DataConfig config;
  config.seed = 20230707;
  return config;
}

/// Training scale, overridable for quick runs:
///   M2G_BENCH_EPOCHS       (default 15, early-stopped)
///   M2G_BENCH_MAX_SAMPLES  (default 0 = all train samples per epoch)
///   M2G_BENCH_SEEDS        (default 3: tables report mean±std)
///   M2G_BENCH_THREADS      (default 1; 0 = all cores — parallelizes the
///                           comparison grid and each trainer)
///   M2G_BENCH_FAST=1       (shorthand for 2 epochs / 150 samples / 1 seed)
inline eval::EvalScale StandardScale() {
  eval::EvalScale scale;
  if (const char* fast = std::getenv("M2G_BENCH_FAST");
      fast != nullptr && fast[0] == '1') {
    scale.epochs = 2;
    scale.max_samples_per_epoch = 150;
    scale.num_seeds = 1;
  }
  if (const char* e = std::getenv("M2G_BENCH_EPOCHS")) {
    scale.epochs = std::atoi(e);
  }
  if (const char* m = std::getenv("M2G_BENCH_MAX_SAMPLES")) {
    scale.max_samples_per_epoch = std::atoi(m);
  }
  if (const char* s = std::getenv("M2G_BENCH_SEEDS")) {
    scale.num_seeds = std::atoi(s);
  }
  if (const char* t = std::getenv("M2G_BENCH_THREADS")) {
    scale.threads = std::atoi(t);
  }
  return scale;
}

/// Cache files shared between bench binaries (Table III + IV share one
/// training run; Figure 5 has its own).
inline std::string ComparisonCachePath() { return "m2g_comparison.cache"; }
inline std::string AblationCachePath() { return "m2g_ablation.cache"; }

/// Order statistics of a sample: min, quartiles (linear interpolation
/// between closest ranks) and median.
struct Spread {
  double min = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;

  double iqr() const { return q3 - q1; }
};

inline Spread Summarize(std::vector<double> v) {
  Spread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  s.min = v.front();
  s.q1 = quantile(0.25);
  s.median = quantile(0.5);
  s.q3 = quantile(0.75);
  return s;
}

/// Paired A/B timing: per-call milliseconds of each arm over the timed
/// rounds, and the per-round ratio A/B (B's speedup over A).
struct AbTiming {
  Spread a_ms;
  Spread b_ms;
  Spread ratio;
};

/// The shared timing core of the A/B smoke gates. One untimed warm-up
/// call of each arm (free lists, caches, branch predictors), then
/// `rounds` rounds that each time a batch of calls of A and the same
/// number of calls of B back to back, alternating which arm goes first.
/// The batch is sized from the warm-up so the faster arm's share of a
/// round lasts at least `min_round_ms`: a single sub-millisecond call is
/// at the mercy of one interrupt. Each round's ratio compares two arms
/// measured moments apart, so a slow drift of the shared box (frequency,
/// neighbours) cancels in the ratio instead of landing on whichever arm
/// ran later; gate on ratio.median and read ratio.iqr() as the
/// measurement's own noise.
template <typename A, typename B>
AbTiming MeasureAb(A&& a, B&& b, int rounds, double min_round_ms = 10.0) {
  Stopwatch warm;
  a();
  const double warm_a = warm.ElapsedMillis();
  warm.Restart();
  b();
  const double warm_b = warm.ElapsedMillis();
  const double fastest = std::max(std::min(warm_a, warm_b), 1e-3);
  const int per_round = std::max(1, static_cast<int>(std::ceil(min_round_ms /
                                                               fastest)));
  const auto time_ms = [per_round](auto& fn) {
    Stopwatch watch;
    for (int i = 0; i < per_round; ++i) fn();
    return watch.ElapsedMillis() / per_round;
  };
  std::vector<double> a_ms, b_ms, ratio;
  for (int r = 0; r < rounds; ++r) {
    double ta, tb;
    if (r % 2 == 0) {
      ta = time_ms(a);
      tb = time_ms(b);
    } else {
      tb = time_ms(b);
      ta = time_ms(a);
    }
    a_ms.push_back(ta);
    b_ms.push_back(tb);
    ratio.push_back(tb > 0 ? ta / tb : 0.0);
  }
  return {Summarize(std::move(a_ms)), Summarize(std::move(b_ms)),
          Summarize(std::move(ratio))};
}

/// Minimal JSON value builder for the machine-readable `BENCH_*.json`
/// dumps CI archives as artifacts (the perf trajectory across PRs).
/// Scalars serialize eagerly; objects keep insertion order so dumps diff
/// cleanly run-to-run. Only what the benches need — no parsing, no
/// nesting limits, compact output.
class JsonValue {
 public:
  static JsonValue Object() { return JsonValue(Kind::kObject); }
  static JsonValue Array() { return JsonValue(Kind::kArray); }
  static JsonValue Number(double v) {
    // RFC 8259 has no NaN/Infinity literals; "%.10g" would emit bare
    // nan/inf and corrupt the BENCH_*.json artifact. null is the closest
    // representable value.
    if (!std::isfinite(v)) return JsonValue(Kind::kScalar, "null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return JsonValue(Kind::kScalar, buf);
  }
  static JsonValue Int(int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return JsonValue(Kind::kScalar, buf);
  }
  static JsonValue Bool(bool v) {
    return JsonValue(Kind::kScalar, v ? "true" : "false");
  }
  static JsonValue String(const std::string& s) {
    return JsonValue(Kind::kScalar, "\"" + obs::JsonEscape(s) + "\"");
  }

  /// Object member (insertion order preserved). Returns *this to chain.
  JsonValue& Set(const std::string& key, JsonValue v) {
    members_.emplace_back(key, std::move(v));
    return *this;
  }
  /// Array element.
  JsonValue& Push(JsonValue v) {
    members_.emplace_back(std::string(), std::move(v));
    return *this;
  }

  std::string Dump() const {
    if (kind_ == Kind::kScalar) return scalar_;
    std::string out(1, kind_ == Kind::kObject ? '{' : '[');
    for (size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ',';
      if (kind_ == Kind::kObject) {
        out += String(members_[i].first).Dump();
        out += ':';
      }
      out += members_[i].second.Dump();
    }
    out += kind_ == Kind::kObject ? '}' : ']';
    return out;
  }

 private:
  enum class Kind { kScalar, kObject, kArray };
  explicit JsonValue(Kind kind, std::string scalar = {})
      : kind_(kind), scalar_(std::move(scalar)) {}

  Kind kind_;
  std::string scalar_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Writes `v` to `path` (newline-terminated). Returns false on IO error.
inline bool WriteBenchJson(const std::string& path, const JsonValue& v) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string text = v.Dump();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace m2g::bench

#endif  // M2G_BENCH_BENCH_UTIL_H_
