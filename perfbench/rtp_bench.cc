// Serving-and-training benchmark driver. One process runs one workload:
//
//   rtp_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --rate <req/s> --tail <pct> --workdir <dir>
//             [--golden key=digest ...] [--meta key=value ...] [--regen]
//
// --trace 0 measures the end-to-end metrics with the benchmark's own
// tracing off; --trace 1 is a separate run that times each layer from
// outside through its public functions. Both verify every response
// against a sequential M2g4Rtp::Predict reference and check a golden
// digest, then print one JSON result as the last stdout line. --regen
// prints fresh golden digests instead. run.py passes the per-workload
// rate, tail percentile and goldens; README.md defines every metric.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_core.h"
#include "core/encode_plan.h"
#include "core/incremental_encode.h"
#include "core/model.h"
#include "core/trainer.h"
#include "graph/features.h"
#include "graph/multi_level_graph.h"
#include "nn/optimizer.h"
#include "serve/rtp_service.h"
#include "tensor/grad_mode.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace m2g;
using Clock = std::chrono::steady_clock;

/// Worker threads never exceed this, nor the CPUs the process may use.
constexpr int kMaxWorkers = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Untimed requests each worker serves during set-up.
constexpr int kWarmPerWorker = 16;
/// Inputs and model of the golden check, independent of --seed.
constexpr uint64_t kGoldenSeed = 20230707;
constexpr uint64_t kModelSeed = 20230707;
/// Latency windows whose percentiles are medianed (WindowedPercentile).
constexpr int kLatencyWindows = 5;
/// Closed-loop windows whose throughputs are medianed.
constexpr int kThroughputWindows = 3;
/// Open-loop validity: requests whose worker was idle at their due time
/// must start within max(kLateFloorMs, kLateShareOfP50 * latency p50) at
/// p90. A generator later than that has fallen behind its schedule, and
/// the run is refused. The check reads p90, not p99: on a shared host the
/// hypervisor preempts an idle spinning worker now and then, which gives
/// the lateness a heavy 1 % tail (up to ~13 ms seen) while the generator
/// keeps pace; loadgen.late_p99_ms still reports that tail.
constexpr double kLateFloorMs = 2.0;
constexpr double kLateShareOfP50 = 0.1;
/// Traced runs follow this many couriers' streams on courier_stream, so
/// the per-courier encode states the decomposition keeps stay small.
constexpr int kTracedCouriers = 8;
/// Training batch (the Trainer default).
constexpr int kTrainBatch = 8;
/// Key of the most recent request's graph in the traced run's diff map
/// (courier ids are never negative).
constexpr int kLastRequest = -1;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return 1e3 * (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-3 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU time of the calling thread alone.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * ts.tv_sec + 1e-6 * ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Times `fn` in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return MsBetween(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A fixed set of worker threads that run one phase function at a time.
/// Kept for the whole run so thread-local tensor pools warmed during
/// set-up serve the measured phases.
class Crew {
 public:
  explicit Crew(int size) {
    for (int w = 0; w < size; ++w) {
      threads_.emplace_back([this, w] { Loop(w); });
    }
  }
  ~Crew() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(worker) on every worker and waits for all; rethrows the
  /// first exception a worker raised.
  void Run(const std::function<void(int)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    pending_ = size();
    error_ = nullptr;
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void Loop(int worker) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        fn = fn_;
      }
      std::exception_ptr error;
      try {
        (*fn)(worker);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !error_) error_ = error;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  const std::function<void(int)>* fn_ = nullptr;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double rate = 0;
  double tail = 99;
  std::string workdir = ".bench_build/perfbench";
  std::map<std::string, std::string> goldens;
  std::map<std::string, std::string> meta;
  bool regen = false;
};

bool SplitKeyValue(const std::string& s, std::string* k, std::string* v) {
  const size_t eq = s.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *k = s.substr(0, eq);
  *v = s.substr(eq + 1);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--regen") {
      args->regen = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    std::string k, v;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--rate") {
      args->rate = std::atof(value.c_str());
    } else if (flag == "--tail") {
      args->tail = std::atof(value.c_str());
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--golden" && SplitKeyValue(value, &k, &v)) {
      args->goldens[k] = v;
    } else if (flag == "--meta" && SplitKeyValue(value, &k, &v)) {
      args->meta[k] = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && args->tail > 0 &&
         args->tail < 100;
}

core::ModelConfig PaperConfig() {
  // Defaults are the paper dims: hidden 48, 4 heads, 2 GAT-e layers,
  // beam 1 (greedy, Eq. 31).
  core::ModelConfig config;
  config.seed = kModelSeed;
  return config;
}

serve::ServingConfig ServingFor(const WorkloadSpec& spec) {
  serve::ServingConfig config;
  config.encode_sessions.enabled = spec.sessions;
  return config;
}

/// Worker that owns pool index `index` under courier affinity: every
/// request of one courier goes to one worker, in index order.
int AffinityKey(const WorkloadSpec& spec, int64_t index) {
  return spec.kind == Kind::kCourierStream
             ? static_cast<int>(index % kStreamCouriers)
             : static_cast<int>(index);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Fixture {
  WorkloadInputs in;
  std::unique_ptr<core::M2g4Rtp> model;
  std::unique_ptr<serve::RtpService> service;
  std::unique_ptr<Crew> crew;
  /// train_epoch only: the trainer, its epoch, and the loaded weights
  /// every timed epoch starts from.
  std::unique_ptr<core::Trainer> trainer;
  synth::Dataset epoch;
  std::vector<Matrix> initial_params;
  double data_ms = 0;
  double load_ms = 0;
  double warmup_ms = 0;
};

std::unique_ptr<core::M2g4Rtp> LoadModel(const std::string& weights,
                                         double* load_ms) {
  auto model = std::make_unique<core::M2g4Rtp>(PaperConfig());
  Status status;
  const double ms = TimeMs([&] { status = model->Load(weights); });
  if (load_ms != nullptr) *load_ms = ms;
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: loading %s failed: %s\n",
                 weights.c_str(), status.ToString().c_str());
    std::exit(2);
  }
  return model;
}

void RestoreParams(const core::M2g4Rtp& model,
                   const std::vector<Matrix>& values) {
  std::vector<Tensor> params = model.Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = values[i];
  }
}

core::TrainConfig EpochConfig(int threads) {
  core::TrainConfig config;
  config.epochs = 1;
  config.batch_size = kTrainBatch;
  config.early_stop_patience = 0;
  config.threads = threads;
  return config;
}

/// Everything before the first timed operation: inputs, weights load,
/// service, worker threads and their warm-up.
std::unique_ptr<Fixture> Setup(const WorkloadSpec& spec, uint64_t seed,
                               int workers, const std::string& weights) {
  auto fx = std::make_unique<Fixture>();
  fx->data_ms = TimeMs([&] { fx->in = MakeInputs(spec.kind, seed); });
  fx->model = LoadModel(weights, &fx->load_ms);
  fx->service = std::make_unique<serve::RtpService>(
      fx->in.world.get(), fx->model.get(), ServingFor(spec));
  fx->crew = std::make_unique<Crew>(workers);
  fx->warmup_ms = TimeMs([&] {
    if (spec.kind == Kind::kTrainEpoch) {
      fx->trainer = std::make_unique<core::Trainer>(fx->model.get(),
                                                    EpochConfig(workers));
      fx->epoch.samples = fx->in.train;
      for (const Tensor& p : fx->model->Parameters()) {
        fx->initial_params.push_back(p.value());
      }
      fx->trainer->Fit(fx->epoch, synth::Dataset());
      RestoreParams(*fx->model, fx->initial_params);
    }
    // A stateless service warms the thread-local pools without touching
    // the measured service's sessions or counters.
    serve::RtpService warm(fx->in.world.get(), fx->model.get());
    const int pool = static_cast<int>(fx->in.requests.size());
    fx->crew->Run([&](int w) {
      for (int k = 0; k < kWarmPerWorker; ++k) {
        warm.Handle(fx->in.requests[(w + workers * k) % pool]);
      }
    });
  });
  return fx;
}

// ---------------------------------------------------------------------------
// Serving loops
// ---------------------------------------------------------------------------

struct Served {
  int64_t index = 0;  // pool index
  uint64_t hash = 0;  // HashPrediction of the response
};

struct OpenLoopResult {
  std::vector<double> latency_ms;     // due -> done, in due order
  std::vector<double> queue_wait_ms;  // due -> pick-up (0 if picked early)
  std::vector<double> late_ms;        // due -> start, when picked early
  std::vector<Served> served;
  int64_t scheduled = 0;
  int64_t completed = 0;
  uint64_t pool_misses = 0;
  /// Process CPU over the loop minus the workers' spin-waits: the CPU the
  /// program spent, not the load generator.
  double cpu_ms = 0;
};

/// Poisson arrivals at `rate` for `seconds`. Each worker takes the next
/// due request; a request is timed from its due time, so a stall also
/// charges the requests queued behind it.
OpenLoopResult OpenLoop(Fixture* fx, const serve::RtpService& service,
                        double rate, double seconds, uint64_t seed) {
  const std::vector<double> offsets = PoissonOffsets(seed, rate, seconds);
  const int64_t n = static_cast<int64_t>(offsets.size());
  const int64_t pool = static_cast<int64_t>(fx->in.requests.size());
  OpenLoopResult r;
  r.scheduled = n;
  std::vector<double> latency(n, NAN), wait(n, NAN), late(n, NAN);
  std::vector<uint64_t> hashes(n, 0);
  std::atomic<int64_t> next{0};
  const uint64_t misses_before = serve::RtpService::pool_counters().misses;
  std::vector<double> spin_ms(fx->crew->size(), 0);
  const double cpu0 = CpuMs();
  // Generous enough that a healthy run never hits it; an overloaded one
  // stops taking requests instead of running for minutes.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point give_up =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(2 * seconds + 5));
  fx->crew->Run([&](int w) {
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= n) return;
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(offsets[i]));
      const Clock::time_point pick = Clock::now();
      if (pick > give_up) return;
      // Spin rather than sleep until due: an idle virtual CPU that halts
      // can take milliseconds to wake, which would be charged to the
      // program. Workers never outnumber CPUs, so spinning steals no
      // CPU time from the requests in flight.
      if (pick < due) {
        const double spin0 = ThreadCpuMs();
        while (Clock::now() < due) {
          CpuRelax();
        }
        spin_ms[w] += ThreadCpuMs() - spin0;
      }
      const Clock::time_point start = Clock::now();
      const serve::RtpService::Response resp =
          service.Handle(fx->in.requests[i % pool]);
      const Clock::time_point done = Clock::now();
      hashes[i] = HashPrediction(resp.prediction);
      latency[i] = MsBetween(due, done);
      if (pick < due) {
        late[i] = MsBetween(due, start);
        wait[i] = 0;
      } else {
        wait[i] = MsBetween(due, pick);
      }
    }
  });
  r.cpu_ms = CpuMs() - cpu0;
  for (double ms : spin_ms) r.cpu_ms -= ms;
  r.pool_misses = serve::RtpService::pool_counters().misses - misses_before;
  for (int64_t i = 0; i < n; ++i) {
    if (std::isnan(latency[i])) continue;
    ++r.completed;
    r.latency_ms.push_back(latency[i]);
    r.queue_wait_ms.push_back(wait[i]);
    if (!std::isnan(late[i])) r.late_ms.push_back(late[i]);
    r.served.push_back({i % pool, hashes[i]});
  }
  return r;
}

struct ClosedLoopResult {
  double throughput_per_s = 0;  // median over windows
  double cpu_ms = 0;            // process CPU over the loop
  std::vector<Served> served;
  std::string window_rates;
};

/// `workers` clients sending back-to-back from pool index `base` on:
/// client w takes indices base + w, base + w + W, ..., which keeps every
/// courier's stream on one client and in order.
ClosedLoopResult ClosedLoop(Fixture* fx, int64_t base, double seconds) {
  const int workers = fx->crew->size();
  const int64_t pool = static_cast<int64_t>(fx->in.requests.size());
  std::vector<std::vector<std::pair<Clock::time_point, Served>>> per(workers);
  const double cpu0 = CpuMs();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  fx->crew->Run([&](int w) {
    for (int64_t j = 0; Clock::now() < end; ++j) {
      const int64_t index = (base + w + workers * j) % pool;
      const serve::RtpService::Response resp =
          fx->service->Handle(fx->in.requests[index]);
      per[w].push_back(
          {Clock::now(), {index, HashPrediction(resp.prediction)}});
    }
  });
  ClosedLoopResult r;
  r.cpu_ms = CpuMs() - cpu0;
  std::vector<int64_t> window_counts(kThroughputWindows, 0);
  const double window_ms = 1e3 * seconds / kThroughputWindows;
  for (const auto& list : per) {
    for (const auto& [done, served] : list) {
      r.served.push_back(served);
      const int w = static_cast<int>(MsBetween(t0, done) / window_ms);
      if (w >= 0 && w < kThroughputWindows) ++window_counts[w];
    }
  }
  std::vector<double> rates;
  for (int64_t c : window_counts) rates.push_back(c / (window_ms / 1e3));
  r.throughput_per_s = Median(rates);
  for (double x : rates) {
    r.window_rates += (r.window_rates.empty() ? "" : ",") + JsonNumber(x);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Reference hash per pool index, from a plain sequential Predict on the
/// fixture's model (computed on the crew for speed; each call is the
/// single-request reference path).
std::unordered_map<int64_t, uint64_t> ReferenceHashes(
    Fixture* fx, const std::vector<Served>& served) {
  std::vector<int64_t> indices;
  {
    std::vector<bool> seen(fx->in.requests.size(), false);
    for (const Served& s : served) {
      if (!seen[s.index]) {
        seen[s.index] = true;
        indices.push_back(s.index);
      }
    }
  }
  std::vector<uint64_t> hashes(indices.size());
  serve::FeatureExtractor extractor(fx->in.world.get());
  const int workers = fx->crew->size();
  fx->crew->Run([&](int w) {
    NoGradGuard no_grad;
    for (size_t k = w; k < indices.size(); k += workers) {
      ArenaGuard arena;
      const synth::Sample sample =
          extractor.BuildSample(fx->in.requests[indices[k]]);
      hashes[k] = HashPrediction(fx->model->Predict(sample));
    }
  });
  std::unordered_map<int64_t, uint64_t> out;
  for (size_t k = 0; k < indices.size(); ++k) out[indices[k]] = hashes[k];
  return out;
}

struct Verdict {
  int64_t attempted = 0;
  int64_t failed = 0;
  OrderFreeDigest served_digest;
  OrderFreeDigest reference_digest;
};

void VerifyServed(Fixture* fx, const std::vector<Served>& served,
                  Verdict* verdict) {
  const std::unordered_map<int64_t, uint64_t> ref =
      ReferenceHashes(fx, served);
  for (const Served& s : served) {
    const uint64_t want = ref.at(s.index);
    verdict->served_digest.Add(s.hash);
    verdict->reference_digest.Add(want);
    if (s.hash != want) ++verdict->failed;
  }
}

/// Golden requests: a fixed prefix of the golden-seed pool. On
/// courier_stream, the first 16 queries of couriers 0-3, so the digest
/// covers delta-encoded responses too.
std::vector<int64_t> GoldenIndices(const WorkloadSpec& spec) {
  std::vector<int64_t> out;
  switch (spec.kind) {
    case Kind::kDenseBacklog:
      for (int64_t i = 0; i < 32; ++i) out.push_back(i);
      break;
    case Kind::kCourierStream:
      for (int64_t s = 0; s < 16; ++s) {
        for (int64_t c = 0; c < 4; ++c) out.push_back(s * kStreamCouriers + c);
      }
      break;
    case Kind::kCityReplay:
    case Kind::kTrainEpoch:
      for (int64_t i = 0; i < 64; ++i) out.push_back(i);
      break;
  }
  return out;
}

/// Serves the golden requests concurrently through a fresh service of the
/// workload's configuration and digests the outputs (completion order
/// does not matter).
OrderFreeDigest GoldenServingDigest(const WorkloadSpec& spec, Crew* crew,
                                    const core::M2g4Rtp& model) {
  const WorkloadInputs golden = MakeInputs(spec.kind, kGoldenSeed);
  serve::RtpService service(golden.world.get(), &model, ServingFor(spec));
  const std::vector<int64_t> indices = GoldenIndices(spec);
  std::vector<OrderFreeDigest> per(crew->size());
  crew->Run([&](int w) {
    for (int64_t index : indices) {
      if (AffinityKey(spec, index) % crew->size() != w) continue;
      per[w].Add(HashPrediction(
          service.Handle(golden.requests[index]).prediction));
    }
  });
  OrderFreeDigest digest;
  for (const OrderFreeDigest& d : per) digest.Merge(d);
  return digest;
}

/// Weights after one Fit epoch on the golden-seed samples at `threads`.
std::string GoldenWeightsDigest(const std::string& weights, int threads) {
  const WorkloadInputs golden = MakeInputs(Kind::kTrainEpoch, kGoldenSeed);
  std::unique_ptr<core::M2g4Rtp> model = LoadModel(weights, nullptr);
  core::Trainer trainer(model.get(), EpochConfig(threads));
  synth::Dataset epoch;
  epoch.samples = golden.train;
  trainer.Fit(epoch, synth::Dataset());
  OrderFreeDigest d;
  d.Add(HashParameters(*model));
  return d.Hex();
}

// ---------------------------------------------------------------------------
// End-to-end runs (--trace 0)
// ---------------------------------------------------------------------------

struct RunState {
  Verdict verdict;
  bool valid = true;
  std::string invalid_reason;
  std::map<std::string, std::string> meta;
  void Invalidate(const std::string& why) {
    valid = false;
    if (!invalid_reason.empty()) invalid_reason += "; ";
    invalid_reason += why;
  }
};

uint64_t LoadgenSeed(uint64_t seed) { return seed * 1000003ULL + 77; }

/// Open-loop length: a share of the run, stretched if needed so the tail
/// percentile has kMinSamplesBeyond samples past it.
double OpenLoopSeconds(const Args& args, double share) {
  const double need = 1.2 * MinSamplesFor(args.tail) / args.rate;
  return std::max(share * args.seconds, need);
}

void CheckOpenLoop(const Args& args, const OpenLoopResult& ol, RunState* st) {
  if (ol.completed < ol.scheduled) {
    st->Invalidate("open loop fell behind: " + std::to_string(ol.completed) +
                   " of " + std::to_string(ol.scheduled) + " served");
  }
  if (!TailSupported(static_cast<int64_t>(ol.latency_ms.size()), args.tail)) {
    st->Invalidate("too few open-loop samples for the tail percentile");
  }
  auto late = [&](double pct) {
    return ol.late_ms.empty() ? 0 : Percentile(ol.late_ms, pct);
  };
  const double limit = std::max(
      kLateFloorMs, kLateShareOfP50 * Percentile(ol.latency_ms, 50));
  st->meta["loadgen_late_p50_ms"] = JsonNumber(late(50));
  st->meta["loadgen_late_p90_ms"] = JsonNumber(late(90));
  st->meta["loadgen_late_p99_ms"] = JsonNumber(late(99));
  st->meta["loadgen_late_limit_ms"] = JsonNumber(limit);
  st->meta["loadgen_late_samples"] = std::to_string(ol.late_ms.size());
  if (late(90) > limit) {
    st->Invalidate("generator late p90 " + JsonNumber(late(90)) +
                   " ms exceeds " + JsonNumber(limit) + " ms");
  }
}

void ServingEndToEnd(const Args& args, Fixture* fx, Report* report,
                     RunState* st) {
  const double open_s = OpenLoopSeconds(args, 0.75);
  OpenLoopResult ol = OpenLoop(fx, *fx->service, args.rate, open_s,
                               LoadgenSeed(args.seed));
  CheckOpenLoop(args, ol, st);
  // Continue every courier's stream where the open loop left it.
  const int64_t base =
      (ol.scheduled + kStreamCouriers - 1) / kStreamCouriers *
      kStreamCouriers;
  ClosedLoopResult cl = ClosedLoop(fx, base, 0.25 * args.seconds);

  report->Add("latency_p50_ms",
              WindowedPercentile(ol.latency_ms, 50, kLatencyWindows), "ms");
  report->Add("latency_tail_ms",
              WindowedPercentile(ol.latency_ms, args.tail, kLatencyWindows),
              "ms");
  report->Add("throughput_per_s", cl.throughput_per_s, "1/s");
  // CPU per request at the offered load, over the open loop's 75 % of the
  // run. The closed loop's figure is kept as metadata only: its clients
  // at saturation contend for memory bandwidth with each other and with
  // the host's other tenants, which made it swing about twice as much
  // between runs.
  report->Add("cpu_ms_per_op", ol.cpu_ms / ol.completed, "ms");
  st->meta["closed_loop_cpu_ms_per_op"] =
      JsonNumber(cl.cpu_ms / cl.served.size());
  st->meta["open_loop_samples"] = std::to_string(ol.latency_ms.size());
  st->meta["closed_loop_requests"] = std::to_string(cl.served.size());
  st->meta["closed_loop_window_rates"] = "[" + cl.window_rates + "]";

  st->verdict.attempted +=
      ol.scheduled + static_cast<int64_t>(cl.served.size());
  st->verdict.failed += ol.scheduled - ol.completed;
  std::vector<Served> all = std::move(ol.served);
  all.insert(all.end(), cl.served.begin(), cl.served.end());
  VerifyServed(fx, all, &st->verdict);
}

void TrainEndToEnd(const Args& args, Fixture* fx, Report* report,
                   RunState* st) {
  const int64_t need = MinSamplesFor(args.tail);
  std::vector<double> epoch_ms;
  uint64_t first_hash = 0;
  int64_t failed = 0;
  const double cpu0 = CpuMs();
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    const double elapsed_s = MsBetween(t0, Clock::now()) / 1e3;
    const bool enough = static_cast<int64_t>(epoch_ms.size()) >= need;
    if ((elapsed_s >= args.seconds && enough) ||
        elapsed_s >= 3 * args.seconds) {
      break;
    }
    RestoreParams(*fx->model, fx->initial_params);
    epoch_ms.push_back(
        TimeMs([&] { fx->trainer->Fit(fx->epoch, synth::Dataset()); }));
    // Every epoch starts from the same weights, so every epoch must end
    // on the same bytes (fixed-seed, fixed-thread-count training).
    const uint64_t h = HashParameters(*fx->model);
    if (epoch_ms.size() == 1) first_hash = h;
    if (h != first_hash) failed += fx->epoch.size();
  }
  const double cpu_ms = CpuMs() - cpu0;
  RestoreParams(*fx->model, fx->initial_params);
  if (!TailSupported(static_cast<int64_t>(epoch_ms.size()), args.tail)) {
    st->Invalidate("too few epochs for the tail percentile");
  }
  const double samples =
      static_cast<double>(epoch_ms.size()) * fx->epoch.size();
  // Samples per second of each window of consecutive epochs, medianed
  // like the serving throughput.
  std::vector<double> rates;
  const size_t windows = std::min<size_t>(kLatencyWindows, epoch_ms.size());
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = epoch_ms.size() * w / windows;
    const size_t end = epoch_ms.size() * (w + 1) / windows;
    double ms = 0;
    for (size_t k = begin; k < end; ++k) ms += epoch_ms[k];
    rates.push_back((end - begin) * fx->epoch.size() / (ms / 1e3));
  }
  report->Add("latency_p50_ms",
              WindowedPercentile(epoch_ms, 50, kLatencyWindows), "ms");
  report->Add("latency_tail_ms",
              WindowedPercentile(epoch_ms, args.tail, kLatencyWindows), "ms");
  report->Add("throughput_per_s", Median(rates), "1/s");
  report->Add("cpu_ms_per_op", cpu_ms / samples, "ms");
  st->meta["epochs"] = std::to_string(epoch_ms.size());
  st->meta["epoch_weights"] = [&] {
    OrderFreeDigest d;
    d.Add(first_hash);
    return JsonString(d.Hex());
  }();
  st->verdict.attempted += static_cast<int64_t>(samples);
  st->verdict.failed += failed;
}

// ---------------------------------------------------------------------------
// Traced runs (--trace 1)
// ---------------------------------------------------------------------------

/// One benchmark span: a timed call into a layer for one operation.
struct Span {
  int64_t op;
  const char* name;
  double start_ms;  // since the traced phase began
  double dur_ms;
};

/// Spans kept in memory and written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  template <typename Fn>
  double Time(int64_t op, const char* name, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    const double dur = MsBetween(t0, t1);
    spans_.push_back({op, name, MsBetween(origin_, t0), dur});
    return dur;
  }
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"op\":%lld,\"name\":\"%s\",\"start_ms\":%.6f,"
                   "\"dur_ms\":%.6f}\n",
                   static_cast<long long>(s.op), s.name, s.start_ms,
                   s.dur_ms);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Public component instances with the served model's weights: the
/// stages of M2g4Rtp::Predict are private, so the traced run re-composes
/// Predict from these and checks the result bitwise against it.
class Stages {
 public:
  explicit Stages(const core::M2g4Rtp& model) : config_(model.config()) {
    Rng rng(config_.seed);
    const int d = config_.hidden_dim;
    const int loc_in = d + config_.pos_enc_dim + 1;
    const int edge_in = config_.sort_lstm_edge_input ? d : 0;
    embed_ = std::make_unique<core::GlobalFeatureEmbed>(config_, &rng);
    loc_enc_ = std::make_unique<core::LevelEncoder>(
        config_, graph::kLocationContinuousDim, &rng);
    aoi_enc_ = std::make_unique<core::LevelEncoder>(
        config_, graph::kAoiContinuousDim, &rng);
    aoi_dec_ = std::make_unique<core::AttentionRouteDecoder>(
        d, config_.courier_dim, config_.lstm_hidden_dim, &rng);
    aoi_eta_ = std::make_unique<core::SortLstm>(
        d, config_.pos_enc_dim, config_.pos_enc_base,
        config_.lstm_hidden_dim, &rng, edge_in);
    loc_dec_ = std::make_unique<core::AttentionRouteDecoder>(
        loc_in, config_.courier_dim, config_.lstm_hidden_dim, &rng);
    loc_eta_ = std::make_unique<core::SortLstm>(
        loc_in, config_.pos_enc_dim, config_.pos_enc_base,
        config_.lstm_hidden_dim, &rng, edge_in);
    std::map<std::string, Tensor> source;
    for (auto& [name, t] : model.NamedParameters()) source[name] = t;
    CopyFrom(source, "global_embed", *embed_);
    CopyFrom(source, "location_encoder", *loc_enc_);
    CopyFrom(source, "aoi_encoder", *aoi_enc_);
    CopyFrom(source, "aoi_route_decoder", *aoi_dec_);
    CopyFrom(source, "aoi_sort_lstm", *aoi_eta_);
    CopyFrom(source, "location_route_decoder", *loc_dec_);
    CopyFrom(source, "location_sort_lstm", *loc_eta_);
  }

  struct Times {
    double graph = 0, embed = 0, encode = 0, decode = 0, eta = 0;
    double diff = NAN;  // only when a delta was attempted
    double flops = 0, bytes = 0;  // analytic, full encodes only
    bool delta = false;
  };

  /// Predict (state == nullptr) or PredictIncremental, stage by stage,
  /// each stage a span of operation `op`.
  core::RtpPrediction Run(const synth::Sample& sample,
                          core::IncrementalState* state, SpanLog* log,
                          int64_t op, Times* t) const {
    graph::MultiLevelGraph g;
    t->graph = log->Time(op, "graph.build", [&] {
      g = graph::BuildMultiLevelGraph(sample, config_.graph);
    });
    Tensor u;
    t->embed = log->Time(op, "core.embed", [&] { u = embed_->Embed(sample); });
    core::EncodedLevel loc, aoi;
    t->encode = log->Time(op, "core.encode", [&] {
      Encode(g, u, state, log, op, &loc, &aoi, t);
    });
    if (!t->delta) {
      for (const graph::LevelGraph* level : {&g.location, &g.aoi}) {
        t->flops += EncodeFlops(config_, level->n, graph::kEdgeDim);
        t->bytes += EncodeBytes(config_, level->n, graph::kEdgeDim);
      }
    }
    core::RtpPrediction pred;
    std::vector<Tensor> aoi_times;
    t->decode = log->Time(op, "core.decode", [&] {
      pred.aoi_route = aoi_dec_->DecodeBeam(aoi.nodes, u, config_.beam_width);
    });
    t->eta = log->Time(op, "core.eta", [&] {
      aoi_times = aoi_eta_->Forward(aoi.nodes, pred.aoi_route, aoi.edges);
      pred.aoi_times_min = ToMinutes(aoi_times);
    });
    Tensor x_in;
    t->decode += log->Time(op, "core.decode", [&] {
      x_in = LocationInputs(loc.nodes, sample.loc_to_aoi, pred.aoi_route,
                            aoi_times);
      pred.location_route =
          loc_dec_->DecodeBeam(x_in, u, config_.beam_width);
    });
    t->eta += log->Time(op, "core.eta", [&] {
      pred.location_times_min = ToMinutes(
          loc_eta_->Forward(x_in, pred.location_route, loc.edges));
    });
    return pred;
  }

 private:
  static void CopyFrom(const std::map<std::string, Tensor>& source,
                       const std::string& prefix, const nn::Module& dst) {
    for (auto& [name, t] : dst.NamedParameters()) {
      const auto it = source.find(prefix + "/" + name);
      M2G_CHECK_MSG(it != source.end(), (prefix + "/" + name).c_str());
      Tensor param = t;
      param.mutable_value() = it->second.value();
    }
  }

  std::vector<double> ToMinutes(const std::vector<Tensor>& times) const {
    std::vector<double> out(times.size());
    for (size_t k = 0; k < times.size(); ++k) {
      out[k] = std::max(0.0, static_cast<double>(times[k].item()) *
                                 config_.time_scale_minutes);
    }
    return out;
  }

  /// Eq. 34 decoder input, as M2g4Rtp builds it.
  Tensor LocationInputs(const Tensor& nodes, const std::vector<int>& loc_to_aoi,
                        const std::vector<int>& aoi_route,
                        const std::vector<Tensor>& aoi_times) const {
    std::vector<int> aoi_pos(aoi_route.size(), 0);
    for (size_t s = 0; s < aoi_route.size(); ++s) {
      aoi_pos[aoi_route[s]] = static_cast<int>(s);
    }
    std::vector<Tensor> rows;
    for (int i = 0; i < nodes.rows(); ++i) {
      const int a = loc_to_aoi[i];
      Tensor pos = Tensor::Constant(core::SortLstm::PositionalEncoding(
          aoi_pos[a] + 1, config_.pos_enc_dim, config_.pos_enc_base));
      rows.push_back(ConcatCols(ConcatCols(Row(nodes, i), pos), aoi_times[a]));
    }
    return ConcatRows(rows);
  }

  /// Full encode, or PredictIncremental's delta chain when a session
  /// state is given (same fallback order, same bits).
  void Encode(const graph::MultiLevelGraph& g, const Tensor& u,
              core::IncrementalState* state, SpanLog* log, int64_t op,
              core::EncodedLevel* loc, core::EncodedLevel* aoi,
              Times* t) const {
    core::EncodePlan plan(std::max(g.location.n, g.aoi.n),
                          config_.hidden_dim);
    if (state == nullptr) {
      *loc = loc_enc_->Encode(g.location, u, &plan);
      *aoi = aoi_enc_->Encode(g.aoi, u, &plan);
      return;
    }
    bool try_delta =
        state->warm && state->u.size() == u.value().size() &&
        std::memcmp(state->u.data(), u.value().data(),
                    sizeof(float) * state->u.size()) == 0 &&
        state->deltas_since_full + 1 <
            static_cast<uint64_t>(config_.incremental_refresh_period);
    graph::LevelGraphDelta ld, ad;
    if (try_delta) {
      t->diff = log->Time(op, "graph.diff", [&] {
        ld = graph::DiffLevelGraph(state->graph.location, g.location);
        ad = graph::DiffLevelGraph(state->graph.aoi, g.aoi);
      });
      try_delta = ld.kind != graph::LevelDeltaKind::kStructural &&
                  ad.kind != graph::LevelDeltaKind::kStructural &&
                  g.location.n <= state->location.cap &&
                  g.aoi.n <= state->aoi.cap;
    }
    if (try_delta) {
      std::optional<core::EncodedLevel> le = loc_enc_->EncodeDelta(
          g.location, state->graph.location, ld, u, &plan, &state->location);
      std::optional<core::EncodedLevel> ae;
      if (le.has_value()) {
        ae = aoi_enc_->EncodeDelta(g.aoi, state->graph.aoi, ad, u, &plan,
                                   &state->aoi);
      }
      if (ae.has_value()) {
        *loc = std::move(*le);
        *aoi = std::move(*ae);
        state->graph = g;
        ++state->deltas_since_full;
        t->delta = true;
        return;
      }
    }
    *loc = loc_enc_->EncodeFastCached(g.location, u, &plan, &state->location);
    *aoi = aoi_enc_->EncodeFastCached(g.aoi, u, &plan, &state->aoi);
    state->u = u.value();
    state->graph = g;
    state->deltas_since_full = 0;
    state->warm = true;
  }

  core::ModelConfig config_;
  std::unique_ptr<core::GlobalFeatureEmbed> embed_;
  std::unique_ptr<core::LevelEncoder> loc_enc_;
  std::unique_ptr<core::LevelEncoder> aoi_enc_;
  std::unique_ptr<core::AttentionRouteDecoder> aoi_dec_;
  std::unique_ptr<core::SortLstm> aoi_eta_;
  std::unique_ptr<core::AttentionRouteDecoder> loc_dec_;
  std::unique_ptr<core::SortLstm> loc_eta_;
};

/// The requests the sequential traced passes walk, in serving order. On
/// courier_stream only kTracedCouriers couriers are followed, so the
/// passes see long per-courier streams rather than one query each.
std::vector<int64_t> TracedOrder(const WorkloadSpec& spec, int64_t pool) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < pool; ++i) {
    if (spec.kind != Kind::kCourierStream ||
        i % kStreamCouriers < kTracedCouriers) {
      out.push_back(i);
    }
  }
  return out;
}

/// Share of `part` in `whole`, both as totals.
double Share(const std::vector<double>& part,
             const std::vector<double>& whole) {
  double p = 0, w = 0;
  for (double v : part) p += v;
  for (double v : whole) w += v;
  return w > 0 ? p / w : NAN;
}

void Traced(const Args& args, const WorkloadSpec& spec,
            const std::string& weights, Fixture* fx, Report* report,
            RunState* st) {
  // Phase A: the open loop again, for the load generator's own numbers
  // and the pool and session counters under concurrent load.
  const double open_s = OpenLoopSeconds(args, 0.3);
  OpenLoopResult ol = OpenLoop(fx, *fx->service, args.rate, open_s,
                               LoadgenSeed(args.seed));
  CheckOpenLoop(args, ol, st);
  st->verdict.attempted += ol.scheduled;
  st->verdict.failed += ol.scheduled - ol.completed;
  VerifyServed(fx, ol.served, &st->verdict);
  const serve::EncodeSessionStore* store = fx->service->session_store();
  const double sessions = store != nullptr ? store->sessions() : 0;
  const double session_bytes =
      store != nullptr ? static_cast<double>(store->bytes()) : 0;
  const double misses_per_req =
      ol.completed > 0 ? static_cast<double>(ol.pool_misses) / ol.completed
                       : NAN;

  const std::vector<int64_t> order =
      TracedOrder(spec, static_cast<int64_t>(fx->in.requests.size()));
  const serve::ServingConfig serving = ServingFor(spec);

  // Phase B: untraced sequential Handle, the baseline of the tracing
  // overhead. M is however many requests fit its share of the run.
  std::vector<double> bare_ms;
  {
    serve::RtpService service(fx->in.world.get(), fx->model.get(), serving);
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(0.1 * args.seconds));
    for (size_t k = 0; k < order.size() && Clock::now() < end; ++k) {
      bare_ms.push_back(
          TimeMs([&] { service.Handle(fx->in.requests[order[k]]); }));
    }
  }
  const size_t m = bare_ms.size();

  // Phase C: the same M requests with every layer timed from outside.
  SpanLog log(Clock::now());
  std::vector<double> handle, extract, predict, overhead, graph_ms, diff,
      embed, encode, decode, eta, unattributed, full_encode;
  double flops = 0, bytes = 0, deltas = 0;
  int64_t parity_failures = 0;
  {
    serve::RtpService service(fx->in.world.get(), fx->model.get(), serving);
    serve::FeatureExtractor extractor(fx->in.world.get());
    const Stages stages(*fx->model);
    std::unordered_map<int, core::IncrementalState> predict_states,
        stage_states;
    std::unordered_map<int, graph::MultiLevelGraph> previous;
    NoGradGuard no_grad;
    for (size_t k = 0; k < m; ++k) {
      const int64_t op = static_cast<int64_t>(k);
      const serve::RtpRequest& req = fx->in.requests[order[k]];
      const int courier = req.courier.id;
      serve::RtpService::Response resp;
      const double h =
          log.Time(op, "serve.handle", [&] { resp = service.Handle(req); });
      ArenaGuard arena;
      synth::Sample sample;
      const double e = log.Time(op, "serve.extract",
                                [&] { extractor.BuildSample(req, &sample); });
      core::RtpPrediction pred;
      core::IncrementalResult incremental;
      const double p = log.Time(op, "core.predict", [&] {
        pred = spec.sessions
                   ? fx->model->PredictIncremental(
                         sample, &predict_states[courier], &incremental)
                   : fx->model->Predict(sample);
      });
      deltas += incremental.delta ? 1 : 0;
      Stages::Times t;
      const core::RtpPrediction staged = stages.Run(
          sample, spec.sessions ? &stage_states[courier] : nullptr, &log, op,
          &t);
      if (!spec.sessions) {
        // Stateless: what the graph diff a session would run costs,
        // against this courier's previous request (or, for a courier's
        // first request, the previous request of any courier).
        graph::MultiLevelGraph g =
            graph::BuildMultiLevelGraph(sample, fx->model->config().graph);
        auto it = previous.find(courier);
        if (it == previous.end()) it = previous.find(kLastRequest);
        if (it != previous.end()) {
          t.diff = log.Time(op, "graph.diff", [&] {
            graph::DiffLevelGraph(it->second.location, g.location);
            graph::DiffLevelGraph(it->second.aoi, g.aoi);
          });
        }
        previous[kLastRequest] = g;
        previous[courier] = std::move(g);
      }
      const uint64_t want = HashPrediction(pred);
      if (HashPrediction(resp.prediction) != want ||
          HashPrediction(staged) != want) {
        ++parity_failures;
      }
      handle.push_back(h);
      extract.push_back(e);
      predict.push_back(p);
      overhead.push_back(Residual(h, {e, p}));
      graph_ms.push_back(t.graph);
      embed.push_back(t.embed);
      encode.push_back(t.encode);
      decode.push_back(t.decode);
      eta.push_back(t.eta);
      if (!std::isnan(t.diff)) diff.push_back(t.diff);
      if (!t.delta) full_encode.push_back(t.encode);
      flops += t.flops;
      bytes += t.bytes;
      unattributed.push_back(
          Residual(p, {t.graph, t.embed, t.encode, t.decode, t.eta}));
    }
  }
  st->verdict.attempted += static_cast<int64_t>(m);
  st->verdict.failed += parity_failures;
  if (parity_failures > 0) {
    st->meta["traced_parity_failures"] = std::to_string(parity_failures);
  }

  // Phase D: the training step from outside, on a separate model copy.
  std::vector<double> forward_ms, backward_ms, step_ms;
  {
    std::unique_ptr<core::M2g4Rtp> model = LoadModel(weights, nullptr);
    nn::Adam optimizer(model->Parameters(), core::TrainConfig().learning_rate);
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(0.2 * args.seconds));
    const std::vector<synth::Sample>& samples = fx->in.train;
    int64_t next = 0;
    do {
      optimizer.ZeroGrad();
      for (int b = 0; b < kTrainBatch; ++b, ++next) {
        const synth::Sample& s = samples[next % samples.size()];
        ArenaGuard arena;
        Rng guidance(static_cast<uint64_t>(next));
        Tensor loss;
        forward_ms.push_back(log.Time(next, "train.forward", [&] {
          loss = model->ComputeLoss(s, nullptr, &guidance);
        }));
        backward_ms.push_back(log.Time(next, "train.backward", [&] {
          Scale(loss, 1.0f / kTrainBatch).Backward();
        }));
      }
      step_ms.push_back(log.Time(next, "train.step", [&] {
        optimizer.ClipGradNorm(core::TrainConfig().grad_clip_norm);
        optimizer.Step();
      }));
    } while (Clock::now() < end);
  }

  const std::string trace_path = args.workdir + "/trace_" + args.workload +
                                 "_" + std::to_string(args.seed) + ".jsonl";
  if (log.Write(trace_path)) st->meta["trace_file"] = JsonString(trace_path);

  const double handle_p50 = Median(handle);
  report->Add("serve.handle_ms", handle_p50, "ms");
  report->Add("serve.extract_ms", Median(extract), "ms");
  report->Add("serve.overhead_ms", Median(overhead), "ms");
  report->Add("serve.sessions", sessions, "count");
  report->Add("serve.session_bytes", session_bytes, "bytes");
  report->Add("graph.build_ms", Median(graph_ms), "ms");
  report->Add("graph.diff_ms", diff.empty() ? NAN : Median(diff), "ms");
  report->Add("core.predict_ms", Median(predict), "ms");
  report->Add("core.embed_ms", Median(embed), "ms");
  report->Add("core.encode_ms", Median(encode), "ms");
  report->Add("core.decode_ms", Median(decode), "ms");
  report->Add("core.eta_ms", Median(eta), "ms");
  report->Add("core.unattributed_ms", Median(unattributed), "ms");
  // Shares of the parent span: serve.* of Handle, the stages of Predict.
  report->Add("serve.extract_share", Share(extract, handle), "frac");
  report->Add("serve.overhead_share", Share(overhead, handle), "frac");
  report->Add("graph.build_share", Share(graph_ms, predict), "frac");
  report->Add("core.embed_share", Share(embed, predict), "frac");
  report->Add("core.encode_share", Share(encode, predict), "frac");
  report->Add("core.decode_share", Share(decode, predict), "frac");
  report->Add("core.eta_share", Share(eta, predict), "frac");
  report->Add("core.unattributed_share", Share(unattributed, predict),
              "frac");
  report->Add("core.delta_frac", m > 0 ? deltas / m : NAN, "frac");
  double full_ms = 0;
  for (double v : full_encode) full_ms += v;
  report->Add("tensor.encode_gflops", full_ms > 0 ? flops / full_ms / 1e6 : NAN,
              "GFLOP/s");
  report->Add("tensor.encode_mb_per_op",
              full_encode.empty()
                  ? NAN
                  : bytes / full_encode.size() / 1048576.0,
              "MB");
  report->Add("tensor.pool_miss_per_req", misses_per_req, "count");
  report->Add("train.forward_ms", Median(forward_ms), "ms");
  report->Add("train.backward_ms", Median(backward_ms), "ms");
  report->Add("train.step_ms", Median(step_ms), "ms");
  {
    // Per sample: every forward and backward, plus its batch's step
    // spread over the batch.
    std::vector<double> per_sample_step;
    for (double ms : step_ms) {
      per_sample_step.insert(per_sample_step.end(), kTrainBatch,
                             ms / kTrainBatch);
    }
    std::vector<double> all = forward_ms;
    all.insert(all.end(), backward_ms.begin(), backward_ms.end());
    all.insert(all.end(), per_sample_step.begin(), per_sample_step.end());
    report->Add("train.forward_share", Share(forward_ms, all), "frac");
    report->Add("train.backward_share", Share(backward_ms, all), "frac");
    report->Add("train.step_share", Share(per_sample_step, all), "frac");
  }
  report->Add("loadgen.queue_wait_p99_ms", Percentile(ol.queue_wait_ms, 99),
              "ms");
  report->Add("loadgen.late_p99_ms",
              ol.late_ms.empty() ? 0 : Percentile(ol.late_ms, 99), "ms");
  report->Add("trace.overhead_ms", handle_p50 - Median(bare_ms), "ms");
  st->meta["traced_requests"] = std::to_string(m);
  st->meta["train_probe_samples"] = std::to_string(forward_ms.size());
}

}  // namespace

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rtp_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --rate <req/s> --tail <pct> --workdir <dir> "
                 "[--golden key=digest] [--meta key=value] [--regen]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const int workers = std::min(kMaxWorkers, UsableCpus());
  // workloads.json rates are for kMaxWorkers workers; fewer CPUs get a
  // proportionally lower rate, so utilization stays the same.
  args.rate *= static_cast<double>(workers) / kMaxWorkers;

  // The shipped weights file: a fixed-seed model at paper dims, written
  // once per process so the set-ups below load it like a deployment.
  const std::string weights =
      args.workdir + "/weights_" + std::to_string(getpid()) + ".bin";
  {
    core::M2g4Rtp source(PaperConfig());
    const Status status = source.Save(weights);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s: %s\n",
                   weights.c_str(), status.ToString().c_str());
      return 2;
    }
  }
  struct RemoveFile {
    std::string path;
    ~RemoveFile() { std::remove(path.c_str()); }
  } remove_weights{weights};

  if (args.regen) {
    Crew crew(workers);
    std::unique_ptr<core::M2g4Rtp> model = LoadModel(weights, nullptr);
    std::string out = "{\"goldens\": {";
    if (spec->kind == Kind::kTrainEpoch) {
      for (int t = 1; t <= kMaxWorkers; ++t) {
        out += (t > 1 ? ", " : "") +
               JsonString("weights_t" + std::to_string(t)) + ": " +
               JsonString(GoldenWeightsDigest(weights, t));
      }
      out += ", ";
    }
    out += "\"outputs\": " +
           JsonString(GoldenServingDigest(*spec, &crew, *model).Hex()) + "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  // Set-up, several times; the first is timed from process start.
  std::vector<double> setup_s, data_ms, load_ms, warmup_ms;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fx.reset();
    const Clock::time_point t0 = rep == 0 ? process_start : Clock::now();
    fx = Setup(*spec, args.seed, workers, weights);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    data_ms.push_back(fx->data_ms);
    load_ms.push_back(fx->load_ms);
    warmup_ms.push_back(fx->warmup_ms);
  }

  Report report;
  RunState st;
  {
    std::string reps;
    for (double v : setup_s) reps += (reps.empty() ? "" : ",") + JsonNumber(v);
    st.meta["setup_reps_s"] = "[" + reps + "]";
  }
  if (args.trace == 0) {
    report.Add("setup_s", Median(setup_s), "s");
    if (spec->kind == Kind::kTrainEpoch) {
      TrainEndToEnd(args, fx.get(), &report, &st);
    } else {
      ServingEndToEnd(args, fx.get(), &report, &st);
    }
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    Traced(args, *spec, weights, fx.get(), &report, &st);
    report.Add("setup.data_ms", Median(data_ms), "ms");
    report.Add("setup.load_ms", Median(load_ms), "ms");
    report.Add("setup.warmup_ms", Median(warmup_ms), "ms");
  }

  // Golden check: fixed inputs, stored digests.
  bool golden_ok = true;
  {
    const OrderFreeDigest served =
        GoldenServingDigest(*spec, fx->crew.get(), *fx->model);
    st.verdict.attempted += static_cast<int64_t>(served.count());
    const auto it = args.goldens.find("outputs");
    st.meta["golden_outputs"] = JsonString(served.Hex());
    if (it == args.goldens.end() || it->second != served.Hex()) {
      golden_ok = false;
      st.verdict.failed += static_cast<int64_t>(served.count());
    }
    if (spec->kind == Kind::kTrainEpoch) {
      const std::string key = "weights_t" + std::to_string(workers);
      const std::string got = GoldenWeightsDigest(weights, workers);
      st.meta["golden_" + key] = JsonString(got);
      st.verdict.attempted += kTrainSamples;
      const auto w = args.goldens.find(key);
      if (w == args.goldens.end() || w->second != got) {
        golden_ok = false;
        st.verdict.failed += kTrainSamples;
      }
    }
  }

  const bool outputs_match =
      st.verdict.served_digest == st.verdict.reference_digest;
  const bool correct =
      st.valid && golden_ok && outputs_match && st.verdict.failed == 0;

  // Run metadata, then a readable table, then the result line.
  st.meta["workload"] = JsonString(args.workload);
  st.meta["seed"] = std::to_string(args.seed);
  st.meta["trace"] = std::to_string(args.trace);
  st.meta["offered_rate_per_s"] = JsonNumber(args.rate);
  st.meta["tail_percentile"] = JsonNumber(args.tail);
  st.meta["nproc"] = std::to_string(UsableCpus());
  st.meta["workers"] = std::to_string(workers);
  st.meta["simd_tier"] = JsonString(simd::TierName(simd::ActiveTier()));
  st.meta["build_type"] = JsonString(PERFBENCH_BUILD_TYPE);
  st.meta["served_digest"] = JsonString(st.verdict.served_digest.Hex());
  st.meta["reference_digest"] = JsonString(st.verdict.reference_digest.Hex());
  st.meta["golden_ok"] = golden_ok ? "true" : "false";
  st.meta["valid"] = st.valid ? "true" : "false";
  if (!st.valid) st.meta["invalid_reason"] = JsonString(st.invalid_reason);
  for (const auto& [k, v] : args.meta) st.meta[k] = JsonString(v);
  std::string meta = "{\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : st.meta) {
    meta += (first ? "" : ", ") + JsonString(k) + ": " + v;
    first = false;
  }
  std::printf("%s}}\n", meta.c_str());

  std::fprintf(stderr, "%-28s %14s  %s\n", "metric", "value", "unit");
  for (const Metric& m : report.metrics()) {
    std::fprintf(stderr, "%-28s %14.4f  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  const double failed_frac =
      st.verdict.attempted > 0
          ? static_cast<double>(st.verdict.failed) / st.verdict.attempted
          : 0;
  std::fprintf(stderr, "%-28s %14.6f  %s\n", "failed_frac", failed_frac,
               "frac");
  if (!correct) {
    std::fprintf(stderr, "perfbench: run NOT correct (valid=%d golden=%d "
                 "digest=%d failed=%lld) %s\n",
                 st.valid, golden_ok, outputs_match,
                 static_cast<long long>(st.verdict.failed),
                 st.invalid_reason.c_str());
  }

  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(st.verdict.attempted);
  result += ", \"failed\": " + std::to_string(st.verdict.failed);
  result += ", \"metrics\": {";
  first = true;
  for (const Metric& m : report.metrics()) {
    result += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
              JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
