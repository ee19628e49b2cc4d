// Input generators of the serving-and-training benchmark. Every input is
// a pure function of (workload, seed) and comes from the repository's own
// city simulator, so the program only ever sees generated requests.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "serve/feature_extractor.h"
#include "synth/dataset.h"
#include "synth/world.h"

namespace perfbench {

enum class Kind { kCityReplay, kDenseBacklog, kCourierStream, kTrainEpoch };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Serve through per-courier encode sessions (EncodeSessionsConfig on).
  bool sessions;
};

/// The workload called `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// city_replay: days of the seeded city simulated (~560 samples).
constexpr int kCityDays = 22;
/// dense_backlog: distinct requests and their node-count range.
constexpr int kDenseRequests = 192;
constexpr int kDenseMinNodes = 35;
constexpr int kDenseMaxNodes = 80;
/// courier_stream: active couriers, re-queries per courier, n bounds.
constexpr int kStreamCouriers = 32;
constexpr int kStreamSteps = 64;
constexpr int kStreamMinNodes = 10;
constexpr int kStreamMaxNodes = 50;
/// Labelled samples per training epoch (train_epoch) and per training
/// probe of the traced run (every workload).
constexpr int kTrainSamples = 32;

/// Everything one workload run feeds the program.
struct WorkloadInputs {
  /// Heap-held so the FeatureExtractor's pointer survives moves.
  std::unique_ptr<m2g::synth::World> world;
  /// The serving pool in serving order. Open and closed loops cycle
  /// through it; for courier_stream, entry s * kStreamCouriers + c is
  /// courier c's s-th query, so any index order that is increasing per
  /// courier keeps each courier's stream in order.
  std::vector<m2g::serve::RtpRequest> requests;
  /// Labelled samples: train_epoch's epoch, and every workload's training
  /// probe. City samples carry simulator labels; crafted requests get
  /// AttachProbeLabels.
  std::vector<m2g::synth::Sample> train;
};

/// Generates a workload's inputs. Same (kind, seed), same bytes.
WorkloadInputs MakeInputs(Kind kind, uint64_t seed);

/// Gives a label-less serving sample a valid route/time labelling (visit
/// in deadline order, arrival gap = time to deadline) so the autograd
/// path can run on it. Training cost does not depend on label values.
void AttachProbeLabels(m2g::synth::Sample* sample);

/// FNV-1a over a prediction's route and ETA bytes (both levels).
uint64_t HashPrediction(const m2g::core::RtpPrediction& prediction);

/// FNV-1a over every parameter's bytes, in parameter order.
uint64_t HashParameters(const m2g::nn::Module& module);

/// Analytic multiply-add flops of one fused GAT-e level encode at n
/// nodes: every dense product the layers run, with the attention and edge
/// terms counted over all n^2 pairs (the kernels skip masked pairs only
/// in the softmax aggregation, which is a minor term).
double EncodeFlops(const m2g::core::ModelConfig& config, int n,
                   int edge_feature_dim);

/// Bytes the same encode reads and writes, computed from tensor sizes
/// (edge/node activations in and out per layer, plus weights), not
/// measured.
double EncodeBytes(const m2g::core::ModelConfig& config, int n,
                   int edge_feature_dim);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
