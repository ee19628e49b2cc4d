#ifndef M2G_SERVE_RTP_SERVICE_H_
#define M2G_SERVE_RTP_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/model.h"
#include "serve/encode_session.h"
#include "serve/feature_extractor.h"
#include "serve/model_registry.h"
#include "tensor/pool.h"

namespace m2g::serve {

/// Per-courier incremental-encode sessions (core/incremental_encode):
/// off by default — an opt-in serving optimization whose responses are
/// bitwise-identical to the stateless path.
struct EncodeSessionsConfig {
  bool enabled = false;
  /// LRU byte budget across all cached sessions (tensor payloads). The
  /// most recently used session always survives, even over budget.
  size_t byte_budget = 256u << 20;
};

/// Serving-layer switches.
struct ServingConfig {
  EncodeSessionsConfig encode_sessions;
};

/// Figure 7 "M2G4RTP Service": the online inference layer. Answers RTP
/// requests end-to-end (features -> multi-level graph -> joint route &
/// time prediction) against either a fixed model or a ModelRegistry
/// whose snapshots hot-swap under load.
///
/// Handle() is safe to call from many threads at once: it runs under
/// NoGradGuard (no shared autograd state is touched), the session store
/// is internally synchronized, and the only other mutable service state
/// is the atomic request counter. Throughput scales by calling Handle()
/// from more threads, one request per thread.
class RtpService {
 public:
  /// Fixed-model service without encode sessions. `model` must outlive
  /// the service; it is typically loaded from a weights file produced by
  /// offline training. Responses carry model_version 0.
  RtpService(const synth::World* world, const core::M2g4Rtp* model)
      : RtpService(world, model, ServingConfig()) {}

  /// Fixed-model service with serving switches: a one-snapshot model
  /// source at version 0.
  RtpService(const synth::World* world, const core::M2g4Rtp* model,
             const ServingConfig& config);

  /// Registry-backed service: every request reads the registry's current
  /// snapshot, so published models go live between requests with zero
  /// downtime. Responses carry the snapshot's version.
  RtpService(const synth::World* world, const ModelRegistry* registry,
             const ServingConfig& config);

  /// Joint prediction plus the sample the features resolved to (callers
  /// need the node ordering to map route indices back to order ids).
  struct Response {
    /// OK, or why the request was rejected before any work ran (no
    /// pending orders, an unknown AOI id). A rejected response carries
    /// an empty sample and prediction; check before indexing them.
    Status status;
    synth::Sample sample;
    core::RtpPrediction prediction;
    /// Version of the model snapshot that served this request (0 when
    /// the service runs on a fixed model with no registry).
    int64_t model_version = 0;
  };

  /// Validates the request, then runs one pipeline: extract features,
  /// resolve the serving snapshot, predict (through the courier's encode
  /// session when sessions are enabled). A rejected request bumps the
  /// serve.rejected counter and leaves the service serving.
  Response Handle(const RtpRequest& request) const;

  /// Number of requests served (monitoring counter; rejections excluded).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// The encode-session store (nullptr when sessions are disabled).
  /// Exposed for monitoring and the serve_test eviction suite.
  const EncodeSessionStore* session_store() const { return sessions_.get(); }

  /// Tensor-pool behaviour across all request arenas (process-wide
  /// monitoring counters; steady-state serving should report zero new
  /// misses once every serving thread has warmed its pool).
  static TensorPool::ArenaCounters pool_counters();

 private:
  /// The snapshot that serves the next request: the registry's current
  /// one, or the fixed model's version-0 snapshot.
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const {
    return registry_ != nullptr ? registry_->Current() : fixed_;
  }

  FeatureExtractor extractor_;
  std::shared_ptr<const ModelSnapshot> fixed_;
  const ModelRegistry* registry_ = nullptr;
  std::unique_ptr<EncodeSessionStore> sessions_;
  mutable std::atomic<int64_t> requests_served_{0};
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_RTP_SERVICE_H_
