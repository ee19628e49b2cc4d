#ifndef M2G_SERVE_MODEL_REGISTRY_H_
#define M2G_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/model.h"

namespace m2g::serve {

/// One immutable published model: the weights plus the version that
/// produced them. Snapshots are handed out by shared_ptr, so a snapshot
/// read by an in-flight request stays alive — weights readable, version
/// tag stable — until the last request that started on it finishes, no
/// matter how many swaps happen meanwhile.
struct ModelSnapshot {
  std::shared_ptr<const core::M2g4Rtp> model;
  int64_t version = 0;
};

/// Double-buffered model registry: the serving side of weights hot-swap.
/// Readers (`Current()`) do one lock-free atomic shared_ptr load per
/// request, so each request is served — and its response version-tagged
/// — by one set of weights. Writers (`Publish*`) build the replacement
/// off the serving threads, then swap the buffer pointer in one atomic
/// store; the displaced snapshot drains by refcount as its last
/// in-flight requests retire. No serving thread ever blocks on a swap,
/// and no request is ever dropped or served by a half-loaded model.
///
/// Observability: `model.version` gauge tracks the live version;
/// `serve.swaps` counts completed publishes.
class ModelRegistry {
 public:
  /// Seeds the registry; the initial model is `initial_version`
  /// (default 1; version 0 is reserved for "no registry").
  explicit ModelRegistry(std::shared_ptr<const core::M2g4Rtp> initial,
                         int64_t initial_version = 1);

  /// The current snapshot (lock-free; never null).
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Publishes `model` as the new current snapshot and returns its
  /// version (previous + 1). Publishers are serialized with each other;
  /// readers never block.
  int64_t Publish(std::shared_ptr<const core::M2g4Rtp> model);

  /// Off-thread load-and-publish: constructs a model from `config`,
  /// loads the weights file at `path`, and publishes on success. On load
  /// failure the registry is unchanged and the error is returned — a bad
  /// weights file can never become the serving model.
  Result<int64_t> PublishFromFile(const core::ModelConfig& config,
                                  const std::string& path);

  int64_t version() const { return Current()->version; }
  uint64_t swap_count() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::shared_ptr<const ModelSnapshot>> snapshot_;
  std::mutex publish_mu_;
  std::atomic<uint64_t> swaps_{0};
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_MODEL_REGISTRY_H_
