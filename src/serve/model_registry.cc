#include "serve/model_registry.h"

#include <utility>

#include "obs/metrics.h"

namespace m2g::serve {
namespace {

obs::Gauge& VersionGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().gauge("model.version");
  return g;
}

obs::Counter& SwapCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.swaps");
  return c;
}

obs::Counter& PublishFailureCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().counter(
      "serve.registry.publish_failures");
  return c;
}

}  // namespace

ModelRegistry::ModelRegistry(std::shared_ptr<const core::M2g4Rtp> initial,
                             int64_t initial_version) {
  M2G_CHECK(initial != nullptr);
  auto snapshot = std::make_shared<const ModelSnapshot>(
      ModelSnapshot{std::move(initial), initial_version});
  snapshot_.store(std::move(snapshot), std::memory_order_release);
  VersionGauge().Set(static_cast<double>(initial_version));
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Current() const {
  return snapshot_.load(std::memory_order_acquire);
}

int64_t ModelRegistry::Publish(std::shared_ptr<const core::M2g4Rtp> model) {
  M2G_CHECK(model != nullptr);
  std::lock_guard<std::mutex> lock(publish_mu_);
  const int64_t version = Current()->version + 1;
  auto snapshot = std::make_shared<const ModelSnapshot>(
      ModelSnapshot{std::move(model), version});
  // The one swap point: readers that loaded the old snapshot keep it
  // alive through their shared_ptr; new requests see the new one.
  snapshot_.store(std::move(snapshot), std::memory_order_release);
  VersionGauge().Set(static_cast<double>(version));
  SwapCounter().Increment();
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

Result<int64_t> ModelRegistry::PublishFromFile(
    const core::ModelConfig& config, const std::string& path) {
  auto model = std::make_shared<core::M2g4Rtp>(config);
  const Status status = model->Load(path);
  if (!status.ok()) {
    // A failed load never swaps: the previous snapshot keeps serving.
    // The counter makes silent rollout failures visible on /metrics.
    PublishFailureCounter().Increment();
    return status;
  }
  return Publish(std::move(model));
}

}  // namespace m2g::serve
