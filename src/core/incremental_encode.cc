// Incremental re-encode on order arrival. A warm LevelEncodeCache holds
// every per-layer value a GAT-e forward produced for a courier's last
// graph; when the next request's level graph has the same node count
// (index-aligned) or one inserted node (an order arriving, appended or
// mid-sequence), EncodeDelta hands the same no-grad layer kernel a full
// encode uses (GatELayer::ForwardFast) the dirty sets, so it recomputes
// only the attention rows and edge pairs whose inputs or softmax masks
// changed and reuses everything else byte for byte. The dirty sets come
// from content, not from the graph diff: every aligned h_0 row, raw
// edge-feature pair and mask row is compared with the cached one, so the
// diff's verdict decides what a step costs, never its bits. Any other
// count change (a pick-up removes a node and moves every node's distance
// feature) is a full encode.
//
// Why bitwise reuse is sound: every kernel on this path (MatMulInto /
// AccumulateRowMatMul / GatLogitsRow / MaskedSoftmaxRowRaw) is
// deterministic and row-local, so a cached output row is exactly what
// recomputation would produce whenever its inputs are bitwise-unchanged.
// The one cross-n subtlety is an attention row whose mask did not change
// across an insertion: the new column is masked out, MaskedSoftmaxRowRaw
// computes its max and denominator over unmasked entries only and writes
// exact 0.0f to masked ones, and AccumulateRowMatMul skips zero
// coefficients — so the aggregation adds the same terms in the same
// order as before and the cached row stands. Dirtiness is tracked by
// memcmp (stricter than float equality), and a step that dirties more
// than half the nodes falls back to a full encode.

#include "core/incremental_encode.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/grad_mode.h"

namespace m2g::core {
namespace {

/// Minimum padded capacity: avoids re-warming every arrival on tiny
/// graphs.
constexpr int kMinCapacity = 16;

/// Geometric headroom (doubling) so an arrival stream re-warms O(log n)
/// times, not every k arrivals: capacity-change fallbacks are full
/// encodes and eat directly into the amortized speedup. The byte cost of
/// the slack is bounded by the session store's LRU budget.
int GrownCapacity(int n) { return std::max(kMinCapacity, 2 * n); }

size_t MatrixBytes(const Matrix& m) { return m.size() * sizeof(float); }

/// Copies a dense (n*n, d) edge matrix into the cache's padded layout
/// (pair (i, j) at row i*cap + j).
void PackEdges(const Matrix& dense, int n, int cap, Matrix* padded) {
  const int d = dense.cols();
  for (int i = 0; i < n; ++i) {
    std::memcpy(padded->data() + static_cast<size_t>(i) * cap * d,
                dense.data() + static_cast<size_t>(i) * n * d,
                sizeof(float) * static_cast<size_t>(n) * d);
  }
}

/// Shifts cached node rows for an insertion at `pos` (descending, in
/// place; row `pos` is left stale — the caller marks it fresh).
void ShiftNodeRowsForInsert(Matrix* m, int old_n, int pos) {
  const int w = m->cols();
  float* data = m->data();
  for (int i = old_n; i > pos; --i) {
    std::memcpy(data + static_cast<size_t>(i) * w,
                data + static_cast<size_t>(i - 1) * w, sizeof(float) * w);
  }
}

/// Shifts cached pair rows (padded stride `cap`) for an insertion at
/// `pos`. Descending order: every source row index is <= its destination,
/// so the move is safe in place. Rows touching the inserted index stay
/// stale — the delta marks all fresh-incident pairs dirty.
void ShiftPairRowsForInsert(Matrix* m, int cap, int old_n, int pos) {
  const int w = m->cols();
  const int n = old_n + 1;
  float* data = m->data();
  for (int i = n - 1; i >= 0; --i) {
    if (i == pos) continue;
    const int oi = i < pos ? i : i - 1;
    for (int j = n - 1; j >= 0; --j) {
      if (j == pos) continue;
      const int oj = j < pos ? j : j - 1;
      const size_t dst = (static_cast<size_t>(i) * cap + j) * w;
      const size_t src = (static_cast<size_t>(oi) * cap + oj) * w;
      if (src == dst) continue;
      std::memcpy(data + dst, data + src, sizeof(float) * w);
    }
  }
}

/// Re-indexes every cached buffer after a mid-sequence insert at `pos`
/// so cached values line up with the new graph's node numbering. Appends
/// skip this entirely (fixed padded strides keep every index stable).
void RemapCacheForInsert(LevelEncodeCache* cache, int old_n, int pos) {
  const int cap = cache->cap;
  for (Matrix& m : cache->h) ShiftNodeRowsForInsert(&m, old_n, pos);
  for (Matrix& m : cache->z) ShiftPairRowsForInsert(&m, cap, old_n, pos);
  for (Matrix& m : cache->ew3) ShiftPairRowsForInsert(&m, cap, old_n, pos);
  for (Matrix& m : cache->se) ShiftPairRowsForInsert(&m, cap, old_n, pos);
}

/// Dense (n, d) / (n*n, d) copies of the cached final-layer
/// representations — the encoder's output contract.
EncodedLevel MaterializeOutputs(const LevelEncodeCache& cache, int n) {
  const int d = cache.hidden;
  const int cap = cache.cap;
  Matrix nodes = Matrix::Uninit(n, d);
  std::memcpy(nodes.data(), cache.h[cache.layers].data(),
              sizeof(float) * static_cast<size_t>(n) * d);
  Matrix edges = Matrix::Uninit(n * n, d);
  for (int i = 0; i < n; ++i) {
    std::memcpy(edges.data() + static_cast<size_t>(i) * n * d,
                cache.z[cache.layers].data() + static_cast<size_t>(i) * cap * d,
                sizeof(float) * static_cast<size_t>(n) * d);
  }
  return {Tensor::Constant(std::move(nodes)),
          Tensor::Constant(std::move(edges))};
}

obs::Counter& DeltaStepsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.delta_steps");
  return c;
}

obs::Counter& FullFallbacksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.full_fallbacks");
  return c;
}

}  // namespace

size_t LevelEncodeCache::bytes() const {
  size_t total = 0;
  for (const Matrix& m : h) total += MatrixBytes(m);
  for (const Matrix& m : z) total += MatrixBytes(m);
  for (const Matrix& m : ew3) total += MatrixBytes(m);
  for (const Matrix& m : se) total += MatrixBytes(m);
  return total;
}

void IncrementalState::Reset() { *this = IncrementalState(); }

size_t IncrementalState::bytes() const {
  size_t total = location.bytes() + aoi.bytes() + MatrixBytes(u);
  const auto level_bytes = [](const graph::LevelGraph& g) {
    return MatrixBytes(g.node_continuous) + MatrixBytes(g.edge_features) +
           g.adjacency.size() / 8 +
           (g.node_aoi_id.size() + g.node_aoi_type.size()) * sizeof(int);
  };
  return total + level_bytes(graph.location) + level_bytes(graph.aoi) +
         graph.loc_to_aoi.size() * sizeof(int);
}

EncodedLevel LevelEncoder::EncodeFastCached(const graph::LevelGraph& level,
                                            const Tensor& global_embed,
                                            EncodePlan* plan,
                                            LevelEncodeCache* cache) const {
  M2G_CHECK(use_graph_);
  M2G_CHECK(!GradMode::enabled());
  const int n = level.n;
  const int d = plan->hidden_dim;
  const int num_layers = static_cast<int>(layers_.size());
  const int heads = layers_.front()->num_heads();
  M2G_CHECK_GE(plan->max_nodes, n);

  // (Re)size the cache: zero-initialized buffers so no code path can
  // ever observe uninitialized floats, and bytes() is exact from the
  // start. Grown geometrically — see GrownCapacity.
  if (cache->cap < n || cache->hidden != d || cache->layers != num_layers ||
      cache->heads != heads) {
    const int cap = GrownCapacity(n);
    cache->Reset();
    cache->cap = cap;
    cache->hidden = d;
    cache->layers = num_layers;
    cache->heads = heads;
    const size_t pairs = static_cast<size_t>(cap) * cap;
    cache->h.reserve(num_layers + 1);
    cache->z.reserve(num_layers + 1);
    for (int l = 0; l <= num_layers; ++l) {
      cache->h.emplace_back(cap, d);
      cache->z.emplace_back(static_cast<int>(pairs), d);
    }
    cache->ew3.reserve(static_cast<size_t>(num_layers) * heads);
    cache->se.reserve(static_cast<size_t>(num_layers) * heads);
    for (int l = 0; l < num_layers; ++l) {
      const int dh = layers_[l]->head_dim();
      for (int p = 0; p < heads; ++p) {
        cache->ew3.emplace_back(static_cast<int>(pairs), dh);
        cache->se.emplace_back(static_cast<int>(pairs), 1);
      }
    }
  }

  // The EncodeFast sequence, run on the cache's own buffers.
  std::memcpy(cache->h[0].data(),
              EmbedNodes(level, global_embed).value().data(),
              sizeof(float) * static_cast<size_t>(n) * d);
  PackEdges(feature_embed_->EmbedEdges(level).value(), n, cache->cap,
            &cache->z[0]);
  ForwardLayers(level, nullptr, nullptr, cache, nullptr, plan);
  cache->n = n;
  return MaterializeOutputs(*cache, n);
}

std::optional<EncodedLevel> LevelEncoder::EncodeDelta(
    const graph::LevelGraph& level, const graph::LevelGraph& prev,
    const graph::LevelGraphDelta& delta, const Tensor& global_embed,
    EncodePlan* plan, LevelEncodeCache* cache) const {
  using graph::LevelDeltaKind;
  M2G_CHECK(use_graph_);
  M2G_CHECK(!GradMode::enabled());
  const int n = level.n;
  if (!cache->warm() || n <= 0 || n > cache->cap || n > plan->max_nodes ||
      delta.kind == LevelDeltaKind::kStructural) {
    return std::nullopt;
  }
  M2G_CHECK_EQ(cache->n, prev.n);
  M2G_CHECK_EQ(cache->hidden, plan->hidden_dim);

  const int d = cache->hidden;
  const int pn = prev.n;

  // 1. Line cached rows up with the new numbering. Appends are
  // index-stable under the padded stride and skip this.
  if (delta.kind == LevelDeltaKind::kInsert && delta.pos != pn) {
    RemapCacheForInsert(cache, pn, delta.pos);
  }

  // 2. Dirty seeds from the raw graphs (cheap, before any float work).
  DirtySets dirty;
  dirty.fresh.assign(n, 0);
  if (delta.kind == LevelDeltaKind::kInsert) dirty.fresh[delta.pos] = 1;

  // Mask-membership change per attention row, under the index mapping.
  // A fresh column that is masked out does NOT change a row (the reuse
  // case the padded softmax semantics make exact).
  dirty.row_changed.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    if (dirty.fresh[i]) {
      dirty.row_changed[i] = 1;
      continue;
    }
    const int oi = delta.OldIndex(i);
    bool changed = false;
    for (int j = 0; j < n && !changed; ++j) {
      const int oj = delta.OldIndex(j);
      const bool now = level.adjacency[static_cast<size_t>(i) * n + j];
      if (oj < 0) {
        changed = now;
      } else {
        changed =
            now != prev.adjacency[static_cast<size_t>(oi) * pn + oj];
      }
    }
    dirty.row_changed[i] = changed ? 1 : 0;
  }

  // Raw edge-feature (and adjacency-bit) drift per pair seeds the z_0
  // dirty set; fresh-incident pairs have no history and are always
  // dirty.
  const int de = level.edge_features.cols();
  dirty.pair.assign(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    const int oi = delta.OldIndex(i);
    for (int j = 0; j < n; ++j) {
      const size_t r = static_cast<size_t>(i) * n + j;
      const int oj = delta.OldIndex(j);
      if (oi < 0 || oj < 0) {
        dirty.pair[r] = 1;
        continue;
      }
      const size_t ro = static_cast<size_t>(oi) * pn + oj;
      dirty.pair[r] =
          (level.adjacency[r] != prev.adjacency[ro] ||
           std::memcmp(level.edge_features.data() + r * de,
                       prev.edge_features.data() + ro * de,
                       sizeof(float) * de) != 0)
              ? 1
              : 0;
    }
  }

  // 3. Node embeddings + input projection recomputed in full (O(n d^2),
  // noise) and diffed row-by-row against the cached h_0.
  const Tensor nodes = EmbedNodes(level, global_embed);
  const Matrix& h0 = nodes.value();
  dirty.node.assign(n, 0);
  int dirty_count = 0;
  for (int i = 0; i < n; ++i) {
    const bool changed =
        dirty.fresh[i] ||
        std::memcmp(h0.data() + static_cast<size_t>(i) * d,
                    cache->h[0].data() + static_cast<size_t>(i) * d,
                    sizeof(float) * d) != 0;
    dirty.node[i] = changed ? 1 : 0;
    dirty_count += changed ? 1 : 0;
  }
  // Cost guard: past half the nodes, a delta step approaches full-encode
  // flops while paying extra bookkeeping — bail before mutating values.
  if (2 * dirty_count > n) return std::nullopt;

  for (int i = 0; i < n; ++i) {
    if (!dirty.node[i]) continue;
    std::memcpy(cache->h[0].data() + static_cast<size_t>(i) * d,
                h0.data() + static_cast<size_t>(i) * d, sizeof(float) * d);
  }

  // 4. Edge embeddings: dense recompute (O(n^2 d_e d), ~1% of a full
  // encode), dirty pair rows refreshed in the cache.
  const Tensor edges = feature_embed_->EmbedEdges(level);
  const Matrix& z0 = edges.value();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const size_t r = static_cast<size_t>(i) * n + j;
      if (!dirty.pair[r]) continue;
      std::memcpy(
          cache->z[0].data() +
              (static_cast<size_t>(i) * cache->cap + j) * d,
          z0.data() + r * d, sizeof(float) * d);
    }
  }

  // 5. The layer loop over the dirty sets; each layer reports what
  // actually changed so the dirty frontier stays tight.
  dirty.out_node.assign(n, 0);
  dirty.out_pair.assign(static_cast<size_t>(n) * n, 0);
  ForwardLayers(level, nullptr, nullptr, cache, &dirty, plan);
  cache->n = n;
  return MaterializeOutputs(*cache, n);
}

RtpPrediction M2g4Rtp::PredictIncremental(const synth::Sample& sample,
                                          IncrementalState* state,
                                          IncrementalResult* result) const {
  M2G_CHECK(state != nullptr);
  IncrementalResult local;
  IncrementalResult* res = result != nullptr ? result : &local;
  *res = IncrementalResult();
  return PredictPipeline(sample, state, res);
}

void M2g4Rtp::EncodeWithSession(graph::MultiLevelGraph* g, const Tensor& u,
                                EncodePlan* plan, IncrementalState* state,
                                IncrementalResult* res, EncodedLevel* loc_enc,
                                EncodedLevel* aoi_enc) const {
  static obs::Histogram& delta_hist = obs::StageHistogram("encode.delta.ms");
  IncrementalFallback why = IncrementalFallback::kNone;
  graph::LevelGraphDelta loc_delta, aoi_delta;
  if (!state->warm) {
    why = IncrementalFallback::kCold;
  } else if (state->u.size() != u.value().size() ||
             std::memcmp(state->u.data(), u.value().data(),
                         sizeof(float) * state->u.size()) != 0) {
    why = IncrementalFallback::kGlobalChanged;
  } else if (state->deltas_since_full + 1 >=
             static_cast<uint64_t>(config_.incremental_refresh_period)) {
    why = IncrementalFallback::kRefresh;
  } else {
    loc_delta = graph::DiffLevelGraph(state->graph.location, g->location);
    if (loc_delta.kind == graph::LevelDeltaKind::kStructural) {
      why = IncrementalFallback::kStructural;
    } else if (g->location.n > state->location.cap) {
      why = IncrementalFallback::kCapacity;
    }
    if (why == IncrementalFallback::kNone && config_.use_aoi_level) {
      aoi_delta = graph::DiffLevelGraph(state->graph.aoi, g->aoi);
      if (aoi_delta.kind == graph::LevelDeltaKind::kStructural) {
        why = IncrementalFallback::kStructural;
      } else if (g->aoi.n > state->aoi.cap) {
        why = IncrementalFallback::kCapacity;
      }
    }
  }
  if (why == IncrementalFallback::kNone) {
    obs::TraceSpan delta_span("encode.delta.ms", &delta_hist);
    std::optional<EncodedLevel> le = location_encoder_->EncodeDelta(
        g->location, state->graph.location, loc_delta, u, plan,
        &state->location);
    std::optional<EncodedLevel> ae;
    bool ok = le.has_value();
    if (ok && config_.use_aoi_level) {
      ae = aoi_encoder_->EncodeDelta(g->aoi, state->graph.aoi, aoi_delta, u,
                                     plan, &state->aoi);
      ok = ae.has_value();
    }
    if (ok) {
      *loc_enc = std::move(*le);
      if (config_.use_aoi_level) *aoi_enc = std::move(*ae);
      state->graph = std::move(*g);
      ++state->deltas_since_full;
      DeltaStepsCounter().Increment();
      res->delta = true;
      return;
    }
    why = IncrementalFallback::kDirtySpread;
  }
  res->fallback = why;
  if (why != IncrementalFallback::kCold) FullFallbacksCounter().Increment();
  *loc_enc = location_encoder_->EncodeFastCached(g->location, u, plan,
                                                 &state->location);
  if (config_.use_aoi_level) {
    *aoi_enc = aoi_encoder_->EncodeFastCached(g->aoi, u, plan, &state->aoi);
  }
  state->u = u.value();
  state->graph = std::move(*g);
  state->deltas_since_full = 0;
  state->warm = true;
}

}  // namespace m2g::core
