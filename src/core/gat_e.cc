#include "core/gat_e.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "nn/init.h"
#include "obs/metrics.h"
#include "tensor/grad_mode.h"
#include "tensor/simd.h"

namespace m2g::core {
namespace {

obs::Counter& FastLayerCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.fast_layers");
  return c;
}

obs::Counter& LegacyLayerCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.legacy_layers");
  return c;
}

}  // namespace

GatELayer::GatELayer(const ModelConfig& config, bool is_last, Rng* rng)
    : hidden_dim_(config.hidden_dim),
      num_heads_(config.num_heads),
      // Hidden layers concatenate P heads back to d; the last layer
      // averages full-width heads (Eq. 26).
      head_dim_(is_last ? config.hidden_dim
                        : config.hidden_dim / config.num_heads),
      is_last_(is_last),
      leaky_slope_(config.leaky_slope) {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  heads_.reserve(num_heads_);
  for (int p = 0; p < num_heads_; ++p) {
    Head h;
    const std::string prefix = StrFormat("head%d_", p);
    h.w1 = AddParameter(prefix + "w1", nn::XavierUniform(d, dh, rng));
    h.av_src = AddParameter(prefix + "av_src",
                            nn::XavierUniform(dh, 1, rng));
    h.av_dst = AddParameter(prefix + "av_dst",
                            nn::XavierUniform(dh, 1, rng));
    h.ae = AddParameter(prefix + "ae", nn::XavierUniform(d, 1, rng));
    h.w2 = AddParameter(prefix + "w2", nn::XavierUniform(d, dh, rng));
    h.w3 = AddParameter(prefix + "w3", nn::XavierUniform(d, dh, rng));
    h.w4 = AddParameter(prefix + "w4", nn::XavierUniform(d, dh, rng));
    h.w5 = AddParameter(prefix + "w5", nn::XavierUniform(d, dh, rng));
    heads_.push_back(std::move(h));
  }
}

GatEOutput GatELayer::Forward(const Tensor& nodes, const Tensor& edges,
                              const std::vector<bool>& adjacency) const {
  const int n = nodes.rows();
  M2G_CHECK_EQ(nodes.cols(), hidden_dim_);
  M2G_CHECK_EQ(edges.rows(), n * n);
  M2G_CHECK_EQ(adjacency.size(), static_cast<size_t>(n) * n);
  LegacyLayerCounter().Increment();

  // Pair index vectors for the edge update (Eq. 23): row i*n+j pairs
  // node i with node j.
  std::vector<int> src_idx(static_cast<size_t>(n) * n);
  std::vector<int> dst_idx(static_cast<size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      src_idx[i * n + j] = i;
      dst_idx[i * n + j] = j;
    }
  }

  std::vector<Tensor> node_heads;
  std::vector<Tensor> edge_heads;
  node_heads.reserve(heads_.size());
  edge_heads.reserve(heads_.size());

  for (const Head& head : heads_) {
    // Eq. 20 decomposed: c_ij = LeakyReLU(s_src[i] + s_dst[j] + s_e[ij]).
    Tensor wh = MatMul(nodes, head.w1);            // (n, dh)
    Tensor s_src = MatMul(wh, head.av_src);        // (n, 1)
    Tensor s_dst_row = Transpose(MatMul(wh, head.av_dst));  // (1, n)
    Tensor s_edge = MatMul(edges, head.ae);        // (n*n, 1)
    // Messages. (Eq. 22 as printed applies W2 to h_i; aggregating the
    // *neighbour* representation h_j is the standard GAT formulation and
    // the only reading under which attention weights matter, so we use
    // h_j.)
    Tensor messages = MatMul(nodes, head.w2);      // (n, dh)

    std::vector<Tensor> out_rows;
    out_rows.reserve(n);
    for (int i = 0; i < n; ++i) {
      // Attention logits over node i's neighbourhood.
      Tensor s_e_row = Transpose(SliceRows(s_edge, i * n, n));  // (1, n)
      Tensor logits = LeakyRelu(
          AddScalarTensor(Add(s_dst_row, s_e_row), Row(s_src, i)),
          leaky_slope_);
      std::vector<bool> mask(adjacency.begin() + i * n,
                             adjacency.begin() + (i + 1) * n);
      Tensor alpha = MaskedSoftmaxRow(logits, mask);  // Eq. 21
      out_rows.push_back(MatMul(alpha, messages));    // (1, dh)
    }
    Tensor head_nodes = ConcatRows(out_rows);
    if (!is_last_) head_nodes = Relu(head_nodes);  // Eq. 24 vs Eq. 26
    node_heads.push_back(head_nodes);

    // Eq. 23 / 25: z'_ij = ReLU(W3 z_ij + W4 h_i + W5 h_j).
    Tensor edge_update =
        Add(MatMul(edges, head.w3),
            Add(MatMul(GatherRows(nodes, src_idx), head.w4),
                MatMul(GatherRows(nodes, dst_idx), head.w5)));
    edge_heads.push_back(Relu(edge_update));
  }

  GatEOutput out;
  if (is_last_) {
    // Average the full-width heads, then the delayed activation (Eq. 26).
    Tensor acc = node_heads[0];
    for (size_t p = 1; p < node_heads.size(); ++p) {
      acc = Add(acc, node_heads[p]);
    }
    out.nodes = Relu(Scale(acc, 1.0f / static_cast<float>(num_heads_)));
    Tensor eacc = edge_heads[0];
    for (size_t p = 1; p < edge_heads.size(); ++p) {
      eacc = Add(eacc, edge_heads[p]);
    }
    out.edges = Scale(eacc, 1.0f / static_cast<float>(num_heads_));
  } else {
    Tensor nodes_cat = node_heads[0];
    Tensor edges_cat = edge_heads[0];
    for (size_t p = 1; p < node_heads.size(); ++p) {
      nodes_cat = ConcatCols(nodes_cat, node_heads[p]);
      edges_cat = ConcatCols(edges_cat, edge_heads[p]);
    }
    out.nodes = nodes_cat;
    out.edges = edges_cat;
  }
  return out;
}

void GatELayer::ForwardFast(const Matrix& nodes, const Matrix& edges,
                            const std::vector<bool>& adjacency,
                            EncodePlan* plan, GatECapture* capture) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  const int n = nodes.rows();
  M2G_CHECK(!GradMode::enabled());
  M2G_CHECK_EQ(plan->hidden_dim, d);
  M2G_CHECK_EQ(nodes.cols(), d);
  M2G_CHECK_EQ(edges.rows(), n * n);
  M2G_CHECK_EQ(edges.cols(), d);
  M2G_CHECK_EQ(adjacency.size(), static_cast<size_t>(n) * n);
  M2G_CHECK_GE(plan->max_nodes, n);
  FastLayerCounter().Increment();
  plan->ReserveHeads(num_heads_);

  const int heads = num_heads_;
  const bool last = is_last_;
  // Hidden layers write head p's columns of the concat epilogue (Eq.
  // 24/25) in place; the last layer averages full-width heads, so head 0
  // seeds the accumulator and later heads add onto it in ascending order
  // — the sequential elementwise adds of the legacy epilogue (Eq. 26).
  const auto col0 = [&](int p) { return last ? 0 : p * dh; };
  const float inv = 1.0f / static_cast<float>(heads);
  float* node_out = plan->node_out.data();
  float* edge_out = plan->edge_out.data();
  float* s_src = plan->s_src.data();
  float* s_dst = plan->s_dst.data();
  float* s_edge = plan->s_edge;  // head p at p * n^2
  float* wh = plan->wh.data();
  float* msg = plan->msg.data();
  float* nw4 = plan->nw4;  // head p at p * n * dh
  float* nw5 = plan->nw5;
  const size_t nn = static_cast<size_t>(n) * n;

  // Every matmul and logit kernel below dispatches through the runtime
  // SIMD tier (tensor/simd.h) — bitwise-identical on every tier — and
  // MatMulInto is the dispatcher MatMulRaw runs on the legacy graph, so
  // every row takes the path the legacy MatMul took for it. Each output
  // column of a product is its own accumulation chain, so stacking the
  // heads' weights side by side changes no bit of any head's columns.
  //
  // Eq. 23 node terms, hoisted out of the n^2 edge loop: the legacy
  // MatMul(GatherRows(nodes, idx), W) accumulates every gathered row
  // from zero, so its row (i, j) is bit-identical to row i of nodes * W —
  // two (n, dh) products per head replace two (n^2, dh) ones. The edge
  // weights of all heads are stacked into one (d, P*dh + P) matrix:
  // [W3 of head 0 | ... | W3 of head P-1 | ae of head 0 .. P-1].
  const int ew = heads * dh + heads;
  float* edge_w = plan->edge_w;
  for (int p = 0; p < heads; ++p) {
    const Head& head = heads_[p];
    MatMulInto(nodes.data(), n, d, head.w4.value().data(), dh,
               nw4 + static_cast<size_t>(p) * n * dh);
    MatMulInto(nodes.data(), n, d, head.w5.value().data(), dh,
               nw5 + static_cast<size_t>(p) * n * dh);
    const float* w3 = head.w3.value().data();
    const float* ae = head.ae.value().data();
    for (int q = 0; q < d; ++q) {
      std::copy(w3 + static_cast<size_t>(q) * dh,
                w3 + static_cast<size_t>(q) * dh + dh,
                edge_w + static_cast<size_t>(q) * ew + p * dh);
      edge_w[static_cast<size_t>(q) * ew + heads * dh + p] = ae[q];
    }
  }

  // Edge pass, one attention row's n pairs at a time: pair rows i*n ..
  // i*n+n-1 of z are contiguous, so one MatMulInto (row-block kernel)
  // yields every head's z*W3 (Eq. 23) and z*ae (the Eq. 20 s_edge term)
  // for them while the rows are hot. The epilogue keeps the legacy
  // association order ew3 + (w4-term + w5-term); on the last layer the
  // heads accumulate in ascending order and the 1/P average (Eq. 26)
  // follows once all P are in.
  float* tile = plan->edge_tile;
  for (int i = 0; i < n; ++i) {
    const size_t r0 = static_cast<size_t>(i) * n;
    MatMulInto(edges.data() + r0 * d, n, d, edge_w, ew, tile);
    float* out = edge_out + r0 * d;
    for (int p = 0; p < heads; ++p) {
      float* se = s_edge + p * nn + r0;
      for (int j = 0; j < n; ++j) {
        se[j] = tile[static_cast<size_t>(j) * ew + heads * dh + p];
      }
      const float* e3 = tile + p * dh;
      if (capture != nullptr) {
        // e3 holds exactly z_ij * W3 (pre-epilogue): the value the delta
        // path caches per (layer, head, pair).
        float* cached =
            capture->ew3[p] + static_cast<size_t>(i) * capture->block * dh;
        for (int j = 0; j < n; ++j) {
          std::copy(e3 + static_cast<size_t>(j) * ew,
                    e3 + static_cast<size_t>(j) * ew + dh,
                    cached + static_cast<size_t>(j) * dh);
        }
      }
      simd::EdgeEpilogue(e3, ew, nw4 + (static_cast<size_t>(p) * n + i) * dh,
                         nw5 + static_cast<size_t>(p) * n * dh, n, dh,
                         out + col0(p), d, last && p > 0);
    }
    if (last) {
      for (size_t t = 0, end = static_cast<size_t>(n) * d; t < end; ++t) {
        out[t] *= inv;
      }
    }
  }

  for (int p = 0; p < heads; ++p) {
    const Head& head = heads_[p];
    const float* se = s_edge + p * nn;
    if (capture != nullptr) {
      // Donate this head's s_edge column to the session cache, re-laid
      // from dense (i*n + j) rows to padded (i*block + j) rows.
      for (int i = 0; i < n; ++i) {
        std::copy(se + static_cast<size_t>(i) * n,
                  se + static_cast<size_t>(i) * n + n,
                  capture->se[p] + static_cast<size_t>(i) * capture->block);
      }
    }
    // Eq. 20/22 projections, then the attention rows: logits -> masked
    // softmax -> aggregation, fused (Eq. 20-22), no (1, n) or (1, dh)
    // temporaries.
    MatMulInto(nodes.data(), n, d, head.w1.value().data(), dh, wh);
    MatMulInto(wh, n, dh, head.av_src.value().data(), 1, s_src);
    MatMulInto(wh, n, dh, head.av_dst.value().data(), 1, s_dst);
    MatMulInto(nodes.data(), n, d, head.w2.value().data(), dh, msg);
    for (int i = 0; i < n; ++i) {
      const size_t base = static_cast<size_t>(i) * n;
      GatLogitsRow(s_dst, se + base, s_src[i], leaky_slope_, n,
                   plan->logits.data());
      MaskedSoftmaxRowRaw(plan->logits.data(), adjacency, base, n,
                          plan->alpha.data());
      float* dst = (last && p > 0)
                       ? plan->row.data()
                       : node_out + static_cast<size_t>(i) * d + col0(p);
      std::fill(dst, dst + dh, 0.0f);
      AccumulateRowMatMul(plan->alpha.data(), n, msg, dh, dst);
      if (!last) {
        for (int c = 0; c < dh; ++c) {
          dst[c] = dst[c] > 0.0f ? dst[c] : 0.0f;
        }
      } else if (p > 0) {
        float* acc = node_out + static_cast<size_t>(i) * d;
        for (int c = 0; c < dh; ++c) acc[c] += dst[c];
      }
    }
  }

  if (last) {
    // Eq. 26 node epilogue: scale the head sums by 1/P, then the delayed
    // ReLU.
    for (size_t t = 0, end = static_cast<size_t>(n) * d; t < end; ++t) {
      const float v = node_out[t] * inv;
      node_out[t] = v > 0.0f ? v : 0.0f;
    }
  }
}

void GatELayer::ForwardFastDelta(GatEDeltaItem* item,
                                 EncodePlan* plan) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  const int n = item->n;
  const int block = item->block;
  M2G_CHECK(!GradMode::enabled());
  M2G_CHECK_EQ(plan->hidden_dim, d);
  M2G_CHECK_GE(plan->max_nodes, n);
  M2G_CHECK_GE(block, n);
  M2G_CHECK_EQ(item->adjacency->size(), static_cast<size_t>(n) * n);
  plan->ReserveHeads(num_heads_);
  const std::vector<bool>& adjacency = *item->adjacency;

  // Which attention rows must rerun: a row's alpha depends on its mask
  // membership, its own projections (s_src[i], and msg rows it
  // aggregates), s_dst / msg of every unmasked neighbour, and the s_edge
  // entries of its unmasked columns (which follow the pair's z). Rows
  // where none of those changed keep their cached aggregate bit for bit
  // — including across an insertion whose new column is masked out,
  // because MaskedSoftmaxRowRaw writes exact zeros for masked entries
  // and AccumulateRowMatMul skips zero coefficients.
  std::vector<unsigned char> row_rec(n, 0);
  for (int i = 0; i < n; ++i) {
    if (item->row_changed[i] || item->node_dirty[i]) {
      row_rec[i] = 1;
      continue;
    }
    const size_t base = static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      if (adjacency[base + j] &&
          (item->node_dirty[j] || item->pair_dirty[base + j])) {
        row_rec[i] = 1;
        break;
      }
    }
  }
  // Which edge pairs must rerun: Eq. 23 reads z_ij, h_i and h_j (no
  // mask), so a pair reruns iff any of the three changed.
  std::vector<unsigned char> pair_rec(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      pair_rec[base + j] = (item->pair_dirty[base + j] ||
                            item->node_dirty[i] || item->node_dirty[j])
                               ? 1
                               : 0;
    }
  }

  const bool last = is_last_;
  float* node_out = plan->node_out.data();
  float* edge_out = plan->edge_out.data();
  for (int p = 0; p < num_heads_; ++p) {
    const Head& head = heads_[p];
    // Per-node projections are recomputed in full: they are O(n d dh) —
    // noise next to the n^2 terms — and a full MatMulInto reproduces the
    // warm forward's bits for clean rows for free.
    MatMulInto(item->h_in, n, d, head.w1.value().data(), dh,
               plan->wh.data());
    MatMulInto(plan->wh.data(), n, dh, head.av_src.value().data(), 1,
               plan->s_src.data());
    MatMulInto(plan->wh.data(), n, dh, head.av_dst.value().data(), 1,
               plan->s_dst.data());
    MatMulInto(item->h_in, n, d, head.w2.value().data(), dh,
               plan->msg.data());
    MatMulInto(item->h_in, n, d, head.w4.value().data(), dh, plan->nw4);
    MatMulInto(item->h_in, n, d, head.w5.value().data(), dh, plan->nw5);
    const float* s_src = plan->s_src.data();
    const float* s_dst = plan->s_dst.data();
    const float* msg = plan->msg.data();
    const float* nw4 = plan->nw4;
    const float* nw5 = plan->nw5;

    // s_edge updates for pairs whose z_l changed (one row of the full
    // product: zeroed accumulator + AccumulateRowMatMul — MatMulInto's
    // exact bits for that row).
    float* se = item->se[p];
    for (int i = 0; i < n; ++i) {
      const size_t base = static_cast<size_t>(i) * n;
      const size_t pbase = static_cast<size_t>(i) * block;
      for (int j = 0; j < n; ++j) {
        if (!item->pair_dirty[base + j]) continue;
        float* dst = se + pbase + j;
        *dst = 0.0f;
        AccumulateRowMatMul(item->z_in + (pbase + j) * d, d,
                            head.ae.value().data(), 1, dst);
      }
    }

    const int col0 = last ? 0 : p * dh;
    // Attention rows (Eq. 20-22), only the recompute set; cached rows of
    // h_out are left untouched.
    for (int i = 0; i < n; ++i) {
      if (!row_rec[i]) continue;
      const size_t base = static_cast<size_t>(i) * n;
      GatLogitsRow(s_dst, se + static_cast<size_t>(i) * block, s_src[i],
                   leaky_slope_, n, plan->logits.data());
      MaskedSoftmaxRowRaw(plan->logits.data(), adjacency, base, n,
                          plan->alpha.data());
      float* dst = (last && p > 0)
                       ? plan->row.data()
                       : node_out + static_cast<size_t>(i) * d + col0;
      std::fill(dst, dst + dh, 0.0f);
      AccumulateRowMatMul(plan->alpha.data(), n, msg, dh, dst);
      if (!last) {
        for (int c = 0; c < dh; ++c) {
          dst[c] = dst[c] > 0.0f ? dst[c] : 0.0f;
        }
      } else if (p > 0) {
        float* acc = node_out + static_cast<size_t>(i) * d;
        for (int c = 0; c < dh; ++c) acc[c] += dst[c];
      }
    }

    // Edge updates (Eq. 23/25), only the recompute set. Pairs with a
    // clean z but a dirty endpoint reuse the cached z*W3 product and pay
    // only the dh-wide epilogue.
    for (int i = 0; i < n; ++i) {
      const float* nw4_row = nw4 + static_cast<size_t>(i) * dh;
      const size_t base = static_cast<size_t>(i) * n;
      const size_t pbase = static_cast<size_t>(i) * block;
      for (int j = 0; j < n; ++j) {
        if (!pair_rec[base + j]) continue;
        const size_t r = base + j;
        float* e3 = item->ew3[p] + (pbase + j) * dh;
        if (item->pair_dirty[r]) {
          std::fill(e3, e3 + dh, 0.0f);
          AccumulateRowMatMul(item->z_in + (pbase + j) * d, d,
                              head.w3.value().data(), dh, e3);
        }
        simd::EdgeEpilogue(e3, dh, nw4_row, nw5 + static_cast<size_t>(j) * dh,
                           1, dh, edge_out + r * d + col0, d, last && p > 0);
      }
    }
  }

  if (last) {
    // Eq. 26 epilogue over the recomputed rows/pairs only.
    const float inv = 1.0f / static_cast<float>(num_heads_);
    for (int i = 0; i < n; ++i) {
      if (!row_rec[i]) continue;
      float* row = node_out + static_cast<size_t>(i) * d;
      for (int c = 0; c < d; ++c) {
        const float v = row[c] * inv;
        row[c] = v > 0.0f ? v : 0.0f;
      }
    }
    for (size_t r = 0, nn = static_cast<size_t>(n) * n; r < nn; ++r) {
      if (!pair_rec[r]) continue;
      float* row = edge_out + r * d;
      for (int c = 0; c < d; ++c) row[c] *= inv;
    }
  }

  // Residual + write-back: h_{l+1}[i] = h_l[i] + node_out[i] (the same
  // per-element addition order as the full path's in-place residual).
  // Each recomputed row is compared against its cached successor before
  // overwrite so the next layer's dirty set stays tight; rows with no
  // history (fresh nodes) are dirty by definition.
  float* scratch = plan->row.data();  // (1, d); free after the head loop
  for (int i = 0; i < n; ++i) {
    if (!row_rec[i]) {
      item->out_node_dirty[i] = 0;
      continue;
    }
    const float* hi = item->h_in + static_cast<size_t>(i) * d;
    const float* no = node_out + static_cast<size_t>(i) * d;
    for (int c = 0; c < d; ++c) scratch[c] = hi[c] + no[c];
    float* cached = item->h_out + static_cast<size_t>(i) * d;
    const bool dirty =
        item->fresh[i] ||
        std::memcmp(scratch, cached, sizeof(float) * d) != 0;
    item->out_node_dirty[i] = dirty ? 1 : 0;
    if (dirty) std::copy(scratch, scratch + d, cached);
  }
  for (int i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(i) * n;
    const size_t pbase = static_cast<size_t>(i) * block;
    for (int j = 0; j < n; ++j) {
      const size_t r = base + j;
      if (!pair_rec[r]) {
        item->out_pair_dirty[r] = 0;
        continue;
      }
      const float* zi = item->z_in + (pbase + j) * d;
      const float* eo = edge_out + r * d;
      for (int c = 0; c < d; ++c) scratch[c] = zi[c] + eo[c];
      float* cached = item->z_out + (pbase + j) * d;
      const bool dirty =
          item->fresh[i] || item->fresh[j] ||
          std::memcmp(scratch, cached, sizeof(float) * d) != 0;
      item->out_pair_dirty[r] = dirty ? 1 : 0;
      if (dirty) std::copy(scratch, scratch + d, cached);
    }
  }
}

}  // namespace m2g::core
