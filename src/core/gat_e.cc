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

void GatELayer::ForwardFast(const GatEFastArgs& a, EncodePlan* plan) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  const int n = a.n;
  const size_t block = a.block;
  const size_t nn = static_cast<size_t>(n) * n;
  M2G_CHECK(!GradMode::enabled());
  M2G_CHECK_EQ(plan->hidden_dim, d);
  M2G_CHECK_GE(plan->max_nodes, n);
  M2G_CHECK_GE(a.block, n);
  M2G_CHECK_EQ(a.adjacency->size(), nn);
  // Without a cache nothing can be reused: every pair is recomputed and
  // s_edge lives in the plan, packed at stride n.
  M2G_CHECK((a.ew3 != nullptr && a.se != nullptr) ||
            (a.block == n && a.node_dirty == nullptr &&
             a.pair_dirty == nullptr));
  FastLayerCounter().Increment();
  plan->ReserveHeads(num_heads_);
  const std::vector<bool>& adjacency = *a.adjacency;
  // A null flag array marks every entry dirty.
  const auto dirty = [](const unsigned char* flags, size_t k) {
    return flags == nullptr || flags[k] != 0;
  };

  // Attention rows to rerun: a row's alpha depends on its mask
  // membership, its own projections (s_src[i], and the msg rows it
  // aggregates), s_dst / msg of every unmasked neighbour, and the s_edge
  // entries of its unmasked columns (which follow the pair's z). A row
  // where none of those changed keeps its cached aggregate bit for bit
  // — even across an insertion whose new column is masked out, because
  // MaskedSoftmaxRowRaw writes exact zeros for masked entries and
  // AccumulateRowMatMul skips zero coefficients.
  std::vector<unsigned char> row_rec(n);
  for (int i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(i) * n;
    bool rec = dirty(a.row_changed, i) || dirty(a.node_dirty, i);
    for (int j = 0; j < n && !rec; ++j) {
      rec = adjacency[base + j] &&
            (dirty(a.node_dirty, j) || dirty(a.pair_dirty, base + j));
    }
    row_rec[i] = rec ? 1 : 0;
  }
  // Edge pairs: Eq. 23 reads z_ij, h_i and h_j (no mask). A pair whose z
  // changed recomputes z*W3 and s_edge; one with a clean z but a changed
  // endpoint reruns only the epilogue, on the cached z*W3.
  enum PairWork { kClean, kEpilogue, kFull };
  const auto pair_work = [&](int i, int j) {
    if (dirty(a.pair_dirty, static_cast<size_t>(i) * n + j)) return kFull;
    return dirty(a.node_dirty, i) || dirty(a.node_dirty, j) ? kEpilogue
                                                            : kClean;
  };

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
  float* wh = plan->wh.data();
  float* msg = plan->msg.data();
  float* nw4 = plan->nw4;  // head p at p * n * dh
  float* nw5 = plan->nw5;
  const auto se_of = [&](int p) {
    return a.se != nullptr ? a.se[p].data() : plan->s_edge + p * nn;
  };

  // Every matmul and logit kernel below dispatches through the runtime
  // SIMD tier (tensor/simd.h) — bitwise-identical on every tier — and
  // MatMulInto is the dispatcher MatMulRaw runs on the legacy graph, so
  // every row takes the path the legacy MatMul took for it. Each row and
  // each output column of a product is its own accumulation chain, so
  // multiplying any subset of rows, or stacking the heads' weights side
  // by side, changes no bit of any row's columns.
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
    MatMulInto(a.h_in, n, d, head.w4.value().data(), dh,
               nw4 + static_cast<size_t>(p) * n * dh);
    MatMulInto(a.h_in, n, d, head.w5.value().data(), dh,
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

  // Edge pass, one attention row at a time, over runs of consecutive
  // pairs that need the same work. Pair rows i*block + j of z are
  // contiguous in j, so one MatMulInto (row-block kernel) yields every
  // head's z*W3 (Eq. 23) and z*ae (the Eq. 20 s_edge term) for a run
  // while its rows are hot. The epilogue keeps the legacy association
  // order ew3 + (w4-term + w5-term); on the last layer the heads
  // accumulate in ascending order and the 1/P average (Eq. 26) follows
  // once all P are in.
  float* tile = plan->edge_tile;
  for (int i = 0; i < n; ++i) {
    const size_t pbase = static_cast<size_t>(i) * block;
    for (int j = 0, end; j < n; j = end) {
      const PairWork work = pair_work(i, j);
      for (end = j + 1; end < n && pair_work(i, end) == work; ++end) {
      }
      if (work == kClean) continue;
      const int len = end - j;
      float* out = edge_out + (static_cast<size_t>(i) * n + j) * d;
      if (work == kFull) {
        MatMulInto(a.z_in + (pbase + j) * d, len, d, edge_w, ew, tile);
      }
      for (int p = 0; p < heads; ++p) {
        // The cache row holds exactly z_ij * W3 (pre-epilogue).
        float* cached = a.ew3 != nullptr
                            ? a.ew3[p].data() + (pbase + j) * dh
                            : nullptr;
        const float* e3 = tile + p * dh;
        size_t e3_stride = ew;
        if (work == kFull) {
          float* se = se_of(p) + pbase + j;
          for (int t = 0; t < len; ++t) {
            se[t] = tile[static_cast<size_t>(t) * ew + heads * dh + p];
            if (cached != nullptr) {
              std::copy(e3 + static_cast<size_t>(t) * ew,
                        e3 + static_cast<size_t>(t) * ew + dh,
                        cached + static_cast<size_t>(t) * dh);
            }
          }
        } else {
          e3 = cached;
          e3_stride = dh;
        }
        simd::EdgeEpilogue(e3, e3_stride,
                           nw4 + (static_cast<size_t>(p) * n + i) * dh,
                           nw5 + (static_cast<size_t>(p) * n + j) * dh, len,
                           dh, out + col0(p), d, last && p > 0);
      }
      if (last) {
        for (size_t t = 0, e = static_cast<size_t>(len) * d; t < e; ++t) {
          out[t] *= inv;
        }
      }
    }
  }

  for (int p = 0; p < heads; ++p) {
    const Head& head = heads_[p];
    const float* se = se_of(p);
    // Eq. 20/22 projections, then the attention rows: logits -> masked
    // softmax -> aggregation, fused (Eq. 20-22), no (1, n) or (1, dh)
    // temporaries. Per-node projections run over all n rows: they are
    // O(n d dh), noise next to the n^2 terms.
    MatMulInto(a.h_in, n, d, head.w1.value().data(), dh, wh);
    MatMulInto(wh, n, dh, head.av_src.value().data(), 1, s_src);
    MatMulInto(wh, n, dh, head.av_dst.value().data(), 1, s_dst);
    MatMulInto(a.h_in, n, d, head.w2.value().data(), dh, msg);
    for (int i = 0; i < n; ++i) {
      if (!row_rec[i]) continue;
      GatLogitsRow(s_dst, se + static_cast<size_t>(i) * block, s_src[i],
                   leaky_slope_, n, plan->logits.data());
      MaskedSoftmaxRowRaw(plan->logits.data(), adjacency,
                          static_cast<size_t>(i) * n, n, plan->alpha.data());
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
    for (int i = 0; i < n; ++i) {
      if (!row_rec[i]) continue;
      float* row = node_out + static_cast<size_t>(i) * d;
      for (int c = 0; c < d; ++c) {
        const float v = row[c] * inv;
        row[c] = v > 0.0f ? v : 0.0f;
      }
    }
  }

  // Residual + write-back over the recompute sets: out = in + layer
  // output, the legacy Add's per-element order. With out flags, the sum
  // is compared against the row it replaces first, so the next layer's
  // dirty set stays tight; rows with no history (fresh nodes) are dirty
  // by definition.
  float* scratch = plan->row.data();  // (1, d); free after the head loop
  const auto write_back = [&](const float* in, const float* delta,
                              float* out, bool fresh,
                              unsigned char* changed) {
    if (changed == nullptr) {
      for (int c = 0; c < d; ++c) out[c] = in[c] + delta[c];
      return;
    }
    for (int c = 0; c < d; ++c) scratch[c] = in[c] + delta[c];
    *changed = fresh || std::memcmp(scratch, out, sizeof(float) * d) != 0;
    if (*changed) std::copy(scratch, scratch + d, out);
  };
  for (int i = 0; i < n; ++i) {
    unsigned char* changed =
        a.out_node_dirty != nullptr ? a.out_node_dirty + i : nullptr;
    if (!row_rec[i]) {
      if (changed != nullptr) *changed = 0;
      continue;
    }
    const size_t r = static_cast<size_t>(i) * d;
    write_back(a.h_in + r, node_out + r, a.h_out + r, dirty(a.fresh, i),
               changed);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const size_t r = static_cast<size_t>(i) * n + j;
      const size_t pr = (static_cast<size_t>(i) * block + j) * d;
      unsigned char* changed =
          a.out_pair_dirty != nullptr ? a.out_pair_dirty + r : nullptr;
      if (pair_work(i, j) == kClean) {
        if (changed != nullptr) *changed = 0;
        continue;
      }
      write_back(a.z_in + pr, edge_out + r * d, a.z_out + pr,
                 dirty(a.fresh, i) || dirty(a.fresh, j), changed);
    }
  }
}

}  // namespace m2g::core
