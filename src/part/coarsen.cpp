// Coarsening phase: heavy-edge matching and graph contraction.
#include <algorithm>
#include <numeric>

#include "internal.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu::part_detail {

IdxVec heavy_edge_matching(const Graph& g, Rng& rng) {
  IdxVec order(g.n);
  std::iota(order.begin(), order.end(), 0);
  for (idx i = g.n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_index(i + 1)]);
  }

  IdxVec match(g.n);
  std::iota(match.begin(), match.end(), 0);
  std::vector<std::uint8_t> matched(g.n, 0);
  for (const idx v : order) {
    if (matched[v]) continue;
    idx best = -1;
    idx best_weight = -1;
    for (nnz_t k = g.xadj[v]; k < g.xadj[v + 1]; ++k) {
      const idx u = g.adjncy[k];
      if (matched[u]) continue;
      if (g.ewgt[k] > best_weight) {
        best_weight = g.ewgt[k];
        best = u;
      }
    }
    matched[v] = 1;
    if (best >= 0) {
      matched[best] = 1;
      match[v] = best;
      match[best] = v;
    }
  }
  return match;
}

CoarseResult contract(const Graph& g, const IdxVec& match) {
  CoarseResult result;
  result.cmap.assign(g.n, -1);
  idx coarse_n = 0;
  for (idx v = 0; v < g.n; ++v) {
    if (result.cmap[v] >= 0) continue;
    const idx u = match[v];
    result.cmap[v] = coarse_n;
    result.cmap[u] = coarse_n;  // u == v when unmatched
    ++coarse_n;
  }

  Graph& c = result.graph;
  c.n = coarse_n;
  c.xadj.assign(coarse_n + 1, 0);
  c.vwgt.assign(coarse_n, 0);
  for (idx v = 0; v < g.n; ++v) c.vwgt[result.cmap[v]] += g.vwgt[v];

  // Accumulate coarse edges with a per-coarse-vertex dense scratch keyed by
  // neighbor coarse id (reset lazily via a stamp array). Coarse vertex cv
  // holds the fine vertex v that took its number and, if matched, its
  // partner match[v] > v; their edges are gathered in that order. The
  // coarse graph has at most as many edges as the fine one, so its arrays
  // are reserved once.
  IdxVec stamp(coarse_n, -1);
  IdxVec weight_at(coarse_n, 0);
  c.adjncy.reserve(g.adjncy.size());
  c.ewgt.reserve(g.adjncy.size());
  std::vector<std::pair<idx, idx>> row;  // (neighbor, weight)
  idx cv = -1;
  const auto gather = [&](idx v) {
    for (nnz_t k = g.xadj[v]; k < g.xadj[v + 1]; ++k) {
      const idx cu = result.cmap[g.adjncy[k]];
      if (cu == cv) continue;  // internal edge collapses away
      if (stamp[cu] != cv) {
        stamp[cu] = cv;
        weight_at[cu] = 0;
        row.emplace_back(cu, 0);
      }
      weight_at[cu] += g.ewgt[k];
    }
  };
  for (idx v = 0; v < g.n; ++v) {
    if (match[v] < v) continue;  // visited with its partner
    cv = result.cmap[v];
    row.clear();
    gather(v);
    if (match[v] != v) gather(match[v]);
    std::sort(row.begin(), row.end());
    for (auto& [cu, w] : row) {
      w = weight_at[cu];
      c.adjncy.push_back(cu);
      c.ewgt.push_back(w);
    }
    c.xadj[cv + 1] = static_cast<nnz_t>(c.adjncy.size());
  }
  c.adjncy.shrink_to_fit();
  c.ewgt.shrink_to_fit();
  return result;
}

}  // namespace ptilu::part_detail
