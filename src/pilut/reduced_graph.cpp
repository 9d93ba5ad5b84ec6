#include "reduced_graph.hpp"

#include <algorithm>
#include <cstring>

#include "ptilu/support/check.hpp"

namespace ptilu::pilut_detail {

ReducedGraph::ReducedGraph(const DistCsr& dist, int lanes)
    : dist_(&dist),
      in_(static_cast<std::size_t>(dist.n())),
      pos_(dist.n(), -1),
      ranks_(static_cast<std::size_t>(dist.nranks)),
      lanes_(static_cast<std::size_t>(lanes)) {
  for (LaneScratch& lane : lanes_) {
    lane.rank_stamp.assign(static_cast<std::size_t>(dist.nranks), 0);
    lane.last_row.assign(static_cast<std::size_t>(dist.nranks), -1);
    lane.kept.assign(static_cast<std::size_t>(dist.n()), 0);
  }
}

void ReducedGraph::begin_level(int r, const IdxVec& active,
                               const std::vector<SparseRow>& tails) {
  for (std::size_t i = 0; i < active.size(); ++i) pos_[active[i]] = static_cast<idx>(i);
  RankState& rs = ranks_[r];
  if (rs.built) return;
  rs.built = true;
  rs.slot.assign(dist_->n(), -1);
  const IdxVec& owner = dist_->owner;
  rs.remote_ptr.assign(1, 0);
  rs.remote_cols.clear();
  for (const idx v : active) {  // ascending, so every in-edge list comes out sorted
    for (const idx c : tails[v].cols) {
      if (c == v) continue;
      ++rs.out_edges;
      if (owner[c] == r) {
        in_[c].push_back(v);
      } else {
        rs.remote_cols.push_back(c);
        add_remote_ref(rs, v, c);
      }
    }
    rs.remote_ptr.push_back(static_cast<idx>(rs.remote_cols.size()));
  }
}

void ReducedGraph::queue_reverse_pairs(int r, int lane, const IdxVec& active,
                                       std::vector<IdxVec>& reverse_out) {
  RankState& rs = ranks_[r];
  IdxVec& last = lanes_[static_cast<std::size_t>(lane)].last_row;
  std::fill(last.begin(), last.end(), -1);
  const IdxVec& owner = dist_->owner;
  // The ranks each row sends a pair to are the owners of its remote
  // out-columns: half of its peer index, collected on the way.
  rs.out_peer_ptr.assign(1, 0);
  rs.out_peers.clear();
  for (std::size_t i = 0; i < active.size(); ++i) {
    const idx v = active[i];
    for (idx k = rs.remote_ptr[i]; k < rs.remote_ptr[i + 1]; ++k) {
      const idx c = rs.remote_cols[k];
      const int peer = owner[c];
      IdxVec& out = reverse_out[peer];
      out.push_back(c);
      out.push_back(v);
      if (last[peer] != v) {
        last[peer] = v;
        rs.out_peers.push_back(peer);
      }
    }
    rs.out_peer_ptr.push_back(static_cast<idx>(rs.out_peers.size()));
  }
}

void ReducedGraph::assemble(int r, int lane, const IdxVec& active,
                            const std::vector<SparseRow>& tails,
                            const std::vector<sim::Message>& messages,
                            DistGraph::Part& part) {
  RankState& rs = ranks_[r];
  LaneScratch& ls = lanes_[static_cast<std::size_t>(lane)];
  const std::size_t na = active.size();

  // Remote in-edges by target position: a stable counting sort of the
  // pairs in message (sender rank) order keeps each sender's scan order.
  // Each entry also records its sender, the owner of its source. The
  // payloads are read in place.
  const auto pair_at = [](const sim::Message& msg, std::size_t k) {
    idx value;
    std::memcpy(&value, msg.payload.data() + k * sizeof(idx), sizeof(idx));
    return value;
  };
  rs.rin_ptr.assign(na + 1, 0);
  std::size_t received = 0;
  for (const sim::Message& msg : messages) {
    const std::size_t words = msg.payload.size() / sizeof(idx);
    for (std::size_t k = 0; k < words; k += 2) ++rs.rin_ptr[pos_[pair_at(msg, k)] + 1];
    received += words / 2;
  }
  for (std::size_t i = 0; i < na; ++i) rs.rin_ptr[i + 1] += rs.rin_ptr[i];
  rs.rin_src.resize(received);
  ls.rin_from.resize(received);
  ls.cursor.assign(rs.rin_ptr.begin(), rs.rin_ptr.end() - 1);
  for (const sim::Message& msg : messages) {
    const std::size_t words = msg.payload.size() / sizeof(idx);
    for (std::size_t k = 0; k < words; k += 2) {
      const idx at = ls.cursor[pos_[pair_at(msg, k)]]++;
      rs.rin_src[at] = pair_at(msg, k + 1);
      ls.rin_from[at] = msg.from;
    }
  }

  part.verts.assign(active.begin(), active.end());
  part.seg.resize(na * DistGraph::kSegments);
  // Entries: the out-edges, the local in-edges (one per local out-edge of
  // this rank) and the remote in-edges just received.
  part.entries = 2 * rs.out_edges - rs.remote_cols.size() + received;
  const idx* rin = rs.rin_src.data();
  for (std::size_t i = 0; i < na; ++i) {
    const idx v = active[i];
    const IdxVec& in = in_[v];
    const idx* split = std::lower_bound(in.data(), in.data() + in.size(), v);
    const IdxVec& out = tails[v].cols;
    DistGraph::Range* seg = part.seg.data() + i * DistGraph::kSegments;
    seg[0] = {in.data(), split};
    seg[1] = {out.data(), out.data() + out.size()};
    seg[2] = {split, in.data() + in.size()};
    seg[3] = {rin + rs.rin_ptr[i], rin + rs.rin_ptr[i + 1]};
  }
  // Peers: the ranks a vertex sent pairs to, then the ranks that sent
  // pairs for it (consecutive in its in-edge slice).
  part.index_peers(ls.rank_stamp, [&](std::size_t i, const auto& add) {
    for (idx k = rs.out_peer_ptr[i]; k < rs.out_peer_ptr[i + 1]; ++k) add(rs.out_peers[k]);
    int prev = -1;
    for (idx k = rs.rin_ptr[i]; k < rs.rin_ptr[i + 1]; ++k) {
      if (ls.rin_from[k] != prev) add(prev = ls.rin_from[k]);
    }
  });
}

void ReducedGraph::retire_row(int r, idx v, const SparseRow& tail) {
  RankState& rs = ranks_[r];
  for (const idx c : tail.cols) {
    if (c == v) continue;
    --rs.out_edges;
    if (dist_->owner[c] == r) {
      remove_local_ref(v, c);
    } else {
      // The row stays in the column's list, now stale: eliminations()
      // skips retired rows, and only the live count must be exact.
      const idx s = rs.slot[c];
      if (--rs.live[s] == 0) release_slot(rs, c);
    }
  }
  pos_[v] = -1;
}

const IdxVec* ReducedGraph::rows_referencing(int r, idx v) const {
  if (dist_->owner[v] == r) return &in_[v];
  const RankState& rs = ranks_[r];
  const idx s = rs.slot[v];
  return s < 0 ? nullptr : &rs.rows[s];
}

void ReducedGraph::eliminations(int r, std::size_t n_active, const IdxVec& iset, IdxVec& ptr,
                                IdxVec& cols) const {
  ptr.assign(n_active + 1, 0);
  for (const idx v : iset) {
    if (const IdxVec* rows = rows_referencing(r, v)) {
      for (const idx i : *rows) {
        if (pos_[i] >= 0) ++ptr[pos_[i] + 1];
      }
    }
  }
  for (std::size_t k = 0; k < n_active; ++k) ptr[k + 1] += ptr[k];
  cols.resize(static_cast<std::size_t>(ptr[n_active]));
  // Fill with ptr[k] as row k's cursor, which leaves ptr[k] at row k's
  // end, i.e. row k + 1's start; shifting by one restores the offsets.
  for (const idx v : iset) {
    if (const IdxVec* rows = rows_referencing(r, v)) {
      for (const idx i : *rows) {
        if (pos_[i] >= 0) cols[ptr[pos_[i]]++] = v;
      }
    }
  }
  for (std::size_t k = n_active; k > 0; --k) ptr[k] = ptr[k - 1];
  ptr[0] = 0;
}

void ReducedGraph::keep_row(int r, std::size_t pos) {
  RankState& rs = ranks_[r];
  rs.next_cols.insert(rs.next_cols.end(), rs.remote_cols.begin() + rs.remote_ptr[pos],
                      rs.remote_cols.begin() + rs.remote_ptr[pos + 1]);
  rs.next_ptr.push_back(static_cast<idx>(rs.next_cols.size()));
}

void ReducedGraph::update_row(int r, int lane, std::size_t pos, idx i, const IdxVec& touched,
                              std::size_t old_size, bool old_diag, const SparseRow& tail,
                              bool new_diag, bool capped,
                              const std::vector<std::uint8_t>& in_set) {
  RankState& rs = ranks_[r];
  IdxVec& next = rs.next_cols;
  rs.out_edges += (tail.size() - new_diag) - (old_size - old_diag);  // unsigned wrap is exact
  // The I_l columns leave with the level (end_level forgets their index
  // entries wholesale), so only the row's remote list sheds them.
  if (!capped) {
    // The new tail is the old one minus I_l, then the fill in insertion
    // order: touched[old_size, end).
    for (idx k = rs.remote_ptr[pos]; k < rs.remote_ptr[pos + 1]; ++k) {
      if (!in_set[rs.remote_cols[k]]) next.push_back(rs.remote_cols[k]);
    }
    for (std::size_t k = old_size; k < touched.size(); ++k) {
      const idx c = touched[k];
      if (c == i) continue;
      add_edge(r, i, c);
      if (dist_->owner[c] != r) next.push_back(c);
    }
  } else {
    // Capped: the selection may drop old columns as well as fill, and the
    // new tail comes sorted by column.
    std::vector<std::uint8_t>& kept = lanes_[static_cast<std::size_t>(lane)].kept;
    for (const idx c : tail.cols) kept[c] = 1;
    for (std::size_t k = 0; k < touched.size(); ++k) {
      const idx c = touched[k];
      if (c == i || in_set[c]) continue;
      const bool fill = k >= old_size;
      if (kept[c] && fill) {
        add_edge(r, i, c);
      } else if (!kept[c] && !fill) {
        remove_edge(r, i, c);
      }
    }
    for (const idx c : tail.cols) {
      kept[c] = 0;
      if (c != i && dist_->owner[c] != r) next.push_back(c);
    }
  }
  rs.next_ptr.push_back(static_cast<idx>(next.size()));
}

void ReducedGraph::end_level(int r, const IdxVec& iset) {
  RankState& rs = ranks_[r];
  for (const idx v : iset) {
    if (dist_->owner[v] == r) {
      IdxVec().swap(in_[v]);
    } else if (rs.slot[v] >= 0) {
      release_slot(rs, v);
    }
  }
  std::swap(rs.remote_ptr, rs.next_ptr);
  std::swap(rs.remote_cols, rs.next_cols);
  rs.next_ptr.assign(1, 0);
  rs.next_cols.clear();
}

void ReducedGraph::add_edge(int r, idx row, idx col) {
  if (dist_->owner[col] == r) {
    IdxVec& in = in_[col];
    in.insert(std::lower_bound(in.begin(), in.end(), row), row);
  } else {
    add_remote_ref(ranks_[r], row, col);
  }
}

void ReducedGraph::remove_edge(int r, idx row, idx col) {
  if (dist_->owner[col] == r) {
    remove_local_ref(row, col);
    return;
  }
  RankState& rs = ranks_[r];
  const idx s = rs.slot[col];
  PTILU_ASSERT(s >= 0, "remote column " << col << " is not indexed");
  IdxVec& rows = rs.rows[s];
  const auto it = std::find(rows.begin(), rows.end(), row);
  PTILU_ASSERT(it != rows.end(), "row " << row << " does not reference " << col);
  *it = rows.back();
  rows.pop_back();
  if (--rs.live[s] == 0) release_slot(rs, col);
}

void ReducedGraph::remove_local_ref(idx row, idx col) {
  IdxVec& in = in_[col];
  const auto it = std::lower_bound(in.begin(), in.end(), row);
  PTILU_ASSERT(it != in.end() && *it == row, "missing in-edge " << row << " -> " << col);
  in.erase(it);
}

void ReducedGraph::add_remote_ref(RankState& rs, idx row, idx col) {
  idx s = rs.slot[col];
  if (s < 0) {
    if (rs.free_slots.empty()) {
      s = static_cast<idx>(rs.rows.size());
      rs.rows.emplace_back();
      rs.live.push_back(0);
    } else {
      s = rs.free_slots.back();
      rs.free_slots.pop_back();
    }
    rs.slot[col] = s;
  }
  rs.rows[s].push_back(row);
  ++rs.live[s];
}

void ReducedGraph::release_slot(RankState& rs, idx col) {
  const idx s = rs.slot[col];
  rs.rows[s].clear();
  rs.live[s] = 0;
  rs.free_slots.push_back(s);
  rs.slot[col] = -1;
}

void check_against_rebuild(const DistCsr& dist, const std::vector<IdxVec>& active,
                           const std::vector<SparseRow>& tails, const DistGraph& graph,
                           long long edges) {
  const int nranks = dist.nranks;
  IdxVec pos(dist.n(), -1);
  std::vector<std::vector<IdxVec>> adj(nranks);
  for (int r = 0; r < nranks; ++r) {
    adj[r].resize(active[r].size());
    for (std::size_t i = 0; i < active[r].size(); ++i) pos[active[r][i]] = static_cast<idx>(i);
  }
  // Each rank's scan: out-edges and local reverse edges as it goes...
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < active[r].size(); ++i) {
      const idx v = active[r][i];
      for (const idx c : tails[v].cols) {
        if (c == v) continue;
        adj[r][i].push_back(c);
        if (dist.owner[c] == r) adj[r][pos[c]].push_back(v);
      }
    }
  }
  // ...then the remote reverse edges, delivered in sender-rank order.
  long long total = 0;
  for (int s = 0; s < nranks; ++s) {
    for (const idx v : active[s]) {
      for (const idx c : tails[v].cols) {
        if (c != v && dist.owner[c] != s) adj[dist.owner[c]][pos[c]].push_back(v);
      }
    }
  }
  PTILU_CHECK(static_cast<int>(graph.parts.size()) == nranks, "reduced graph rank count");
  for (int r = 0; r < nranks; ++r) {
    const DistGraph::Part& part = graph.parts[r];
    PTILU_CHECK(part.verts == active[r], "reduced graph vertices differ on rank " << r);
    long long rank_total = 0;
    for (std::size_t i = 0; i < adj[r].size(); ++i) {
      std::size_t k = 0;
      bool same = true;
      part.walk(i, [&](idx u) {
        same = same && k < adj[r][i].size() && adj[r][i][k] == u;
        ++k;
        return !same;
      });
      PTILU_CHECK(same && k == adj[r][i].size(),
                  "reduced graph neighbors of vertex " << active[r][i] << " differ from the "
                  "per-level rebuild at position " << k - 1);
      rank_total += static_cast<long long>(k);
    }
    PTILU_CHECK(part.entries == static_cast<std::uint64_t>(rank_total),
                "reduced graph entry count differs on rank " << r);
    total += rank_total;
  }
  PTILU_CHECK(total == edges, "reduced graph edge count " << edges << " differs from the "
                              "per-level rebuild's " << total);
}

}  // namespace ptilu::pilut_detail
