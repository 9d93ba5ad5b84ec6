#include "reduced_graph.hpp"

#include <algorithm>

#include "ptilu/support/check.hpp"

namespace ptilu::pilut_detail {

ReducedGraph::ReducedGraph(const DistCsr& dist, const IdxVec& iface_of, int lanes)
    : dist_(&dist),
      iface_of_(&iface_of),
      in_(static_cast<std::size_t>(dist.interface_count_total()), dist.nranks,
          /*values=*/false),
      pos_(static_cast<std::size_t>(dist.interface_count_total()), -1),
      ranks_(static_cast<std::size_t>(dist.nranks)),
      lanes_(static_cast<std::size_t>(lanes)) {
  for (LaneScratch& lane : lanes_) {
    lane.rank_stamp.assign(static_cast<std::size_t>(dist.nranks), 0);
    lane.last_row.assign(static_cast<std::size_t>(dist.nranks), -1);
    lane.pair_count.assign(static_cast<std::size_t>(dist.nranks), 0);
    lane.pair_out.assign(static_cast<std::size_t>(dist.nranks), nullptr);
    lane.kept.assign(pos_.size(), 0);
  }
}

void ReducedGraph::begin_level(int r, const IdxVec& active, const SlackRows& tails) {
  for (std::size_t i = 0; i < active.size(); ++i) {
    pos_[iface(active[i])] = static_cast<idx>(i);
  }
  RankState& rs = ranks_[r];
  if (rs.built) return;
  rs.built = true;
  rs.slot.assign(pos_.size(), -1);
  const IdxVec& owner = dist_->owner;
  rs.remote_ptr.assign(1, 0);
  rs.remote_cols.clear();
  // Size each local in-edge list first, so that it is placed once.
  IdxVec in_count(pos_.size(), 0);
  for (const idx v : active) {
    for (const idx c : tails.cols(iface(v))) {
      if (c != v && owner[c] == r) ++in_count[iface(c)];
    }
  }
  for (const idx v : active) in_.reserve(r, iface(v), in_count[iface(v)]);
  for (const idx v : active) {  // ascending, so every in-edge list comes out sorted
    for (const idx c : tails.cols(iface(v))) {
      if (c == v) continue;
      ++rs.out_edges;
      if (owner[c] == r) {
        in_.push(r, iface(c), v);
      } else {
        rs.remote_cols.push_back(c);
        add_remote_ref(rs, v, c);
      }
    }
    rs.remote_ptr.push_back(static_cast<idx>(rs.remote_cols.size()));
  }
}

void ReducedGraph::send_reverse_pairs(sim::RankContext& ctx, const IdxVec& active) {
  const int r = ctx.rank();
  RankState& rs = ranks_[r];
  LaneScratch& ls = lanes_[static_cast<std::size_t>(ctx.lane())];
  IdxVec& last = ls.last_row;
  std::fill(last.begin(), last.end(), -1);
  const IdxVec& owner = dist_->owner;
  // Count the pairs for each peer. The ranks each row sends a pair to are
  // the owners of its remote out-columns: half of its peer index,
  // collected on the way.
  rs.out_peer_ptr.assign(1, 0);
  rs.out_peers.clear();
  ls.peers.clear();
  for (std::size_t i = 0; i < active.size(); ++i) {
    const idx v = active[i];
    for (idx k = rs.remote_ptr[i]; k < rs.remote_ptr[i + 1]; ++k) {
      const int peer = owner[rs.remote_cols[k]];
      if (ls.pair_count[peer]++ == 0) ls.peers.push_back(peer);
      if (last[peer] != v) {
        last[peer] = v;
        rs.out_peers.push_back(peer);
      }
    }
    rs.out_peer_ptr.push_back(static_cast<idx>(rs.out_peers.size()));
  }
  // One message per peer, ascending, written in place: the (column, row)
  // pairs, rows ascending, columns in tail order.
  std::sort(ls.peers.begin(), ls.peers.end());
  for (const int peer : ls.peers) {
    // Called only from the pilut/setup/reverse_edges superstep, inside its
    // "setup" ScopedPhase.
    const auto words = 2 * static_cast<std::size_t>(ls.pair_count[peer]);
    // ptilu-lint: allow(spmd-phase-coverage)
    ls.pair_out[peer] = ctx.send_in_place<idx>(peer, 0, words).data();
    ls.pair_count[peer] = 0;
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (idx k = rs.remote_ptr[i]; k < rs.remote_ptr[i + 1]; ++k) {
      const idx c = rs.remote_cols[k];
      idx*& out = ls.pair_out[owner[c]];
      *out++ = c;
      *out++ = active[i];
    }
  }
}

void ReducedGraph::assemble(int r, int lane, const IdxVec& active,
                            const SlackRows& tails,
                            std::span<const sim::Message> messages,
                            DistGraph::Part& part) {
  RankState& rs = ranks_[r];
  LaneScratch& ls = lanes_[static_cast<std::size_t>(lane)];
  const std::size_t na = active.size();

  // Remote in-edges by target position: a stable counting sort of the
  // pairs in message (sender rank) order keeps each sender's scan order.
  // Each entry also records its sender, the owner of its source. The
  // payloads are read in place.
  rs.rin_ptr.assign(na + 1, 0);
  std::size_t received = 0;
  for (const sim::Message& msg : messages) {
    const std::span<const idx> pairs = msg.as<idx>();
    for (std::size_t k = 0; k < pairs.size(); k += 2) {
      ++rs.rin_ptr[pos_[iface(pairs[k])] + 1];
    }
    received += pairs.size() / 2;
  }
  for (std::size_t i = 0; i < na; ++i) rs.rin_ptr[i + 1] += rs.rin_ptr[i];
  rs.rin_src.resize(received);
  ls.rin_from.resize(received);
  ls.cursor.assign(rs.rin_ptr.begin(), rs.rin_ptr.end() - 1);
  for (const sim::Message& msg : messages) {
    const std::span<const idx> pairs = msg.as<idx>();
    for (std::size_t k = 0; k < pairs.size(); k += 2) {
      const idx at = ls.cursor[pos_[iface(pairs[k])]]++;
      rs.rin_src[at] = pairs[k + 1];
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
    const std::span<const idx> in = in_.cols(iface(v));
    const idx* split = std::lower_bound(in.data(), in.data() + in.size(), v);
    const std::span<const idx> out = tails.cols(iface(v));
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

void ReducedGraph::retire_row(int r, idx v, std::span<const idx> tail) {
  RankState& rs = ranks_[r];
  for (const idx c : tail) {
    if (c == v) continue;
    --rs.out_edges;
    if (dist_->owner[c] == r) {
      remove_local_ref(v, c);
    } else {
      // The row stays in the column's list, now stale: eliminations()
      // skips retired rows, and only the live count must be exact.
      const idx s = rs.slot[iface(c)];
      if (--rs.live[s] == 0) release_slot(rs, c);
    }
  }
  pos_[iface(v)] = -1;
}

std::span<const idx> ReducedGraph::rows_referencing(int r, idx v) const {
  if (dist_->owner[v] == r) return in_.cols(iface(v));
  const RankState& rs = ranks_[r];
  const idx s = rs.slot[iface(v)];
  if (s < 0) return {};
  return rs.rows[s];
}

void ReducedGraph::eliminations(int r, std::size_t n_active, const IdxVec& iset, IdxVec& ptr,
                                IdxVec& cols) const {
  ptr.assign(n_active + 1, 0);
  for (const idx v : iset) {
    for (const idx i : rows_referencing(r, v)) {
      const idx p = pos_[iface(i)];
      if (p >= 0) ++ptr[p + 1];
    }
  }
  for (std::size_t k = 0; k < n_active; ++k) ptr[k + 1] += ptr[k];
  cols.resize(static_cast<std::size_t>(ptr[n_active]));
  // Fill with ptr[k] as row k's cursor, which leaves ptr[k] at row k's
  // end, i.e. row k + 1's start; shifting by one restores the offsets.
  for (const idx v : iset) {
    for (const idx i : rows_referencing(r, v)) {
      const idx p = pos_[iface(i)];
      if (p >= 0) cols[ptr[p]++] = v;
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

void ReducedGraph::update_row(int r, int lane, std::size_t pos, idx i,
                              std::span<const idx> cols, std::size_t old_kept,
                              std::size_t old_size, bool old_diag,
                              std::span<const idx> tail, bool new_diag, bool capped,
                              const std::vector<std::uint8_t>& in_set) {
  RankState& rs = ranks_[r];
  IdxVec& next = rs.next_cols;
  rs.out_edges += (tail.size() - new_diag) - (old_size - old_diag);  // unsigned wrap is exact
  // The I_l columns leave with the level (end_level forgets their index
  // entries wholesale), so only the row's remote list sheds them.
  if (!capped) {
    // The new tail is the old one minus I_l, then the fill: cols[old_kept, end).
    for (idx k = rs.remote_ptr[pos]; k < rs.remote_ptr[pos + 1]; ++k) {
      if (!in_set[rs.remote_cols[k]]) next.push_back(rs.remote_cols[k]);
    }
    for (std::size_t k = old_kept; k < cols.size(); ++k) {
      const idx c = cols[k];
      if (c == i) continue;
      add_edge(r, i, c);
      if (dist_->owner[c] != r) next.push_back(c);
    }
  } else {
    // Capped: the selection may drop old columns as well as fill, and the
    // new tail comes sorted by column.
    std::vector<std::uint8_t>& kept = lanes_[static_cast<std::size_t>(lane)].kept;
    for (const idx c : tail) kept[iface(c)] = 1;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const idx c = cols[k];
      if (c == i) continue;
      const bool fill = k >= old_kept;
      if (kept[iface(c)] && fill) {
        add_edge(r, i, c);
      } else if (!kept[iface(c)] && !fill) {
        remove_edge(r, i, c);
      }
    }
    for (const idx c : tail) {
      kept[iface(c)] = 0;
      if (c != i && dist_->owner[c] != r) next.push_back(c);
    }
  }
  rs.next_ptr.push_back(static_cast<idx>(next.size()));
}

void ReducedGraph::end_level(int r, const IdxVec& iset, const IdxVec& active) {
  RankState& rs = ranks_[r];
  for (const idx v : iset) {
    if (dist_->owner[v] == r) {
      in_.release(r, iface(v));
    } else if (rs.slot[iface(v)] >= 0) {
      release_slot(rs, v);
    }
  }
  in_.compact(r, active, *iface_of_);
  std::swap(rs.remote_ptr, rs.next_ptr);
  std::swap(rs.remote_cols, rs.next_cols);
  rs.next_ptr.assign(1, 0);
  rs.next_cols.clear();
}

void ReducedGraph::add_edge(int r, idx row, idx col) {
  if (dist_->owner[col] == r) {
    const std::span<const idx> in = in_.cols(iface(col));
    in_.insert(r, iface(col),
               static_cast<std::size_t>(std::lower_bound(in.begin(), in.end(), row) -
                                        in.begin()),
               row);
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
  const idx s = rs.slot[iface(col)];
  PTILU_ASSERT(s >= 0, "remote column " << col << " is not indexed");
  IdxVec& rows = rs.rows[s];
  const auto it = std::find(rows.begin(), rows.end(), row);
  PTILU_ASSERT(it != rows.end(), "row " << row << " does not reference " << col);
  *it = rows.back();
  rows.pop_back();
  if (--rs.live[s] == 0) release_slot(rs, col);
}

void ReducedGraph::remove_local_ref(idx row, idx col) {
  const std::span<const idx> in = in_.cols(iface(col));
  const auto it = std::lower_bound(in.begin(), in.end(), row);
  PTILU_ASSERT(it != in.end() && *it == row, "missing in-edge " << row << " -> " << col);
  in_.erase(iface(col), static_cast<std::size_t>(it - in.begin()));
}

void ReducedGraph::add_remote_ref(RankState& rs, idx row, idx col) {
  idx& s = rs.slot[iface(col)];
  if (s < 0) {
    if (rs.free_slots.empty()) {
      s = static_cast<idx>(rs.rows.size());
      rs.rows.emplace_back();
      rs.live.push_back(0);
    } else {
      s = rs.free_slots.back();
      rs.free_slots.pop_back();
    }
  }
  rs.rows[s].push_back(row);
  ++rs.live[s];
}

void ReducedGraph::release_slot(RankState& rs, idx col) {
  idx& s = rs.slot[iface(col)];
  rs.rows[s].clear();
  rs.live[s] = 0;
  rs.free_slots.push_back(s);
  s = -1;
}

void check_against_rebuild(const DistCsr& dist, const IdxVec& iface_of,
                           const std::vector<IdxVec>& active,
                           const SlackRows& tails, const DistGraph& graph,
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
      for (const idx c : tails.cols(iface_of[v])) {
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
      for (const idx c : tails.cols(iface_of[v])) {
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
