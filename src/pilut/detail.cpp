#include "detail.hpp"

#include <algorithm>

#include "ptilu/sim/trace.hpp"

namespace ptilu::pilut_detail {

FactorCounters factor_counters(sim::Machine& machine) {
  FactorCounters counters;
  counters.metrics = machine.metrics();
  if (counters.metrics != nullptr) {
    counters.fill = counters.metrics->counter_id("factor/fill");
    counters.dropped = counters.metrics->counter_id("factor/dropped");
    counters.guarded = counters.metrics->counter_id("factor/pivots_guarded");
  }
  return counters;
}

std::vector<Lane> make_lanes(const sim::Machine& machine, idx n) {
  std::vector<Lane> lanes;
  const int count = machine.scratch_lanes();
  lanes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) lanes.emplace_back(n);
  return lanes;
}

void merge_lane_stats(std::vector<Lane>& lanes, PilutStats& stats) {
  for (Lane& lane : lanes) {
    stats.pivots_guarded += lane.pivots_guarded;
    stats.max_reduced_row = std::max(stats.max_reduced_row, lane.max_reduced_row);
    lane.pivots_guarded = 0;
    lane.max_reduced_row = 0;
  }
}

std::pair<idx*, real*> RowStore::open(int r, idx i, std::size_t len) {
  std::vector<Chunk>& chunks = chunks_[static_cast<std::size_t>(r)];
  if (chunks.empty() || chunks.back().cap - chunks.back().used < len) {
    Chunk& fresh = chunks.emplace_back();
    fresh.cap = static_cast<std::uint32_t>(std::max<std::size_t>(kChunk, len));
    fresh.cols.reset(new idx[fresh.cap]);
    fresh.vals.reset(new real[fresh.cap]);
  }
  Chunk& chunk = chunks.back();
  where_[static_cast<std::size_t>(i)] = {r, static_cast<std::uint32_t>(chunks.size() - 1),
                                         chunk.used, static_cast<std::uint32_t>(len)};
  const std::pair<idx*, real*> room{chunk.cols.get() + chunk.used,
                                    chunk.vals.get() + chunk.used};
  chunk.used += static_cast<std::uint32_t>(len);
  return room;
}

void RowStore::put(int r, idx i, const SparseRow& row) {
  if (row.size() == 0) return;
  const auto [c, v] = open(r, i, row.size());
  std::copy(row.cols.begin(), row.cols.end(), c);
  std::copy(row.vals.begin(), row.vals.end(), v);
}

void RowStore::put_diag_first(int r, idx i, real diag, const SparseRow& upper) {
  const auto [c, v] = open(r, i, upper.size() + 1);
  c[0] = i;
  v[0] = diag;
  std::copy(upper.cols.begin(), upper.cols.end(), c + 1);
  std::copy(upper.vals.begin(), upper.vals.end(), v + 1);
}

void RemoteURows::reply(sim::RankContext& ctx, const RowStore& u) {
  // Called only from the exchange/reply supersteps of pilut and pilu0,
  // inside their "exchange" ScopedPhase.
  // ptilu-lint: allow(spmd-phase-coverage)
  for (const sim::Message& msg : ctx.recv_all()) {
    PTILU_CHECK(msg.tag == kTagUReq, "unexpected message during U exchange");
    requested_.clear();
    sim::decode_indices_append(msg, requested_);
    cols_.clear();
    vals_.clear();
    for (const idx row : requested_) {
      const RowView urow = u.row(row);
      cols_.push_back(row);
      cols_.push_back(static_cast<idx>(urow.size()));
      cols_.insert(cols_.end(), urow.cols.begin(), urow.cols.end());
      vals_.insert(vals_.end(), urow.vals.begin(), urow.vals.end());
    }
    // ptilu-lint: allow(spmd-phase-coverage)
    ctx.send_indices(msg.from, kTagUCols, cols_);
    // ptilu-lint: allow(spmd-phase-coverage)
    ctx.send_reals(msg.from, kTagUVals, vals_);
  }
}

void RemoteURows::receive(const std::vector<sim::Message>& messages,
                          const IdxVec& iface_of) {
  for (const idx f : bound_) slot_[static_cast<std::size_t>(f)] = -1;
  bound_.clear();
  views_.clear();
  cols_.clear();
  vals_.clear();
  for (const sim::Message& msg : messages) {
    if (msg.tag == kTagUCols) {
      sim::decode_indices_append(msg, cols_);
    } else {
      PTILU_CHECK(msg.tag == kTagUVals, "unexpected tag in U exchange");
      sim::decode_reals_append(msg, vals_);
    }
  }
  std::size_t vpos = 0;
  for (std::size_t p = 0; p < cols_.size();) {
    const idx f = iface_of[cols_[p++]];
    const std::size_t len = static_cast<std::size_t>(cols_[p++]);
    slot_[static_cast<std::size_t>(f)] = static_cast<idx>(views_.size());
    views_.push_back({{cols_.data() + p, len}, {vals_.data() + vpos, len}});
    bound_.push_back(f);
    p += len;
    vpos += len;
  }
}

FactorState::FactorState(const DistCsr& dist)
    : l(dist.n(), dist.nranks), u(dist.n(), dist.nranks), iface_of(dist.n(), -1) {
  idx count = 0;
  for (idx v = 0; v < dist.n(); ++v) {
    if (dist.interface[v]) iface_of[v] = count++;
  }
  tails.resize(static_cast<std::size_t>(count));
  lparts.resize(static_cast<std::size_t>(count));
}

namespace {

/// Write the rows of `store` renumbered by `newnum` into a CSR matrix, each
/// row sorted by new column: count, prefix-sum, then place every row.
Csr renumbered_csr(const RowStore& store, const IdxVec& newnum,
                   std::vector<std::pair<idx, real>>& entries) {
  const idx n = static_cast<idx>(newnum.size());
  Csr m(n, n);
  for (idx orig = 0; orig < n; ++orig) {
    m.row_ptr[newnum[orig] + 1] = static_cast<nnz_t>(store.row_size(orig));
  }
  for (idx i = 0; i < n; ++i) m.row_ptr[i + 1] += m.row_ptr[i];
  m.col_idx.resize(static_cast<std::size_t>(m.row_ptr[n]));
  m.values.resize(m.col_idx.size());
  for (idx orig = 0; orig < n; ++orig) {
    const idx row = newnum[orig];
    const RowView stored = store.row(orig);
    entries.clear();
    for (std::size_t p = 0; p < stored.size(); ++p) {
      entries.emplace_back(newnum[stored.cols[p]], stored.vals[p]);
    }
    std::sort(entries.begin(), entries.end());
    nnz_t at = m.row_ptr[row];
    for (const auto& [c, v] : entries) {
      m.col_idx[at] = c;
      m.values[at++] = v;
    }
  }
  return m;
}

}  // namespace

void assemble_factors(FactorState& state, const IdxVec& newnum, IluFactors& out) {
  std::vector<std::pair<idx, real>> entries;
  out.l = renumbered_csr(state.l, newnum, entries);
  state.l.release();
  out.u = renumbered_csr(state.u, newnum, entries);
  state.u.release();
}

void run_interior_phase(sim::Machine& machine, const DistCsr& dist,
                        const PilutOptions& opts, const RealVec& norms,
                        FactorState& state, std::vector<Lane>& lanes,
                        PilutSchedule& sched, PilutStats& stats) {
  const Csr& a = dist.a;
  const int nranks = dist.nranks;

  sched.interior_range.resize(nranks);
  idx next_num = 0;
  for (int r = 0; r < nranks; ++r) {
    const idx begin = next_num;
    for (const idx v : dist.owned_rows[r]) {
      if (!dist.interface[v]) sched.newnum[v] = next_num++;
    }
    sched.interior_range[r] = {begin, next_num};
  }
  sched.n_interior = next_num;
  stats.interface_nodes = a.n_rows - next_num;

  const FactorCounters counters = factor_counters(machine);
  sim::ScopedPhase phase(machine, "factor/interior");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
    WorkingRow& w = lane.w;
    FactorScratch& scratch = lane.scratch;
    std::uint64_t flops = 0;
    FillDropTally tally;
    for (const idx i : dist.owned_rows[r]) {
      if (dist.interface[i]) continue;
      const real tau_i = opts.tau * norms[i];
      const auto eliminatable = [&](idx c) { return c < i && !dist.interface[c]; };
      ColumnHeap heap = make_column_heap(scratch.heap);
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        w.insert(c, a.values[k]);
        if (eliminatable(c)) heap.push(c);  // columns are local by definition
      }
      flops += eliminate_cascading(w, state, tau_i, heap, eliminatable, tally);

      SparseRow& lstage = scratch.lstage;
      SparseRow& ustage = scratch.ustage;
      lstage.clear();
      ustage.clear();
      real diag = 0.0;
      for (const idx c : w.touched()) {
        const real v = w.value(c);
        if (c == i) {
          diag = v;
        } else if (c < i && !dist.interface[c]) {
          if (v != 0.0) lstage.push(c, v);
        } else {
          // Interface columns and larger interior columns are all U-side:
          // every interface column is numbered after every interior one.
          ustage.push(c, v);
        }
      }
      const std::size_t staged = lstage.size() + ustage.size();
      select_largest(lstage, opts.m, tau_i, -1, scratch.kept);
      select_largest(ustage, opts.m, tau_i, -1, scratch.kept);
      tally.dropped += staged - lstage.size() - ustage.size();
      diag = safeguard_pivot(i, diag,
                             opts.pivot_rel > 0.0 ? opts.pivot_rel * norms[i] : 0.0,
                             tally.guarded);
      state.l.put(r, i, lstage);
      state.u.put_diag_first(r, i, diag, ustage);
      w.clear();
    }
    ctx.charge_flops(flops);
    lane.pivots_guarded += tally.guarded;
    counters.commit(r, tally);
  }, "pilut/interior");
  stats.time_interior = machine.modeled_time();
}

void run_initial_reduction(sim::Machine& machine, const DistCsr& dist,
                           const PilutOptions& opts, const RealVec& norms,
                           idx tail_cap, FactorState& state,
                           std::vector<Lane>& lanes) {
  const Csr& a = dist.a;
  const FactorCounters counters = factor_counters(machine);
  sim::ScopedPhase phase(machine, "factor/interface/form_reduced");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
    WorkingRow& w = lane.w;
    FactorScratch& scratch = lane.scratch;
    std::uint64_t flops = 0, copied = 0;
    FillDropTally tally;
    for (const idx i : dist.owned_rows[r]) {
      if (!dist.interface[i]) continue;
      const real tau_i = opts.tau * norms[i];
      const auto eliminatable = [&](idx c) { return !dist.interface[c]; };
      ColumnHeap heap = make_column_heap(scratch.heap);
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        w.insert(c, a.values[k]);
        if (eliminatable(c)) heap.push(c);  // interior => local => factored
      }
      if (!w.present(i)) w.insert(i, 0.0);  // keep the diagonal structurally
      flops += eliminate_cascading(w, state, tau_i, heap, eliminatable, tally);

      // Both parts are staged, then copied out at their exact sizes.
      SparseRow& lstage = scratch.lstage;
      SparseRow& tstage = scratch.ustage;
      lstage.clear();
      tstage.clear();
      for (const idx c : w.touched()) {
        const real v = w.value(c);
        if (!dist.interface[c]) {
          if (v != 0.0) lstage.push(c, v);  // factored (interior) columns -> L
        } else {
          tstage.push(c, v);  // unfactored interface columns (incl. diagonal)
        }
      }
      const std::size_t l_before = lstage.size();
      select_largest(lstage, opts.m, tau_i, -1, scratch.kept);  // 3rd dropping rule (L side)
      tally.dropped += l_before - lstage.size();
      if (tail_cap > 0) {
        const std::size_t t_before = tstage.size();
        // ILUT* cap
        select_largest(tstage, tail_cap, 0.0, /*always_keep=*/i, scratch.kept);
        tally.dropped += t_before - tstage.size();
      }
      state.lparts[state.iface_of[i]] = lstage;
      SparseRow& tail = state.tails[state.iface_of[i]];
      tail = tstage;
      lane.max_reduced_row =
          std::max(lane.max_reduced_row, static_cast<nnz_t>(tail.size()));
      copied += tail.size() * (sizeof(idx) + sizeof(real));
      w.clear();
    }
    ctx.charge_flops(flops);
    ctx.charge_mem(copied);
    counters.commit(r, tally);
  }, "pilut/form_reduced");
}

void finish_stats(const sim::Machine& machine, PilutStats& stats) {
  stats.time_interface = machine.modeled_time() - stats.time_interior;
  stats.time_total = machine.modeled_time();
  const auto totals = machine.total_counters();
  stats.flops = totals.flops;
  stats.bytes_sent = totals.bytes_sent;
  stats.messages = totals.messages_sent;
  stats.supersteps = machine.supersteps();
}

}  // namespace ptilu::pilut_detail
