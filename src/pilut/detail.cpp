#include "detail.hpp"

#include <algorithm>
#include <bit>

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

void RowStore::put(int r, idx i, RowView row) {
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

namespace {

/// Room sizes: 4, then four steps per octave (5, 6, 7, 8, 10, 12, 14, 16,
/// 20, ...), so a room exceeds what it was sized for by under a quarter.
std::size_t room_of(std::size_t k) {
  if (k == 0) return SlackRows::kMinCap;
  const std::size_t octave = std::size_t{1} << ((k - 1) / 4 + 2);
  return octave + ((k - 1) % 4 + 1) * (octave / 4);
}

/// The smallest room size class holding n entries.
std::size_t class_for(std::size_t n) {
  if (n <= SlackRows::kMinCap) return 0;
  const int e = std::bit_width(n - 1) - 1;  // 2^e < n <= 2^(e+1)
  const std::size_t step = std::size_t{1} << (e - 2);
  const std::size_t within = (n - (std::size_t{1} << e) + step - 1) / step;  // 1..4
  return static_cast<std::size_t>(e - 2) * 4 + within;
}

/// Smallest chunk a rank carves rooms from, in entries.
constexpr std::size_t kFirstSlackChunk = 64;

}  // namespace

SlackRows::Room SlackRows::piece(const Chunk& chunk, std::size_t at) const {
  return {chunk.cols.get() + at, values_ ? chunk.vals.get() + at : nullptr};
}

void SlackRows::give(Pool& pool, const Row& row) {
  const std::size_t k = class_for(row.cap);
  if (pool.free.size() <= k) pool.free.resize(k + 1);
  pool.free[k].push_back({row.cols, row.vals});
}

SlackRows::Room SlackRows::take(Pool& pool, std::size_t k) {
  if (k < pool.free.size() && !pool.free[k].empty()) {
    const Room room = pool.free[k].back();
    pool.free[k].pop_back();
    return room;
  }
  const std::size_t need = room_of(k);
  if (pool.end - pool.next < need) {
    // What is left of the current chunk goes to the free lists, largest
    // rooms first; the next chunk grows with the rank's storage.
    for (std::size_t j = class_for(pool.end - pool.next) + 1; j-- > 0;) {
      while (pool.end - pool.next >= room_of(j)) {
        const Room room = piece(pool.chunks.back(), pool.next);
        give(pool, {room.cols, room.vals, 0, static_cast<std::uint32_t>(room_of(j))});
        pool.next += room_of(j);
      }
    }
    const std::size_t cap = std::max({need, kFirstSlackChunk, pool.carved / 4});
    Chunk& chunk = pool.chunks.emplace_back();
    chunk.cols = std::make_unique_for_overwrite<idx[]>(cap);
    if (values_) chunk.vals = std::make_unique_for_overwrite<real[]>(cap);
    pool.next = 0;
    pool.end = cap;
    pool.carved += cap;
  }
  const Room room = piece(pool.chunks.back(), pool.next);
  pool.next += need;
  return room;
}

void SlackRows::move(int r, idx f, std::size_t n) {
  Pool& pool = pools_[static_cast<std::size_t>(r)];
  // Growing rows take room for twice their entries.
  const std::size_t k = class_for(std::max(n, 2 * static_cast<std::size_t>(at(f).size)));
  const Room room = take(pool, k);
  Row& row = at(f);
  std::copy(row.cols, row.cols + row.size, room.cols);
  if (values_) std::copy(row.vals, row.vals + row.size, room.vals);
  if (row.cap > 0) give(pool, row);
  row.cols = room.cols;
  row.vals = room.vals;
  row.cap = static_cast<std::uint32_t>(room_of(k));
}

void SlackRows::assign(int r, idx f, const SparseRow& src) {
  Row& row = at(f);
  row.size = 0;
  reserve(r, f, src.size());
  std::copy(src.cols.begin(), src.cols.end(), row.cols);
  std::copy(src.vals.begin(), src.vals.end(), row.vals);
  row.size = static_cast<std::uint32_t>(src.size());
}

void SlackRows::release(int r, idx f) {
  Row& row = at(f);
  if (row.cap > 0) give(pools_[static_cast<std::size_t>(r)], row);
  row = Row{};
}

void SlackRows::compact(int r, std::span<const idx> ids, const IdxVec& index) {
  Pool& pool = pools_[static_cast<std::size_t>(r)];
  // Each row keeps room for its entries, rounded up to a size class.
  std::size_t held = 0;
  for (const idx id : ids) {
    const Row& row = at(index[id]);
    if (row.cap > 0) held += room_of(class_for(row.size));
  }
  if (pool.carved <= std::max(kCompactAt * held, 2 * kFirstSlackChunk)) return;
  Chunk chunk;
  chunk.cols = std::make_unique_for_overwrite<idx[]>(held);
  if (values_) chunk.vals = std::make_unique_for_overwrite<real[]>(held);
  std::size_t next = 0;
  for (const idx id : ids) {
    Row& row = at(index[id]);
    if (row.cap == 0) continue;
    const Room room = piece(chunk, next);
    std::copy(row.cols, row.cols + row.size, room.cols);
    if (values_) std::copy(row.vals, row.vals + row.size, room.vals);
    row.cols = room.cols;
    row.vals = room.vals;
    row.cap = static_cast<std::uint32_t>(room_of(class_for(row.size)));
    next += row.cap;
  }
  pool.chunks.clear();
  pool.chunks.push_back(std::move(chunk));
  pool.next = pool.end = pool.carved = held;
  for (std::vector<Room>& rooms : pool.free) rooms.clear();
}

void RemoteURows::reply(sim::RankContext& ctx, const RowStore& u) {
  // Called only from the exchange/reply supersteps of pilut and pilu0,
  // inside their "exchange" ScopedPhase.
  // ptilu-lint: allow(spmd-phase-coverage)
  for (const sim::Message& msg : ctx.recv_all()) {
    PTILU_CHECK(msg.tag == kTagUReq, "unexpected message during U exchange");
    const std::span<const idx> requested = msg.as<idx>();
    std::size_t entries = 0;
    for (const idx row : requested) entries += u.row_size(row);
    // The replies are written in place: per row its id, its length and its
    // columns, then all the rows' values.
    const std::size_t words = 2 * requested.size() + entries;
    // ptilu-lint: allow(spmd-phase-coverage)
    const std::span<idx> cols = ctx.send_in_place<idx>(msg.from, kTagUCols, words);
    // ptilu-lint: allow(spmd-phase-coverage)
    const std::span<real> vals = ctx.send_in_place<real>(msg.from, kTagUVals, entries);
    idx* c = cols.data();
    real* v = vals.data();
    for (const idx row : requested) {
      const RowView urow = u.row(row);
      *c++ = row;
      *c++ = static_cast<idx>(urow.size());
      c = std::copy(urow.cols.begin(), urow.cols.end(), c);
      v = std::copy(urow.vals.begin(), urow.vals.end(), v);
    }
  }
}

void RemoteURows::receive(std::span<const sim::Message> messages,
                          const IdxVec& iface_of) {
  for (const idx f : bound_) slot_[static_cast<std::size_t>(f)] = -1;
  bound_.clear();
  views_.clear();
  // Each reply is a column payload followed by its value payload; the rows
  // are viewed in place in the payloads, which last the superstep.
  std::span<const idx> cols;
  int cols_from = -1;
  for (const sim::Message& msg : messages) {
    if (msg.tag == kTagUCols) {
      PTILU_CHECK(cols_from < 0, "U exchange: column payload without its values");
      cols = msg.as<idx>();
      cols_from = msg.from;
      continue;
    }
    PTILU_CHECK(msg.tag == kTagUVals && msg.from == cols_from,
                "unexpected tag in U exchange");
    const std::span<const real> vals = msg.as<real>();
    std::size_t vpos = 0;
    for (std::size_t p = 0; p < cols.size();) {
      const idx f = iface_of[cols[p++]];
      const std::size_t len = static_cast<std::size_t>(cols[p++]);
      slot_[static_cast<std::size_t>(f)] = static_cast<idx>(views_.size());
      views_.push_back({cols.subspan(p, len), vals.subspan(vpos, len)});
      bound_.push_back(f);
      p += len;
      vpos += len;
    }
    PTILU_CHECK(vpos == vals.size(),
                "U exchange: value payload does not match its columns");
    cols_from = -1;
  }
  PTILU_CHECK(cols_from < 0, "U exchange: column payload without its values");
}

FactorState::FactorState(const DistCsr& dist)
    : l(dist.n(), dist.nranks),
      u(dist.n(), dist.nranks),
      iface_of(dist.n(), -1),
      interfaces(static_cast<idx>(dist.interface_count_total())),
      tails(static_cast<std::size_t>(interfaces), dist.nranks, /*values=*/true),
      lparts(static_cast<std::size_t>(interfaces), dist.nranks, /*values=*/true) {
  idx count = 0;
  for (idx v = 0; v < dist.n(); ++v) {
    if (dist.interface[v]) iface_of[v] = count++;
  }
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
      const idx f = state.iface_of[i];
      state.lparts.assign(r, f, lstage);
      state.tails.assign(r, f, tstage);
      lane.max_reduced_row =
          std::max(lane.max_reduced_row, static_cast<nnz_t>(tstage.size()));
      copied += tstage.size() * (sizeof(idx) + sizeof(real));
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
