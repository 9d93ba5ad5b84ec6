#include "ptilu/pilut/trisolve_dist.hpp"

#include <algorithm>
#include <ranges>
#include <span>
#include <tuple>

#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

constexpr int kTagIdx = 20;
constexpr int kTagVal = 21;

/// acc[c] -= a * s[c * s_stride] for c in [0, K): one CSR entry against K
/// solution columns, the inner kernel of the sweeps, single- and multi-RHS.
template <int K>
inline void rhs_axpy(real* PTILU_RESTRICT acc, real a, const real* PTILU_RESTRICT s,
                     std::size_t s_stride) {
  for (int c = 0; c < K; ++c) acc[c] -= a * s[c * s_stride];
}

/// Columns per pass over a rank's rows: as many accumulators as stay in
/// registers, as in the serial batched solves. Wider batches take several
/// passes inside the same superstep, so the messages do not change.
constexpr int kMaxRhsGroup = 8;

/// One rank's progress through a sweep: the next level row, ghost-reading
/// row and send, and how many ghost slots are filled. Per call and per
/// rank, so each rank body touches only its own.
struct Cursor {
  std::size_t row = 0;
  std::size_t read = 0;
  std::size_t send = 0;
  std::size_t filled = 0;
};

/// K columns of a sweep for one rank: column c of the right-hand side and
/// of the solution start at in + c*stride and out + c*stride, and ghost
/// slot s holds column c at ghost[s*width + c]. `in` may equal `out`.
struct Columns {
  const real* in;
  real* out;
  std::size_t stride;
  const real* ghost;
  std::size_t width;
};

/// Solve row i for K columns. Entries run in storage order, as in the
/// serial solves, so every column accumulates exactly as forward_solve /
/// backward_solve does; the entries named by `refs` read ghosts, every
/// other entry reads a column of this rank. Backward rows start with the
/// diagonal and divide by it.
template <int K, bool Backward>
inline void solve_row(const Csr& m, idx i, std::span<const GhostRef> refs,
                      const Columns& c) {
  const std::size_t row = static_cast<std::size_t>(i);
  const nnz_t start = m.row_ptr[i];
  const nnz_t end = m.row_ptr[i + 1];
  const idx* col_idx = m.col_idx.data();
  const real* values = m.values.data();
  real acc[K];
  for (int j = 0; j < K; ++j) acc[j] = c.in[j * c.stride + row];
  nnz_t p = Backward ? start + 1 : start;
  for (const GhostRef& ref : refs) {
    for (const nnz_t at = start + ref.offset; p < at; ++p) {
      rhs_axpy<K>(acc, values[p], c.out + col_idx[p], c.stride);
    }
    const std::size_t slot = static_cast<std::size_t>(ref.slot);
    rhs_axpy<K>(acc, values[p], c.ghost + slot * c.width, 1);
    ++p;
  }
  for (; p < end; ++p) rhs_axpy<K>(acc, values[p], c.out + col_idx[p], c.stride);
  if constexpr (Backward) {
    const real pivot = values[start];
    for (int j = 0; j < K; ++j) c.out[j * c.stride + row] = acc[j] / pivot;
  } else {
    for (int j = 0; j < K; ++j) c.out[j * c.stride + row] = acc[j];
  }
}

/// Solve `rows` (in sweep order) for K columns. `read` is the rank's cursor
/// into `reads`: forward sweeps walk it up from the rank's first entry,
/// backward sweeps down from one past its last. Returns it advanced.
template <int K, bool Backward, typename Rows>
std::size_t solve_rows(const Csr& m, const Rows& rows, const GhostReads& reads,
                       std::size_t read, const Columns& c) {
  for (const idx i : rows) {
    std::span<const GhostRef> refs;
    if constexpr (Backward) {
      if (read > 0 && reads.rows[read - 1] == i) refs = reads.refs_of(--read);
    } else {
      if (read < reads.rows.size() && reads.rows[read] == i) refs = reads.refs_of(read++);
    }
    solve_row<K, Backward>(m, i, refs, c);
  }
  return read;
}

/// Solve `rows` for all k columns, in groups of up to kMaxRhsGroup.
template <bool Backward, typename Rows>
std::size_t solve_block(const Csr& m, const Rows& rows, const GhostReads& reads,
                        std::size_t read, const Columns& all, int k) {
  std::size_t after = read;
  for (int c0 = 0; c0 < k; c0 += kMaxRhsGroup) {
    const std::size_t off = static_cast<std::size_t>(c0);
    const Columns c{all.in + off * all.stride, all.out + off * all.stride, all.stride,
                    all.ghost + off, all.width};
    switch (std::min(kMaxRhsGroup, k - c0)) {
      case 1: after = solve_rows<1, Backward>(m, rows, reads, read, c); break;
      case 2: after = solve_rows<2, Backward>(m, rows, reads, read, c); break;
      case 3: after = solve_rows<3, Backward>(m, rows, reads, read, c); break;
      case 4: after = solve_rows<4, Backward>(m, rows, reads, read, c); break;
      case 5: after = solve_rows<5, Backward>(m, rows, reads, read, c); break;
      case 6: after = solve_rows<6, Backward>(m, rows, reads, read, c); break;
      case 7: after = solve_rows<7, Backward>(m, rows, reads, read, c); break;
      default: after = solve_rows<8, Backward>(m, rows, reads, read, c); break;
    }
  }
  return after;
}

/// The modeled flops of solving `rows` for k columns: 2 per entry, plus
/// the division by the pivot in a backward row.
template <typename Rows>
std::uint64_t row_flops(const Csr& m, const Rows& rows, bool backward, int k) {
  std::uint64_t flops = 0;
  for (const idx i : rows) {
    flops += 2 * static_cast<std::uint64_t>(m.row_nnz(i)) + (backward ? 1 : 0);
  }
  return flops * static_cast<std::uint64_t>(k);
}

/// Append the entries of row i, from its `skip`-th on, whose column rank r
/// does not own. Columns are sorted within a row, so the entries in r's own
/// interior block [begin, end) form one run that needs no owner lookup:
/// only the entries before and after it are looked up.
void collect_remote(const Csr& m, idx i, nnz_t skip, int r, idx begin, idx end,
                    const IdxVec& owner, std::vector<GhostReads::Read>& out) {
  const idx* col = m.col_idx.data();
  const nnz_t row_begin = m.row_ptr[i];
  const nnz_t first = row_begin + skip;
  const nnz_t last = m.row_ptr[i + 1];
  nnz_t lo = first;
  while (lo < last && col[lo] < begin) ++lo;
  nnz_t hi = last;
  while (hi > lo && col[hi - 1] >= end) --hi;
  const auto look_up = [&](nnz_t from, nnz_t to) {
    for (nnz_t k = from; k < to; ++k) {
      if (owner[col[k]] != r) out.push_back({i, static_cast<idx>(k - row_begin), col[k]});
    }
  };
  look_up(first, lo);
  look_up(hi, last);
}

}  // namespace

DistTriangularSolver::DistTriangularSolver(const IluFactors& factors,
                                           const PilutSchedule& schedule)
    : factors_(&factors), schedule_(&schedule) {
  const idx n = factors.n();
  PTILU_CHECK(static_cast<std::size_t>(n) == schedule.newnum.size(),
              "factors/schedule size mismatch");
  PTILU_CHECK(static_cast<int>(schedule.interior_range.size()) == schedule.nranks,
              "schedule interior_range size mismatch");

  // Level rows by owner, ascending: a stable counting sort of
  // [n_interior, n) on owner_new.
  const int p = schedule.nranks;
  level_ptr_.assign(static_cast<std::size_t>(p) + 1, 0);
  for (idx i = schedule.n_interior; i < n; ++i) ++level_ptr_[schedule.owner_new[i] + 1];
  for (int r = 0; r < p; ++r) level_ptr_[r + 1] += level_ptr_[r];
  level_rows_.resize(level_ptr_[p]);
  std::vector<std::size_t> next(level_ptr_.begin(), level_ptr_.end() - 1);
  for (idx i = schedule.n_interior; i < n; ++i) {
    level_rows_[next[schedule.owner_new[i]]++] = i;
  }

  // Level of each level row, for the plans' step numbers.
  IdxVec level_of(static_cast<std::size_t>(n - schedule.n_interior));
  for (int level = 0; level < schedule.levels(); ++level) {
    for (idx i = schedule.level_start[level]; i < schedule.level_start[level + 1]; ++i) {
      level_of[static_cast<std::size_t>(i - schedule.n_interior)] = level;
    }
  }
  fwd_ = build_plan(true, level_of);
  bwd_ = build_plan(false, level_of);
}

// Both sweeps number their supersteps from 0. Forward: the interior step,
// then one per level ascending, then the drain step. Backward: one per
// level descending, then the interior step. A value computed in step s
// ships at the end of s and is read from step s+1 on, so every remote
// entry of a row must come from an earlier step — checked here, once,
// instead of failing in the middle of a solve.
DistTriangularSolver::SweepPlan DistTriangularSolver::build_plan(
    bool forward, const IdxVec& level_of) const {
  const PilutSchedule& sched = *schedule_;
  const Csr& m = forward ? factors_->l : factors_->u;
  const nnz_t skip = forward ? 0 : 1;  // U rows start with the diagonal
  const int q = sched.levels();
  const auto step_of = [&](idx i) {
    if (i < sched.n_interior) return forward ? 0 : q;
    const int level = level_of[static_cast<std::size_t>(i - sched.n_interior)];
    return forward ? level + 1 : q - 1 - level;
  };

  struct Message {
    int sender;
    Send send;
  };
  SweepPlan plan;
  std::vector<Message> messages;
  std::vector<GhostReads::Read> reads;
  // A remote column keyed by delivery order: by step, then by sender (the
  // inbox drains senders in ascending order), then ascending within a
  // message, which is the order the sender computes its rows in.
  std::vector<std::pair<std::uint64_t, idx>> cols;
  const auto key = [](int step, int owner) {
    return static_cast<std::uint64_t>(step) << 32 | static_cast<std::uint32_t>(owner);
  };
  // slot_of[col]: the reading rank's slot of a remote column, -1 when the
  // rank has not seen it. Reset through `cols` after each rank.
  IdxVec slot_of(static_cast<std::size_t>(m.n_rows), -1);
  for (int r = 0; r < sched.nranks; ++r) {
    cols.clear();
    reads.clear();
    const auto [begin, end] = sched.interior_range[r];
    const auto collect = [&](idx i) {
      collect_remote(m, i, skip, r, begin, end, sched.owner_new, reads);
    };
    for (idx i = begin; i < end; ++i) collect(i);
    for (std::size_t t = level_ptr_[r]; t < level_ptr_[r + 1]; ++t) {
      collect(level_rows_[t]);
    }
    for (const GhostReads::Read& read : reads) {
      const int owner = sched.owner_new[read.col];
      const int step = step_of(read.col);
      PTILU_CHECK(step < step_of(read.row),
                  "DistTriangularSolver: rank "
                      << r << "'s row " << read.row << " reads column " << read.col
                      << " of rank " << owner << ", which the "
                      << (forward ? "forward" : "backward") << " sweep solves in step "
                      << step << ", not before the row's step " << step_of(read.row));
      if (slot_of[read.col] < 0) {
        slot_of[read.col] = 0;
        cols.emplace_back(key(step, owner), read.col);
      }
    }

    std::sort(cols.begin(), cols.end());
    const std::size_t base = plan.slot_col.size();
    for (std::size_t t = 0; t < cols.size(); ++t) {
      const auto [col_key, j] = cols[t];
      slot_of[j] = static_cast<idx>(t);
      plan.slot_col.push_back(j);
      if (t == 0 || cols[t - 1].first != col_key) {
        messages.push_back({sched.owner_new[j], {step_of(j), r, base + t, 0}});
      }
      ++messages.back().send.count;
    }
    plan.slot_ptr.push_back(plan.slot_col.size());

    plan.reads.add_rank(reads, slot_of);
    for (const auto& [col_key, j] : cols) slot_of[j] = -1;
  }

  // Regroup the messages by sender, in the order each sender posts them.
  std::sort(messages.begin(), messages.end(), [](const Message& x, const Message& y) {
    return std::tuple(x.sender, x.send.step, x.send.peer) <
           std::tuple(y.sender, y.send.step, y.send.peer);
  });
  std::size_t t = 0;
  for (int r = 0; r < sched.nranks; ++r) {
    for (; t < messages.size() && messages[t].sender == r; ++t) {
      plan.sends.push_back(messages[t].send);
    }
    plan.send_ptr.push_back(plan.sends.size());
  }
  return plan;
}

void DistTriangularSolver::post(sim::RankContext& ctx, const SweepPlan& plan, int step,
                                std::size_t& next, const real* x, std::size_t stride,
                                int k) {
  const std::size_t end = plan.send_ptr[ctx.rank() + 1];
  for (; next < end && plan.sends[next].step == step; ++next) {
    const Send& send = plan.sends[next];
    const idx* cols = plan.slot_col.data() + send.first;
    // Every superstep that posts sits inside the sweep's per-phase
    // ScopedPhase; the phase is inherited from the caller, not opened here.
    // ptilu-lint: allow(spmd-phase-coverage)
    const std::span<idx> indices = ctx.send_in_place<idx>(send.peer, kTagIdx, send.count);
    std::copy(cols, cols + send.count, indices.begin());
    // Each index's k values contiguously, the layout of the receiver's slots.
    const std::size_t count = send.count * static_cast<std::size_t>(k);
    // ptilu-lint: allow(spmd-phase-coverage)
    const std::span<real> values = ctx.send_in_place<real>(send.peer, kTagVal, count);
    real* dst = values.data();
    for (std::size_t t = 0; t < send.count; ++t) {
      for (int c = 0; c < k; ++c) {
        *dst++ = x[static_cast<std::size_t>(c) * stride +
                   static_cast<std::size_t>(cols[t])];
      }
    }
  }
}

void DistTriangularSolver::drain(sim::RankContext& ctx, const SweepPlan& plan,
                                 std::size_t& filled, real* ghost, int k,
                                 const char* site, bool last) {
  const int r = ctx.rank();
  const std::size_t base = plan.slot_ptr[r];
  const std::size_t slots = plan.slot_ptr[r + 1] - base;
  const std::size_t width = static_cast<std::size_t>(k);
  real* next = ghost + base * width;
  // Each sender posts an index message and then its values; the pair fills
  // the rank's next slots.
  std::size_t pending = 0;
  int pending_from = -1;
  // Called only from the sweeps' supersteps, inside their ScopedPhase.
  // ptilu-lint: allow(spmd-phase-coverage)
  for (const sim::Message& msg : ctx.recv_all()) {
    if (msg.tag == kTagIdx) {
      PTILU_CHECK(pending == 0 && msg.payload.size() % sizeof(idx) == 0,
                  "rank " << r << " at " << site
                          << ": malformed index message from rank " << msg.from);
      const std::span<const idx> indices = msg.as<idx>();
      pending = indices.size();
      pending_from = msg.from;
      for (std::size_t t = 0; t < pending; ++t) {
        const idx j = indices[t];
        const std::size_t slot = filled + t;
        const idx expected = slot < slots ? plan.slot_col[base + slot] : -1;
        PTILU_CHECK(j == expected,
                    "rank " << r << " at " << site << ": index " << j << " from rank "
                            << msg.from << " has no ghost slot (slot " << slot << " of "
                            << slots << " expects column " << expected << ")");
      }
    } else {
      PTILU_CHECK(msg.tag == kTagVal && msg.from == pending_from &&
                      msg.payload.size() == pending * width * sizeof(real),
                  "rank " << r << " at " << site << ": unexpected message (tag "
                          << msg.tag << ") from rank " << msg.from);
      const std::span<const real> values = msg.as<real>();
      std::copy(values.begin(), values.end(), next + filled * width);
      filled += pending;
      pending = 0;
      pending_from = -1;
    }
  }
  PTILU_CHECK(pending == 0, "rank " << r << " at " << site << ": index message from rank "
                                    << pending_from << " arrived without its values");
  PTILU_CHECK(!last || filled == slots, "rank " << r << " at " << site << ": " << filled
                                                << " of " << slots
                                                << " ghost values arrived");
}

void DistTriangularSolver::sweep_forward(sim::Machine& machine, const real* b, real* y,
                                         std::size_t stride, int k) const {
  const PilutSchedule& sched = *schedule_;
  const Csr& l = factors_->l;
  const SweepPlan& plan = fwd_;
  RealVec ghost(plan.slot_col.size() * static_cast<std::size_t>(k));
  std::vector<Cursor> cursors(static_cast<std::size_t>(sched.nranks));
  for (int r = 0; r < sched.nranks; ++r) {
    cursors[r] = {level_ptr_[r], plan.reads.rank_ptr[r], plan.send_ptr[r], 0};
  }
  const Columns all{b, y, stride, ghost.data(), static_cast<std::size_t>(k)};
  const auto rank_columns = [&](int r) {
    Columns c = all;
    c.ghost += plan.slot_ptr[r] * c.width;
    return c;
  };
  sim::ScopedPhase solve_phase(machine, "trisolve/forward");

  // Phase 1: interior blocks — local work (interior rows only reference
  // their own rank's interior columns, which the plan checked), then ship
  // any interior values that migrated interface rows on other ranks need.
  {
  sim::ScopedPhase span(machine, "interior");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    Cursor& cur = cursors[r];
    const auto [begin, end] = sched.interior_range[r];
    const auto rows = std::views::iota(begin, end);
    cur.read = solve_block<false>(l, rows, plan.reads, cur.read, rank_columns(r), k);
    ctx.charge_flops(row_flops(l, rows, false, k));
    post(ctx, plan, 0, cur.send, y, stride, k);
  }, "trisolve/fwd/interior");
  }

  // Phase 2: one superstep per independent-set level.
  sim::ScopedPhase levels_span(machine, "levels");
  for (int level = 0; level < levels(); ++level) {
    const idx level_end = sched.level_start[level + 1];
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      Cursor& cur = cursors[r];
      const Columns c = rank_columns(r);
      drain(ctx, plan, cur.filled, ghost.data(), k, "trisolve/fwd/level",
            /*last=*/false);
      const std::size_t first = cur.row;
      while (cur.row < level_ptr_[r + 1] && level_rows_[cur.row] < level_end) ++cur.row;
      const std::span<const idx> rows(level_rows_.data() + first, cur.row - first);
      cur.read = solve_block<false>(l, rows, plan.reads, cur.read, c, k);
      ctx.charge_flops(row_flops(l, rows, false, k));
      post(ctx, plan, level + 1, cur.send, y, stride, k);
    }, "trisolve/fwd/level");
  }
  // Drain the values shipped by the last level (no row reads them in the
  // forward direction, but the queues must be left clean).
  machine.step([&](sim::RankContext& ctx) {
    drain(ctx, plan, cursors[ctx.rank()].filled, ghost.data(), k, "trisolve/fwd/drain",
          /*last=*/true);
  }, "trisolve/fwd/drain");
  machine.check_quiescent("trisolve/fwd/end");
}

void DistTriangularSolver::sweep_backward(sim::Machine& machine, const real* y, real* x,
                                          std::size_t stride, int k) const {
  const PilutSchedule& sched = *schedule_;
  const Csr& u = factors_->u;
  const SweepPlan& plan = bwd_;
  const int q = levels();
  RealVec ghost(plan.slot_col.size() * static_cast<std::size_t>(k));
  std::vector<Cursor> cursors(static_cast<std::size_t>(sched.nranks));
  for (int r = 0; r < sched.nranks; ++r) {
    cursors[r] = {level_ptr_[r + 1], plan.reads.rank_ptr[r + 1], plan.send_ptr[r], 0};
  }
  const Columns all{y, x, stride, ghost.data(), static_cast<std::size_t>(k)};
  const auto rank_columns = [&](int r) {
    Columns c = all;
    c.ghost += plan.slot_ptr[r] * c.width;
    return c;
  };
  sim::ScopedPhase solve_phase(machine, "trisolve/backward");

  // Phase 1: interface levels in reverse order. Rows run descending within
  // a level: plain PILUT levels are independent sets (order irrelevant),
  // but the nested variant's stages carry same-host sequential dependencies.
  {
  sim::ScopedPhase span(machine, "levels");
  for (int level = q - 1; level >= 0; --level) {
    const idx level_begin = sched.level_start[level];
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      Cursor& cur = cursors[r];
      const Columns c = rank_columns(r);
      drain(ctx, plan, cur.filled, ghost.data(), k, "trisolve/bwd/level",
            /*last=*/false);
      const std::size_t last = cur.row;
      while (cur.row > level_ptr_[r] && level_rows_[cur.row - 1] >= level_begin) {
        --cur.row;
      }
      const std::span<const idx> rows(level_rows_.data() + cur.row, last - cur.row);
      cur.read =
          solve_block<true>(u, rows | std::views::reverse, plan.reads, cur.read, c, k);
      ctx.charge_flops(row_flops(u, rows, true, k));
      post(ctx, plan, q - 1 - level, cur.send, x, stride, k);
    }, "trisolve/bwd/level");
  }
  }

  // Phase 2: interior blocks in reverse. Interior U rows reference their
  // own interior block plus interface columns — the latter may live on
  // another rank when rows migrated (nested variant), so read via ghosts.
  {
  sim::ScopedPhase span(machine, "interior");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    Cursor& cur = cursors[r];
    drain(ctx, plan, cur.filled, ghost.data(), k, "trisolve/bwd/interior",
          /*last=*/true);
    const auto [begin, end] = sched.interior_range[r];
    const auto rows = std::views::iota(begin, end);
    cur.read = solve_block<true>(u, rows | std::views::reverse, plan.reads, cur.read,
                                 rank_columns(r), k);
    ctx.charge_flops(row_flops(u, rows, true, k));
  }, "trisolve/bwd/interior");
  }
  machine.check_quiescent("trisolve/bwd/end");
}

void DistTriangularSolver::forward(sim::Machine& machine, const RealVec& b,
                                   RealVec& y) const {
  PTILU_CHECK(b.size() == static_cast<std::size_t>(factors_->n()) && y.size() == b.size(),
              "forward size mismatch");
  sweep_forward(machine, b.data(), y.data(), b.size(), 1);
}

void DistTriangularSolver::backward(sim::Machine& machine, const RealVec& y,
                                    RealVec& x) const {
  PTILU_CHECK(y.size() == static_cast<std::size_t>(factors_->n()) && x.size() == y.size(),
              "backward size mismatch");
  sweep_backward(machine, y.data(), x.data(), y.size(), 1);
}

void DistTriangularSolver::apply(sim::Machine& machine, const RealVec& b,
                                 RealVec& x) const {
  // No scratch vector: the backward sweep runs in place on the forward
  // result (row i reads its own forward value before overwriting it).
  forward(machine, b, x);
  backward(machine, x, x);
}

void DistTriangularSolver::forward(sim::Machine& machine, const DenseRhsBlock& b,
                                   DenseRhsBlock& y) const {
  PTILU_CHECK(b.n == factors_->n() && y.n == b.n && b.k == y.k && b.k >= 1,
              "batched forward block shape mismatch");
  sweep_forward(machine, b.data.data(), y.data.data(), static_cast<std::size_t>(b.n),
                b.k);
}

void DistTriangularSolver::backward(sim::Machine& machine, const DenseRhsBlock& y,
                                    DenseRhsBlock& x) const {
  PTILU_CHECK(y.n == factors_->n() && x.n == y.n && y.k == x.k && y.k >= 1,
              "batched backward block shape mismatch");
  sweep_backward(machine, y.data.data(), x.data.data(), static_cast<std::size_t>(y.n),
                 y.k);
}

void DistTriangularSolver::apply(sim::Machine& machine, const DenseRhsBlock& b,
                                 DenseRhsBlock& x) const {
  forward(machine, b, x);
  backward(machine, x, x);
}

}  // namespace ptilu
