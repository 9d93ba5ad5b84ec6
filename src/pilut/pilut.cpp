#include "ptilu/pilut/pilut.hpp"

#include <algorithm>
#include <cmath>

#include "detail.hpp"
#include "reduced_graph.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

using pilut_detail::FactorState;
using pilut_detail::Lane;
using pilut_detail::RowView;

/// Per-lane per-level working structures (see pilut_detail::Lane for the
/// lane model). Hoisted out of the level loop so their nested buffers keep
/// their capacity across the hundreds of reduced-matrix levels. Sequential
/// backend: a single lane shared by the ranks running one after another,
/// exactly the seed behavior; threaded backend: one lane per rank, so
/// concurrent bodies never share mutable scratch.
struct LevelLane {
  std::vector<IdxVec> requests;     // exchange: peer -> requested U rows
  IdxVec elim_ptr;                  // reduce: active position -> slice of elim_all
  IdxVec elim_all;                  // reduce: every row's I_l columns
  pilut_detail::RemoteURows remote;  // exchange/reduce: U rows of other ranks
  IdxVec elim_cols;    // reduce: this row's I_l columns
  IdxVec elim_pos;     // reduce: their positions in the row's tail
  pilut_detail::PositionMap at;  // reduce: tail column -> position in the tail
  IdxVec uncapped;     // reduce: a capped row's columns before the cap

  LevelLane(int nranks, idx n_iface)
      : requests(nranks), remote(n_iface), at(n_iface) {}
};

}  // namespace

void PilutSchedule::validate() const {
  const idx n = static_cast<idx>(newnum.size());
  PTILU_CHECK(is_permutation(newnum, n), "schedule.newnum is not a permutation");
  PTILU_CHECK(orig_of.size() == newnum.size(), "orig_of size mismatch");
  for (idx i = 0; i < n; ++i) PTILU_CHECK(orig_of[newnum[i]] == i, "orig_of inconsistent");
  PTILU_CHECK(!level_start.empty() && level_start.front() == n_interior &&
                  level_start.back() == n,
              "level_start must span [n_interior, n]");
  for (std::size_t l = 1; l < level_start.size(); ++l) {
    PTILU_CHECK(level_start[l - 1] <= level_start[l], "level_start not monotone");
  }
  PTILU_CHECK(static_cast<int>(interior_range.size()) == nranks, "interior_range size");
}

PilutResult pilut_factor(sim::Machine& machine, const DistCsr& dist,
                         const PilutOptions& opts) {
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  PTILU_CHECK(opts.m >= 0 && opts.tau >= 0.0, "invalid PILUT options");
  machine.reset();

  const Csr& a = dist.a;
  const idx n = a.n_rows;
  const int nranks = dist.nranks;
  const RealVec norms = row_norms(a, 2);
  const idx tail_cap = opts.cap_k > 0 ? opts.cap_k * opts.m : 0;  // 0 = uncapped

  PilutResult result;
  PilutStats& stats = result.stats;
  PilutSchedule& sched = result.schedule;
  sched.nranks = nranks;
  sched.newnum.assign(n, -1);

  FactorState state(dist);
  const IdxVec& iface_of = state.iface_of;
  // Per-lane scratch: one lane sequentially (reused across ranks, cleared
  // between rows — the seed behavior), one per rank when threaded.
  std::vector<Lane> lanes = pilut_detail::make_lanes(machine, n);
  pilut_detail::run_interior_phase(machine, dist, opts, norms, state, lanes,
                                  sched, stats);
  pilut_detail::run_initial_reduction(machine, dist, opts, norms, tail_cap, state,
                                      lanes);
  idx next_num = sched.n_interior;
  std::vector<std::uint8_t> in_set(n, 0);  // membership stamp for the current I_l
  DistMisScratch mis_scratch;              // dense status arrays reused per level

  // The reduced matrix's graph, kept across levels (reduced_graph.hpp),
  // and the per-level view of it that mis_dist walks.
  pilut_detail::ReducedGraph reduced(dist, iface_of, machine.scratch_lanes());
  DistGraph graph;
  graph.n_global = n;
  graph.owner = &dist.owner;
  graph.parts.resize(nranks);
  std::vector<LevelLane> level_lanes;
  level_lanes.reserve(static_cast<std::size_t>(machine.scratch_lanes()));
  for (int i = 0; i < machine.scratch_lanes(); ++i) {
    level_lanes.emplace_back(nranks, state.interface_count());
  }

  // ================= Phase 2: iterative interface factorization ===========
  std::vector<IdxVec> active(nranks);  // per rank: unfactored interface rows
  long long remaining = 0;
  for (int r = 0; r < nranks; ++r) {
    for (const idx v : dist.owned_rows[r]) {
      if (dist.interface[v]) active[r].push_back(v);
    }
    remaining += static_cast<long long>(active[r].size());
  }

  sched.level_start.push_back(sched.n_interior);
  // Phase tags cover the paper's breakdown of interface work: communication
  // setup, independent-set discovery (tagged inside mis_dist), numbering,
  // factoring the set, U-row exchange, and reduced-matrix formation.
  const pilut_detail::FactorCounters counters = pilut_detail::factor_counters(machine);
  sim::ScopedPhase interface_phase(machine, "factor/interface");
  while (remaining > 0) {
    // --- The symmetrized distributed graph of the reduced matrix. Tail
    // columns are exactly the unfactored interface vertices, so the
    // directed adjacency of vertex v is its tail pattern; reverse edges to
    // remote owners travel in one superstep (the "communication setup").
    // Both bodies charge what a rebuild from the tails costs, while the
    // host only walks the remote edges and the level's delta.
    {
    sim::ScopedPhase span(machine, "setup");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      reduced.begin_level(r, active[r], state.tails);
      ctx.charge_mem(reduced.out_edges(r) * sizeof(idx));
      reduced.send_reverse_pairs(ctx, active[r]);
    }, "pilut/setup/reverse_edges");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      reduced.assemble(r, ctx.lane(), active[r], state.tails, ctx.recv_all(), graph.parts[r]);
    }, "pilut/setup/apply_reverse");
    }
    // Duplicate adjacency entries (an edge present in both tails) are
    // harmless for the MIS and are counted like the rest.
    long long edges = 0;
    for (const DistGraph::Part& part : graph.parts) edges += static_cast<long long>(part.entries);
    if (machine.checking()) {
      pilut_detail::check_against_rebuild(dist, iface_of, active, state.tails, graph,
                                          edges);
    }

    // --- Choose the independent set I_l.
    IdxVec iset;
    if (edges == 0) {
      // All remaining rows are mutually independent — the termination case.
      for (int r = 0; r < nranks; ++r) {
        iset.insert(iset.end(), active[r].begin(), active[r].end());
      }
      std::sort(iset.begin(), iset.end());
    } else {
      iset = mis_dist(machine, graph,
                      {.seed = opts.seed + static_cast<std::uint64_t>(stats.levels),
                       .rounds = opts.mis_rounds},
                      &mis_scratch);
      PTILU_CHECK(!iset.empty(), "independent set came back empty");
    }

    // --- Number the set rank-major. The id exchange (per-rank counts plus
    // the member lists for boundary vertices) is a small collective.
    for (const idx v : iset) in_set[v] = 1;
    for (int r = 0; r < nranks; ++r) {
      for (const idx v : active[r]) {
        if (in_set[v]) sched.newnum[v] = next_num++;
      }
    }
    {
      sim::ScopedPhase span(machine, "number");
      machine.collective(static_cast<std::uint64_t>(iset.size()) * sizeof(idx) / nranks +
                         sizeof(idx), "pilut/number");
    }

    // --- Factor the rows of I_l (only U rows are created; the paper's
    // observation that independence makes this communication-free).
    {
    sim::ScopedPhase span(machine, "factor");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
      FactorScratch& scratch = lane.scratch;
      std::uint64_t flops = 0;
      pilut_detail::FillDropTally tally;
      for (const idx v : active[r]) {
        if (!in_set[v]) continue;
        const real tau_v = opts.tau * norms[v];
        const idx f = iface_of[v];
        const RowView tail = state.tails.view(f);
        SparseRow& ustage = scratch.ustage;
        ustage.clear();
        real diag = 0.0;
        for (std::size_t p = 0; p < tail.size(); ++p) {
          if (tail.cols[p] == v) {
            diag = tail.vals[p];
          } else {
            ustage.push(tail.cols[p], tail.vals[p]);
          }
        }
        flops += tail.size();
        const std::size_t u_before = ustage.size();
        select_largest(ustage, opts.m, tau_v, -1, scratch.kept);  // 2nd dropping rule
        tally.dropped += u_before - ustage.size();
        diag = safeguard_pivot(v, diag,
                               opts.pivot_rel > 0.0 ? opts.pivot_rel * norms[v] : 0.0,
                               tally.guarded);
        state.u.put_diag_first(r, v, diag, ustage);
        state.l.put(r, v, state.lparts.view(f));
        reduced.retire_row(r, v, tail.cols);
        // The row is finished: its working storage goes back to the rank.
        state.tails.release(r, f);
        state.lparts.release(r, f);
      }
      ctx.charge_flops(flops);
      lane.pivots_guarded += tally.guarded;
      counters.commit(r, tally);
    }, "pilut/factor_set");
    }

    // --- Exchange the U rows that remote eliminations will need. Each rank
    // requests the set members owned elsewhere that its remaining rows'
    // tails reference (ascending per owner), and owners reply within the
    // same superstep pair.
    {
    sim::ScopedPhase span(machine, "exchange");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      std::vector<IdxVec>& requests =
          level_lanes[static_cast<std::size_t>(ctx.lane())].requests;
      for (const idx v : iset) {
        const int peer = dist.owner[v];
        if (peer != r && reduced.references(r, v)) requests[peer].push_back(v);
      }
      for (int peer = 0; peer < nranks; ++peer) {
        IdxVec& rows = requests[peer];
        if (rows.empty()) continue;
        ctx.send_indices(peer, pilut_detail::kTagUReq, rows);
        rows.clear();
      }
    }, "pilut/exchange/request");
    machine.step([&](sim::RankContext& ctx) {
      level_lanes[static_cast<std::size_t>(ctx.lane())].remote.reply(ctx, state.u);
    }, "pilut/exchange/reply");
    }

    // --- Receive U rows and eliminate I_l columns from the remaining rows
    // (Algorithm 4.2), forming the next reduced matrix.
    {
    sim::ScopedPhase span(machine, "reduce");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
      LevelLane& ll = level_lanes[static_cast<std::size_t>(ctx.lane())];
      FactorScratch& scratch = lane.scratch;
      pilut_detail::PositionMap& at = ll.at;
      pilut_detail::SlackRows& tails = state.tails;
      IdxVec& elim_cols = ll.elim_cols;
      ll.remote.receive(ctx.recv_all(), iface_of);
      const auto urow_of = [&](idx k) -> RowView {
        if (dist.owner[k] == r) return state.u.row(k);
        return ll.remote.row(k, iface_of[k]);
      };

      std::uint64_t flops = 0, copied = 0;
      pilut_detail::FillDropTally tally;
      // Rows with no I_l columns are untouched by this level.
      const IdxVec& rows = active[r];
      reduced.eliminations(r, rows.size(), iset, ll.elim_ptr, ll.elim_all);
      for (std::size_t pos = 0; pos < rows.size(); ++pos) {
        const idx i = rows[pos];
        if (in_set[i]) continue;
        if (ll.elim_ptr[pos] == ll.elim_ptr[pos + 1]) {
          reduced.keep_row(r, pos);
          continue;
        }
        const idx fi = iface_of[i];
        elim_cols.assign(ll.elim_all.begin() + ll.elim_ptr[pos],
                         ll.elim_all.begin() + ll.elim_ptr[pos + 1]);
        const real tau_i = opts.tau * norms[i];
        // The tail is updated in place: multipliers and updates land on its
        // entries, fill is appended, so its order is the old tail's order
        // followed by the fill in insertion order. An append may move the
        // row, so its entries are looked up afresh after one.
        at.clear();
        const std::size_t old_size = tails.size(fi);
        for (std::size_t p = 0; p < old_size; ++p) {
          at.set(iface_of[tails.cols(fi)[p]], static_cast<idx>(p));
        }
        const bool old_diag = at.find(fi) >= 0;
        // Ascending new number keeps the arithmetic order identical to the
        // serial elimination on the permuted matrix.
        std::sort(elim_cols.begin(), elim_cols.end(),
                  [&](idx x, idx y) { return sched.newnum[x] < sched.newnum[y]; });
        ll.elim_pos.clear();
        for (const idx k : elim_cols) {
          const RowView urow = urow_of(k);
          const idx pk = at.find(iface_of[k]);
          ll.elim_pos.push_back(pk);
          real& entry = tails.vals(fi)[pk];
          const real multiplier = entry / urow.vals[0];  // diag stored first
          ++flops;
          if (std::abs(multiplier) < tau_i) {  // 1st dropping rule
            entry = 0.0;
            ++tally.dropped;
            continue;
          }
          entry = multiplier;
          // Strictly-upper entries only — the loop starts at p = 1.
          flops += 2 * static_cast<std::uint64_t>(urow.size() - 1);
          for (std::size_t p = 1; p < urow.size(); ++p) {
            const idx c = urow.cols[p];
            const idx fc = iface_of[c];
            const real update = -multiplier * urow.vals[p];
            const idx pc = at.find(fc);
            if (pc >= 0) {
              tails.vals(fi)[pc] += update;
            } else {
              at.set(fc, static_cast<idx>(tails.size(fi)));
              tails.push(r, fi, c, update);  // fill lands on unfactored columns only
              ++tally.fill;
            }
          }
        }
        const bool new_diag = at.find(fi) >= 0;
        // Merge surviving multipliers into L and re-apply the 3rd rule.
        for (std::size_t e = 0; e < elim_cols.size(); ++e) {
          const real v = tails.vals(fi)[ll.elim_pos[e]];
          if (v != 0.0) state.lparts.push(r, fi, elim_cols[e], v);
        }
        const std::size_t l_before = state.lparts.size(fi);
        state.lparts.truncate(fi, select_largest(state.lparts.cols(fi),
                                                 state.lparts.vals(fi), opts.m, tau_i,
                                                 -1, scratch.kept));
        tally.dropped += l_before - state.lparts.size(fi);
        // Compact the factored (I_l) columns out, keeping the order: the
        // old tail's surviving entries, then the fill.
        const std::span<idx> tcols = tails.cols(fi);
        const std::span<real> tvals = tails.vals(fi);
        std::size_t kept = 0, old_kept = 0;
        for (std::size_t p = 0; p < tcols.size(); ++p) {
          if (in_set[tcols[p]]) continue;
          old_kept += p < old_size;
          tcols[kept] = tcols[p];
          tvals[kept++] = tvals[p];
        }
        tails.truncate(fi, kept);
        if (tail_cap > 0) {
          ll.uncapped.assign(tcols.begin(), tcols.begin() + kept);
          tails.truncate(fi, select_largest(tails.cols(fi), tails.vals(fi), tail_cap,
                                            0.0, i, scratch.kept));
          tally.dropped += kept - tails.size(fi);
        }
        const std::span<const idx> cols =
            tail_cap > 0 ? std::span<const idx>(ll.uncapped) : tails.cols(fi);
        reduced.update_row(r, ctx.lane(), pos, i, cols, old_kept, old_size, old_diag,
                           tails.cols(fi), new_diag, tail_cap > 0, in_set);
        lane.max_reduced_row =
            std::max(lane.max_reduced_row, static_cast<nnz_t>(tails.size(fi)));
        copied += tails.size(fi) * (sizeof(idx) + sizeof(real));
      }
      reduced.end_level(r, iset, rows);
      state.tails.compact(r, rows, iface_of);
      state.lparts.compact(r, rows, iface_of);
      ctx.charge_flops(flops);
      ctx.charge_mem(copied);
      counters.commit(r, tally);
    }, "pilut/reduce");
    }

    // --- Retire the factored rows and reset the membership stamps.
    for (int r = 0; r < nranks; ++r) {
      IdxVec still;
      for (const idx v : active[r]) {
        if (!in_set[v]) still.push_back(v);
      }
      remaining -= static_cast<long long>(active[r].size() - still.size());
      active[r] = std::move(still);
    }
    for (const idx v : iset) in_set[v] = 0;
    sched.level_start.push_back(next_num);
    ++stats.levels;
  }
  if (sched.level_start.back() != n) sched.level_start.push_back(n);
  PTILU_CHECK(next_num == n, "numbering did not cover all rows");
  machine.check_quiescent("pilut/end");

  pilut_detail::merge_lane_stats(lanes, stats);
  pilut_detail::finish_stats(machine, stats);

  // ===================== Assembly into the new ordering ====================
  sched.orig_of = invert_permutation(sched.newnum);
  sched.owner_new.resize(n);
  for (idx i = 0; i < n; ++i) sched.owner_new[sched.newnum[i]] = dist.owner[i];

  pilut_detail::assemble_factors(state, sched.newnum, result.factors);
  result.factors.validate();
  sched.validate();
  return result;
}

}  // namespace ptilu
