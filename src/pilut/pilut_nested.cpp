#include "ptilu/pilut/pilut_nested.hpp"

#include <algorithm>

#include "detail.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

using pilut_detail::FactorState;
using pilut_detail::Lane;
using pilut_detail::RowView;

/// Bytes moved when a reduced row migrates to a new host.
std::uint64_t row_bytes(const pilut_detail::FactorState& state, idx f) {
  return (state.tails.size(f) + state.lparts.size(f)) * (sizeof(idx) + sizeof(real)) + 16;
}

}  // namespace

PilutResult pilut_factor_nested(sim::Machine& machine, const DistCsr& dist,
                                const PilutOptions& opts, const NestedOptions& nested) {
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  PTILU_CHECK(opts.m >= 0 && opts.tau >= 0.0, "invalid PILUT options");
  PTILU_CHECK(nested.max_depth >= 0 && nested.sequential_cutoff >= 1,
              "invalid nested options");
  machine.reset();

  const Csr& a = dist.a;
  const idx n = a.n_rows;
  const int nranks = dist.nranks;
  const RealVec norms = row_norms(a, 2);
  const idx tail_cap = opts.cap_k > 0 ? opts.cap_k * opts.m : 0;

  PilutResult result;
  PilutStats& stats = result.stats;
  PilutSchedule& sched = result.schedule;
  sched.nranks = nranks;
  sched.newnum.assign(n, -1);

  FactorState state(dist);
  const IdxVec& iface_of = state.iface_of;
  // Per-lane scratch: one lane sequentially, one per rank when threaded
  // (see pilut_detail::Lane).
  std::vector<Lane> lanes = pilut_detail::make_lanes(machine, n);
  pilut_detail::run_interior_phase(machine, dist, opts, norms, state, lanes,
                                  sched, stats);
  pilut_detail::run_initial_reduction(machine, dist, opts, norms, tail_cap, state,
                                      lanes);
  idx next_num = sched.n_interior;
  sched.level_start.push_back(sched.n_interior);

  // Current host of each unfactored interface row (migrations update this;
  // the triangular-solve schedule uses the host at factoring time).
  IdxVec host = dist.owner;
  std::vector<IdxVec> active(nranks);
  long long total_active = 0;
  for (int r = 0; r < nranks; ++r) {
    for (const idx v : dist.owned_rows[r]) {
      if (dist.interface[v]) active[r].push_back(v);
    }
    total_active += static_cast<long long>(active[r].size());
  }

  std::vector<std::uint8_t> stage_interior(n, 0);
  IdxVec compact_of(n, -1);

  // Factor the rows marked stage_interior on each host (sequential within a
  // host, concurrent across hosts), then reduce the remaining rows against
  // them. Used by both the partitioned stages and the sequential tail.
  const pilut_detail::FactorCounters counters = pilut_detail::factor_counters(machine);
  const auto run_stage = [&]() {
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
      WorkingRow& w = lane.w;
      FactorScratch& scratch = lane.scratch;
      std::uint64_t flops = 0, copied = 0;
      pilut_detail::FillDropTally tally;
      const auto by_newnum = [&](idx x, idx y) {
        return sched.newnum[x] > sched.newnum[y];  // min-heap on new number
      };
      using NewnumHeap = PooledHeap<decltype(by_newnum)>;

      // Pass 1: factor this host's stage-interior rows in ascending new
      // number (they may eliminate each other — a sequential local block).
      for (const idx i : active[r]) {
        if (!stage_interior[i]) continue;
        const real tau_i = opts.tau * norms[i];
        const idx fi = iface_of[i];
        const RowView tail = state.tails.view(fi);
        const idx my_num = sched.newnum[i];
        const auto eliminatable = [&](idx c) {
          return stage_interior[c] && sched.newnum[c] < my_num;
        };
        NewnumHeap heap(scratch.heap, by_newnum);
        for (std::size_t p = 0; p < tail.size(); ++p) {
          w.insert(tail.cols[p], tail.vals[p]);
          if (eliminatable(tail.cols[p])) heap.push(tail.cols[p]);
        }
        flops += pilut_detail::eliminate_cascading(w, state, tau_i, heap, eliminatable,
                                                   tally);

        // The stage's multipliers join the L part gathered so far (interior
        // columns and earlier stages' columns: disjoint from this stage's),
        // and the 3rd dropping rule runs over the whole row, as in pass 2.
        pilut_detail::SlackRows& lparts = state.lparts;
        SparseRow& ustage = scratch.ustage;
        ustage.clear();
        real diag = 0.0;
        for (const idx c : w.touched()) {
          const real v = w.value(c);
          if (c == i) {
            diag = v;
          } else if (eliminatable(c)) {
            if (v != 0.0) lparts.push(r, fi, c, v);  // multiplier -> L
          } else {
            ustage.push(c, v);  // factored later (larger new number)
          }
        }
        const std::size_t staged = lparts.size(fi) + ustage.size();
        // 3rd dropping rule
        lparts.truncate(fi, select_largest(lparts.cols(fi), lparts.vals(fi), opts.m,
                                           tau_i, -1, scratch.kept));
        select_largest(ustage, opts.m, tau_i, -1, scratch.kept);
        tally.dropped += staged - lparts.size(fi) - ustage.size();
        diag = safeguard_pivot(i, diag,
                               opts.pivot_rel > 0.0 ? opts.pivot_rel * norms[i] : 0.0,
                               tally.guarded);
        state.l.put(r, i, lparts.view(fi));
        state.u.put_diag_first(r, i, diag, ustage);
        // The row is finished: its working storage goes back to the host.
        state.tails.release(r, fi);
        lparts.release(r, fi);
        w.clear();
      }

      // Pass 2: reduce the host's remaining rows against the freshly
      // factored block (all needed U rows are local to this host).
      for (const idx i : active[r]) {
        if (stage_interior[i]) continue;
        const idx fi = iface_of[i];
        const RowView tail = state.tails.view(fi);
        bool touches_stage = false;
        for (const idx c : tail.cols) {
          if (stage_interior[c]) {
            touches_stage = true;
            break;
          }
        }
        if (!touches_stage) continue;
        const real tau_i = opts.tau * norms[i];
        const auto eliminatable = [&](idx c) { return stage_interior[c] != 0; };
        NewnumHeap heap(scratch.heap, by_newnum);
        for (std::size_t p = 0; p < tail.size(); ++p) {
          w.insert(tail.cols[p], tail.vals[p]);
          if (eliminatable(tail.cols[p])) heap.push(tail.cols[p]);
        }
        flops += pilut_detail::eliminate_cascading(w, state, tau_i, heap, eliminatable,
                                                   tally);

        pilut_detail::SlackRows& lparts = state.lparts;
        pilut_detail::SlackRows& tails = state.tails;
        for (const idx c : w.touched()) {
          if (eliminatable(c) && w.value(c) != 0.0) lparts.push(r, fi, c, w.value(c));
        }
        const std::size_t l_before = lparts.size(fi);
        // 3rd dropping rule
        lparts.truncate(fi, select_largest(lparts.cols(fi), lparts.vals(fi), opts.m,
                                           tau_i, -1, scratch.kept));
        tally.dropped += l_before - lparts.size(fi);
        tails.truncate(fi, 0);
        for (const idx c : w.touched()) {
          if (!eliminatable(c)) tails.push(r, fi, c, w.value(c));
        }
        if (tail_cap > 0) {
          const std::size_t t_before = tails.size(fi);
          tails.truncate(fi, select_largest(tails.cols(fi), tails.vals(fi), tail_cap,
                                            0.0, i, scratch.kept));
          tally.dropped += t_before - tails.size(fi);
        }
        lane.max_reduced_row =
            std::max(lane.max_reduced_row, static_cast<nnz_t>(tails.size(fi)));
        copied += tails.size(fi) * (sizeof(idx) + sizeof(real));
        w.clear();
      }
      ctx.charge_flops(flops);
      ctx.charge_mem(copied);
      lane.pivots_guarded += tally.guarded;
      counters.commit(r, tally);
    }, "nested/stage");
  };

  int depth = 0;
  sim::ScopedPhase nested_phase(machine, "factor/nested");
  while (total_active > 0) {
    const bool sequential_tail = total_active <= nested.sequential_cutoff ||
                                 depth >= nested.max_depth || nranks == 1;

    if (sequential_tail) {
      sim::ScopedPhase span(machine, "sequential");
      // Gather everything onto rank 0 and factor the block sequentially.
      for (int r = 1; r < nranks; ++r) {
        for (const idx v : active[r]) {
          machine.charge_transfer(r, 0, row_bytes(state, iface_of[v]),
                                  "nested/gather_sequential");
          host[v] = 0;
          active[0].push_back(v);
        }
        active[r].clear();
      }
      std::sort(active[0].begin(), active[0].end());
      for (const idx v : active[0]) {
        stage_interior[v] = 1;
        sched.newnum[v] = next_num++;
      }
      run_stage();
      for (const idx v : active[0]) stage_interior[v] = 0;
      active[0].clear();
      total_active = 0;
      sched.level_start.push_back(next_num);
      ++stats.levels;
      break;
    }

    // --- Assemble the reduced graph over the active rows (the adjacency
    // exchange mirrors pilut's; the partitioning itself is charged as a
    // parallel-partitioner collective).
    IdxVec verts;  // compact order: host-major, ascending orig id
    for (int r = 0; r < nranks; ++r) {
      verts.insert(verts.end(), active[r].begin(), active[r].end());
    }
    for (std::size_t c = 0; c < verts.size(); ++c) compact_of[verts[c]] = static_cast<idx>(c);
    // Per-lane edge lists, concatenated lane 0..p-1 after the step: the
    // concatenation order equals the sequential append order (ranks run
    // 0..p-1 into one shared lane), and that order feeds partition_kway.
    std::vector<std::vector<std::pair<idx, idx>>> edge_lanes(
        static_cast<std::size_t>(machine.scratch_lanes()));
    {
      sim::ScopedPhase span(machine, "graph");
      machine.step([&](sim::RankContext& ctx) {
        const int r = ctx.rank();
        auto& lane_edges = edge_lanes[static_cast<std::size_t>(ctx.lane())];
        std::uint64_t scanned = 0;
        for (const idx v : active[r]) {
          for (const idx c : state.tails.cols(iface_of[v])) {
            if (c == v) continue;
            ++scanned;
            lane_edges.emplace_back(compact_of[v], compact_of[c]);
          }
        }
        ctx.charge_mem(scanned * sizeof(idx));
      }, "nested/graph");
      machine.collective(static_cast<std::uint64_t>(verts.size()) * sizeof(idx) / nranks +
                         sizeof(idx), "nested/graph_gather");
    }
    std::vector<std::pair<idx, idx>> edges;
    for (auto& lane_edges : edge_lanes) {
      edges.insert(edges.end(), lane_edges.begin(), lane_edges.end());
    }
    const Graph reduced_graph = graph_from_edges(static_cast<idx>(verts.size()), edges);
    const Partition part = partition_kway(reduced_graph, nranks,
                                          {.seed = opts.seed + depth + 1});

    // Sub-interior = all reduced-graph neighbors in the same sub-domain.
    idx stage_count = 0;
    for (idx c = 0; c < reduced_graph.n; ++c) {
      bool internal = true;
      for (const idx u : reduced_graph.neighbors(c)) {
        if (part.part[u] != part.part[c]) {
          internal = false;
          break;
        }
      }
      if (internal) {
        stage_interior[verts[c]] = 1;
        ++stage_count;
      }
    }
    if (stage_count * 8 < static_cast<idx>(verts.size())) {
      // The reduced matrix is too dense for partitioning to expose interior
      // work; fall back to the sequential tail on the next iteration.
      for (const idx v : verts) stage_interior[v] = 0;
      depth = nested.max_depth;
      continue;
    }

    // --- Migrate every active row to its sub-domain's host rank.
    std::vector<IdxVec> new_active(nranks);
    {
      sim::ScopedPhase span(machine, "migrate");
      for (idx c = 0; c < reduced_graph.n; ++c) {
        const idx v = verts[c];
        const int new_host = part.part[c];
        if (host[v] != new_host) {
          machine.charge_transfer(host[v], new_host,
                                  row_bytes(state, iface_of[v]),
                                  "nested/migrate");
          host[v] = static_cast<idx>(new_host);
        }
        new_active[new_host].push_back(v);
      }
    }
    for (int r = 0; r < nranks; ++r) {
      std::sort(new_active[r].begin(), new_active[r].end());
    }
    active = std::move(new_active);

    // --- Number the stage's sub-interior rows host-major and factor.
    for (int r = 0; r < nranks; ++r) {
      for (const idx v : active[r]) {
        if (stage_interior[v]) sched.newnum[v] = next_num++;
      }
    }
    {
      sim::ScopedPhase span(machine, "number");
      machine.collective(static_cast<std::uint64_t>(stage_count) * sizeof(idx) / nranks +
                         sizeof(idx), "nested/number");
    }
    {
      sim::ScopedPhase span(machine, "stage");
      run_stage();
    }

    // --- Retire the factored rows.
    for (int r = 0; r < nranks; ++r) {
      IdxVec still;
      for (const idx v : active[r]) {
        if (stage_interior[v]) {
          stage_interior[v] = 0;
        } else {
          still.push_back(v);
        }
      }
      total_active -= static_cast<long long>(active[r].size() - still.size());
      active[r] = std::move(still);
    }
    for (const idx v : verts) compact_of[v] = -1;
    sched.level_start.push_back(next_num);
    ++stats.levels;
    ++depth;
  }
  if (sched.level_start.back() != n) sched.level_start.push_back(n);
  PTILU_CHECK(next_num == n, "nested numbering did not cover all rows");
  machine.check_quiescent("nested/end");

  pilut_detail::merge_lane_stats(lanes, stats);
  pilut_detail::finish_stats(machine, stats);
  sched.orig_of = invert_permutation(sched.newnum);
  sched.owner_new.resize(n);
  for (idx i = 0; i < n; ++i) sched.owner_new[sched.newnum[i]] = host[i];
  pilut_detail::assemble_factors(state, sched.newnum, result.factors);
  result.factors.validate();
  sched.validate();
  return result;
}

}  // namespace ptilu
