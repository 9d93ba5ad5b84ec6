#include "ptilu/pilut/pilu0.hpp"

#include <algorithm>
#include <unordered_map>

#include "detail.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

constexpr int kTagUReq = 10;
constexpr int kTagUCols = 11;
constexpr int kTagUVals = 12;

using pilut_detail::Lane;

}  // namespace

PilutResult pilu0_factor(sim::Machine& machine, const DistCsr& dist,
                         const Pilu0Options& opts) {
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  machine.reset();

  const Csr& a = dist.a;
  const idx n = a.n_rows;
  const int nranks = dist.nranks;
  const RealVec norms = row_norms(a, 2);

  PilutResult result;
  PilutStats& stats = result.stats;
  PilutSchedule& sched = result.schedule;
  sched.nranks = nranks;
  sched.newnum.assign(n, -1);

  // Interior numbering, exactly as in pilut_factor.
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
  stats.interface_nodes = n - next_num;

  std::vector<SparseRow> lrows(n), urows(n);
  RealVec udiag(n, 0.0);
  // Per-lane scratch: one lane sequentially, one per rank when threaded
  // (see pilut_detail::Lane).
  std::vector<Lane> lanes = pilut_detail::make_lanes(machine, n);

  // The zero-fill numeric kernel: load the pattern row, eliminate the given
  // factored columns in ascending new-number order, updates restricted to
  // existing pattern positions. Discarded out-of-pattern updates are the
  // PILU0 analogue of dropping (fill is structurally zero).
  const auto factor_row = [&](Lane& lane, idx i, const IdxVec& factored_cols,
                              const auto& urow_of,
                              pilut_detail::FillDropTally& tally) -> std::uint64_t {
    WorkingRow& w = lane.w;
    std::uint64_t flops = 0;
    bool diag_present = false;
    for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      w.insert(a.col_idx[k], a.values[k]);
      diag_present |= a.col_idx[k] == i;
    }
    if (!diag_present) w.insert(i, 0.0);
    for (const idx k : factored_cols) {
      const SparseRow& urow = urow_of(k);
      const real multiplier = w.value(k) / urow.vals[0];
      ++flops;
      w.set(k, multiplier);
      if (multiplier == 0.0) continue;
      for (std::size_t p = 1; p < urow.size(); ++p) {
        const idx c = urow.cols[p];
        if (w.present(c)) {  // zero-fill: discard updates outside the pattern
          w.accumulate(c, -multiplier * urow.vals[p]);
          flops += 2;
        } else {
          ++tally.dropped;
        }
      }
    }
    return flops;
  };

  const auto split_row = [&](Lane& lane, idx i, const auto& is_factored,
                             pilut_detail::FillDropTally& tally) {
    WorkingRow& w = lane.w;
    SparseRow& lrow = lrows[i];
    SparseRow& upper = lane.scratch.ustage;  // pooled staging for the U part
    upper.clear();
    real diag = 0.0;
    for (const idx c : w.touched()) {
      if (c == i) {
        diag = w.value(c);
      } else if (is_factored(c)) {
        if (w.value(c) != 0.0) lrow.push(c, w.value(c));
      } else {
        upper.push(c, w.value(c));
      }
    }
    diag = safeguard_pivot(i, diag,
                           opts.pivot_rel > 0.0 ? opts.pivot_rel * norms[i] : 0.0,
                           tally.guarded);
    udiag[i] = diag;
    pilut_detail::emit_urow(urows[i], i, diag, upper);
    w.clear();
  };

  const pilut_detail::FactorCounters counters = pilut_detail::factor_counters(machine);

  // ===================== Phase 1: interior factorization ==================
  {
  sim::ScopedPhase span(machine, "factor/interior");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
    std::uint64_t flops = 0;
    pilut_detail::FillDropTally tally;
    IdxVec factored_cols;
    for (const idx i : dist.owned_rows[r]) {
      if (dist.interface[i]) continue;
      factored_cols.clear();
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        if (c < i && !dist.interface[c]) factored_cols.push_back(c);
      }
      flops += factor_row(lane, i, factored_cols,
                          [&](idx k) -> const SparseRow& { return urows[k]; }, tally);
      split_row(lane, i, [&](idx c) { return c < i && !dist.interface[c]; }, tally);
    }
    ctx.charge_flops(flops);
    lane.pivots_guarded += tally.guarded;
    counters.commit(r, tally);
  }, "pilu0/interior");
  }
  stats.time_interior = machine.modeled_time();

  // ======== Color the interface graph with successive distributed MIS =====
  // The pattern is static, so all concurrent sets are computable up front —
  // this is exactly the structural advantage over ILUT that Figure 1 of the
  // paper illustrates. Coloring by repeated MIS on the uncolored residual
  // graph is the classic Jones–Plassmann scheme.
  std::vector<IdxVec> active(nranks);
  long long remaining = 0;
  for (int r = 0; r < nranks; ++r) {
    for (const idx v : dist.owned_rows[r]) {
      if (dist.interface[v]) active[r].push_back(v);
    }
    remaining += static_cast<long long>(active[r].size());
  }

  // Symmetrized interface adjacency (interface-to-interface couplings only),
  // built once: local edges directly, reverse edges via one exchange.
  const Csr sym = symmetrize_pattern(a);
  std::vector<std::vector<IdxVec>> adj(nranks);
  IdxVec pos_dense(n, -1);
  {
  sim::ScopedPhase span(machine, "factor/color/setup");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    adj[r].resize(active[r].size());
    for (std::size_t i = 0; i < active[r].size(); ++i) pos_dense[active[r][i]] = static_cast<idx>(i);
    std::uint64_t scanned = 0;
    for (std::size_t i = 0; i < active[r].size(); ++i) {
      const idx v = active[r][i];
      for (nnz_t k = sym.row_ptr[v]; k < sym.row_ptr[v + 1]; ++k) {
        const idx c = sym.col_idx[k];
        ++scanned;
        if (c != v && dist.interface[c]) adj[r][i].push_back(c);
      }
    }
    ctx.charge_mem(scanned * sizeof(idx));
  }, "pilu0/color/setup");
  }

  std::vector<IdxVec> classes;  // color classes (global ids)
  {
    sim::ScopedPhase color_span(machine, "factor/color");
    DistMisScratch mis_scratch;
    // The residual graph: each class strips its vertices in place from the
    // adjacency lists, which then back a fresh DistGraph for the next class.
    std::vector<IdxVec> verts_of = active;  // active is still needed for the factor phases
    std::vector<std::uint8_t> colored(n, 0);
    while (remaining > 0) {
      const DistGraph graph = DistGraph::from_adjacency(n, &dist.owner, verts_of, adj);
      const IdxVec cls = mis_dist(machine, graph,
                                  {.seed = 97 + classes.size(), .rounds = 64}, &mis_scratch);
      PTILU_CHECK(!cls.empty(), "coloring stalled");
      for (const idx v : cls) colored[v] = 1;
      remaining -= static_cast<long long>(cls.size());
      classes.push_back(cls);
      // Strip colored vertices from the residual graph.
      for (int r = 0; r < nranks; ++r) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < verts_of[r].size(); ++i) {
          if (colored[verts_of[r][i]]) continue;
          IdxVec& neighbors = adj[r][i];
          std::erase_if(neighbors, [&](idx u) { return colored[u] != 0; });
          if (kept != i) {
            verts_of[r][kept] = verts_of[r][i];
            adj[r][kept] = std::move(neighbors);
          }
          ++kept;
        }
        verts_of[r].resize(kept);
        adj[r].resize(kept);
      }
    }
  }

  // Number the classes rank-major and record the level boundaries.
  sched.level_start.push_back(sched.n_interior);
  std::vector<std::uint8_t> class_of(n, 0);
  {
  sim::ScopedPhase span(machine, "factor/number");
  for (const auto& cls : classes) {
    std::vector<IdxVec> by_rank(nranks);
    for (const idx v : cls) by_rank[dist.owner[v]].push_back(v);
    for (int r = 0; r < nranks; ++r) {
      for (const idx v : by_rank[r]) sched.newnum[v] = next_num++;
    }
    sched.level_start.push_back(next_num);
    machine.collective(static_cast<std::uint64_t>(cls.size()) * sizeof(idx) / nranks +
                       sizeof(idx), "pilu0/number");
  }
  }
  PTILU_CHECK(next_num == n, "coloring did not cover all interface rows");
  stats.levels = static_cast<int>(classes.size());

  // ================== Factor the interface rows class by class ============
  std::vector<std::uint8_t> factored_interface(n, 0);
  sim::ScopedPhase interface_phase(machine, "factor/interface");
  for (const auto& cls : classes) {
    std::vector<std::uint8_t> in_class(n, 0);
    for (const idx v : cls) in_class[v] = 1;

    // Exchange the remote U rows this class's eliminations need: row i in
    // the class references factored interface columns (pattern-static, so
    // requests are known a priori).
    // Keyed lookups only — never iterated, so hash order cannot leak into
    // modeled output.
    std::vector<std::unordered_map<idx, SparseRow>> remote_urows(nranks);
    {
    sim::ScopedPhase span(machine, "exchange");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      std::vector<IdxVec> requests(nranks);
      for (const idx i : active[r]) {
        if (!in_class[i]) continue;
        for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
          const idx c = a.col_idx[k];
          if (dist.interface[c] && factored_interface[c] && dist.owner[c] != r) {
            requests[dist.owner[c]].push_back(c);
          }
        }
      }
      for (int peer = 0; peer < nranks; ++peer) {
        IdxVec& rows = requests[peer];
        if (rows.empty()) continue;
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        ctx.send_indices(peer, kTagUReq, rows);
      }
    }, "pilu0/exchange/request");
    machine.step([&](sim::RankContext& ctx) {
      IdxVec requested, cols_payload;
      RealVec vals_payload;
      for (const sim::Message& msg : ctx.recv_all()) {
        PTILU_CHECK(msg.tag == kTagUReq, "unexpected message in PILU0 exchange");
        requested.clear();
        sim::decode_indices_append(msg, requested);
        cols_payload.clear();
        vals_payload.clear();
        for (const idx row : requested) {
          const SparseRow& urow = urows[row];
          cols_payload.push_back(row);
          cols_payload.push_back(static_cast<idx>(urow.size()));
          cols_payload.insert(cols_payload.end(), urow.cols.begin(), urow.cols.end());
          vals_payload.insert(vals_payload.end(), urow.vals.begin(), urow.vals.end());
        }
        ctx.send_indices(msg.from, kTagUCols, cols_payload);
        ctx.send_reals(msg.from, kTagUVals, vals_payload);
      }
    }, "pilu0/exchange/reply");
    }
    {
    sim::ScopedPhase span(machine, "factor");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      IdxVec cols_payload;
      RealVec vals_payload;
      for (const sim::Message& msg : ctx.recv_all()) {
        if (msg.tag == kTagUCols) {
          sim::decode_indices_append(msg, cols_payload);
        } else {
          sim::decode_reals_append(msg, vals_payload);
        }
      }
      std::size_t vpos = 0;
      for (std::size_t p = 0; p < cols_payload.size();) {
        const idx row = cols_payload[p++];
        const idx len = cols_payload[p++];
        SparseRow& urow = remote_urows[r][row];
        urow.cols.assign(cols_payload.begin() + p, cols_payload.begin() + p + len);
        urow.vals.assign(vals_payload.begin() + vpos, vals_payload.begin() + vpos + len);
        p += len;
        vpos += len;
      }
      const auto urow_of = [&](idx k) -> const SparseRow& {
        if (dist.owner[k] == r) return urows[k];
        const auto it = remote_urows[r].find(k);
        PTILU_CHECK(it != remote_urows[r].end(), "missing remote U row " << k);
        return it->second;
      };

      Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
      std::uint64_t flops = 0;
      pilut_detail::FillDropTally tally;
      IdxVec factored_cols;
      for (const idx i : active[r]) {
        if (!in_class[i]) continue;
        factored_cols.clear();
        for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
          const idx c = a.col_idx[k];
          if (c == i) continue;
          if (!dist.interface[c] || factored_interface[c]) factored_cols.push_back(c);
        }
        // Ascending new number: local interiors first (ascending orig id),
        // then earlier-class interface columns by their assigned number.
        std::sort(factored_cols.begin(), factored_cols.end(), [&](idx x, idx y) {
          return sched.newnum[x] < sched.newnum[y];
        });
        flops += factor_row(lane, i, factored_cols, urow_of, tally);
        split_row(lane, i, [&](idx c) {
          return !dist.interface[c] || factored_interface[c];
        }, tally);
      }
      ctx.charge_flops(flops);
      lane.pivots_guarded += tally.guarded;
      counters.commit(r, tally);
    }, "pilu0/factor_class");
    }
    for (const idx v : cls) factored_interface[v] = 1;
  }
  machine.check_quiescent("pilu0/end");

  pilut_detail::merge_lane_stats(lanes, stats);
  stats.time_interface = machine.modeled_time() - stats.time_interior;
  stats.time_total = machine.modeled_time();
  const auto totals = machine.total_counters();
  stats.flops = totals.flops;
  stats.bytes_sent = totals.bytes_sent;
  stats.messages = totals.messages_sent;
  stats.supersteps = machine.supersteps();

  sched.orig_of = invert_permutation(sched.newnum);
  sched.owner_new.resize(n);
  for (idx i = 0; i < n; ++i) sched.owner_new[sched.newnum[i]] = dist.owner[i];
  pilut_detail::assemble_factors(lrows, urows, sched.newnum, result.factors);
  result.factors.validate();
  sched.validate();
  return result;
}

}  // namespace ptilu
