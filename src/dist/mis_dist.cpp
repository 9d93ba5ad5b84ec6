#include "ptilu/dist/mis_dist.hpp"

#include <algorithm>

#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/rng.hpp"

namespace ptilu {

namespace {

enum Status : std::uint8_t { kCandidate = 0, kIn = 1, kOut = 2 };

constexpr int kTagIn = 1;
constexpr int kTagOut = 2;

}  // namespace

DistGraph DistGraph::from_adjacency(idx n_global, const IdxVec* owner,
                                    const std::vector<IdxVec>& verts_of,
                                    const std::vector<std::vector<IdxVec>>& adj) {
  PTILU_CHECK(owner != nullptr && verts_of.size() == adj.size(),
              "DistGraph::from_adjacency needs an owner array and one list per rank");
  DistGraph graph;
  graph.n_global = n_global;
  graph.owner = owner;
  graph.parts.resize(verts_of.size());
  std::vector<std::uint8_t> stamp(verts_of.size(), 0);
  for (std::size_t r = 0; r < verts_of.size(); ++r) {
    Part& part = graph.parts[r];
    PTILU_CHECK(adj[r].size() == verts_of[r].size(), "DistGraph adjacency size mismatch");
    part.verts = verts_of[r];
    IdxVec ptr(1, 0);
    for (std::size_t i = 0; i < part.verts.size(); ++i) {
      for (const idx u : adj[r][i]) {
        if (u != part.verts[i]) part.storage.push_back(u);
      }
      ptr.push_back(static_cast<idx>(part.storage.size()));
    }
    part.entries = part.storage.size();
    part.seg.assign(part.verts.size() * kSegments, Range{});
    for (std::size_t i = 0; i < part.verts.size(); ++i) {
      part.seg[i * kSegments] = {part.storage.data() + ptr[i], part.storage.data() + ptr[i + 1]};
    }
    part.index_peers(stamp, [&](std::size_t i, const auto& add) {
      for (idx k = ptr[i]; k < ptr[i + 1]; ++k) {
        const int peer = (*owner)[part.storage[k]];
        if (peer != static_cast<int>(r)) add(peer);
      }
    });
  }
  return graph;
}

void DistMisScratch::ensure(int nranks, int lanes, idx n_global) {
  if (static_cast<int>(status.size()) < nranks) status.resize(nranks);
  for (auto& s : status) {
    if (static_cast<idx>(s.size()) < n_global) s.assign(n_global, std::uint8_t{0});
  }
  // Outer vectors only: the per-rank batch vectors are sized by each rank's
  // neighbor degree during setup, so total batch storage stays proportional
  // to the communication graph — never O(nranks²).
  if (static_cast<int>(in_batch.size()) < nranks) {
    in_batch.resize(nranks);
    out_batch.resize(nranks);
  }
  if (static_cast<int>(selected.size()) < lanes) selected.resize(lanes);
  if (static_cast<int>(cand_lane.size()) < lanes) cand_lane.resize(lanes, 0);
  if (static_cast<int>(key.size()) < lanes) {
    key.resize(lanes);
    key_stamp.resize(lanes);
  }
  for (int l = 0; l < lanes; ++l) {
    if (static_cast<idx>(key[l].size()) < n_global) {
      key[l].resize(n_global);
      key_stamp[l].assign(n_global, 0);
    }
  }
}

IdxVec mis_dist(sim::Machine& machine, const DistGraph& graph, const DistMisOptions& opts,
                DistMisScratch* scratch) {
  const int nranks = machine.nranks();
  PTILU_CHECK(graph.owner != nullptr, "DistGraph missing owner array");
  PTILU_CHECK(static_cast<int>(graph.parts.size()) == nranks, "DistGraph rank count mismatch");

  DistMisScratch local_scratch;
  DistMisScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  sc.ensure(nranks, machine.scratch_lanes(), graph.n_global);
  // New status epoch: every byte stamped by an earlier call reads as
  // kCandidate. The six epoch bits wrap every 63 calls; the arrays are
  // then cleared once.
  if (++sc.call_epoch == 64) {
    for (auto& s : sc.status) std::fill(s.begin(), s.end(), std::uint8_t{0});
    sc.call_epoch = 1;
  }
  const auto epoch = static_cast<std::uint8_t>(sc.call_epoch << 2);
  const auto status_of = [epoch](const std::vector<std::uint8_t>& status, idx v) {
    // A status of this call differs from the epoch by kIn or kOut; any
    // other byte is stale and reads as kCandidate.
    const auto delta = static_cast<std::uint8_t>(status[v] - epoch);
    return delta == kIn || delta == kOut ? static_cast<Status>(delta) : kCandidate;
  };

  // Self-tagging: callers need not (and should not) wrap mis_dist in a
  // phase of their own; the tag nests under whatever phase is active.
  sim::ScopedPhase mis_phase(machine, "mis");

  // Setup phase (the paper's "communication setup"): every owned vertex
  // and mirror starts as a candidate — the status epoch already says so —
  // and the rank scans its adjacency once, which the graph's precomputed
  // entry count charges for. The slot-indexed batches are sized here.
  {
  sim::ScopedPhase span(machine, "setup");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    const DistGraph::Part& part = graph.parts[r];
    if (sc.in_batch[r].size() < part.nbrs.size()) sc.in_batch[r].resize(part.nbrs.size());
    if (sc.out_batch[r].size() < part.nbrs.size()) sc.out_batch[r].resize(part.nbrs.size());
    ctx.charge_mem(part.entries * sizeof(idx));
  }, "mis/setup");
  }

  // Per-rank outgoing update batches, slot-indexed by sorted neighbor
  // (pooled in the scratch, cleared after each flush so capacity persists
  // across rounds and calls).
  auto& in_batch = sc.in_batch;
  auto& out_batch = sc.out_batch;
  // Queue a status-change notice for every peer rank owning a neighbor of
  // parts[r].verts[i], via the graph's peer CSR (entries are slots).
  const auto notify = [&](int r, std::size_t i, idx v,
                          std::vector<IdxVec>& batch) {
    const DistGraph::Part& part = graph.parts[r];
    const idx end = part.peer_ptr[i + 1];
    for (idx p = part.peer_ptr[i]; p < end; ++p) batch[part.peer_slot[p]].push_back(v);
  };
  const auto flush_batches = [&](sim::RankContext& ctx, int r) {
    const auto& nbrs = graph.parts[r].nbrs;
    for (std::size_t s = 0; s < nbrs.size(); ++s) {
      if (!in_batch[r][s].empty()) {
        ctx.send_indices(nbrs[s], kTagIn, in_batch[r][s]);
        in_batch[r][s].clear();
      }
      if (!out_batch[r][s].empty()) {
        ctx.send_indices(nbrs[s], kTagOut, out_batch[r][s]);
        out_batch[r][s].clear();
      }
    }
  };

  long long candidates_left = 1;
  {
  sim::ScopedPhase rounds_span(machine, "rounds");
  for (int round = 0; round < opts.rounds && candidates_left > 0; ++round) {
    // New memo epoch for this round's vertex keys. A key depends only on
    // (seed, vertex, round), so the per-lane memos all compute the same
    // values; on the (never reached in practice) epoch wrap, invalidate
    // every lane's stamps.
    if (++sc.round_epoch == 0) {
      for (auto& stamps : sc.key_stamp) std::fill(stamps.begin(), stamps.end(), 0u);
      sc.round_epoch = 1;
    }
    std::fill(sc.cand_lane.begin(), sc.cand_lane.end(), 0);
    // One superstep per round: apply deferred mirror updates, dominate owned
    // candidates that gained an In neighbor, then select strict local key
    // minima among the remaining candidates. Selection uses only
    // round-start information, so adjacent boundary vertices on different
    // ranks can never both win — this provides the conflict-freedom the
    // paper obtains with its two-step insert-then-retract modification.
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      const auto lane = static_cast<std::size_t>(ctx.lane());
      auto& status = sc.status[r];
      auto& key = sc.key[lane];
      auto& key_stamp = sc.key_stamp[lane];
      const auto key_of = [&](idx v) {
        if (key_stamp[v] != sc.round_epoch) {
          key_stamp[v] = sc.round_epoch;
          key[v] = vertex_key(opts.seed, v, round);
        }
        return key[v];
      };
      bool fresh = round == 0;  // every status this rank sees is still a candidate
      for (const sim::Message& msg : ctx.recv_all()) {
        const auto value = static_cast<std::uint8_t>(epoch | (msg.tag == kTagIn ? kIn : kOut));
        for (const idx v : msg.as<idx>()) status[v] = value;
        fresh = false;
      }

      const DistGraph::Part& part = graph.parts[r];
      const IdxVec& verts = part.verts;
      std::uint64_t comparisons = 0;
      // Domination sweep: candidates adjacent to an In vertex leave. While
      // this rank sees no In vertex yet, it would compare every entry and
      // find none, so only its count is taken.
      if (fresh) comparisons = part.entries;
      for (std::size_t i = 0; i < verts.size() && !fresh; ++i) {
        const idx v = verts[i];
        if (status_of(status, v) != kCandidate) continue;
        part.walk(i, [&](idx u) {
          ++comparisons;
          if (status_of(status, u) != kIn) return false;
          status[v] = static_cast<std::uint8_t>(epoch | kOut);
          notify(r, i, v, out_batch[r]);
          return true;
        });
      }
      // Selection sweep (round-start statuses; domination above only uses
      // information already final at round start, i.e. In vertices).
      IdxVec& selected = sc.selected[lane];
      selected.clear();
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const idx v = verts[i];
        if (status_of(status, v) != kCandidate) continue;
        const std::uint64_t key_v = key_of(v);
        const bool beaten = part.walk(i, [&](idx u) {
          ++comparisons;
          if (status_of(status, u) != kCandidate) return false;
          const std::uint64_t key_u = key_of(u);
          return key_u < key_v || (key_u == key_v && u < v);
        });
        if (!beaten) selected.push_back(static_cast<idx>(i));
      }
      ctx.charge_flops(comparisons);
      // Commit: winners enter the set, their owned neighbors leave.
      for (const idx i : selected) {
        const idx v = verts[i];
        status[v] = static_cast<std::uint8_t>(epoch | kIn);
        notify(r, i, v, in_batch[r]);
        part.walk(i, [&](idx u) {
          if ((*graph.owner)[u] != r || status_of(status, u) != kCandidate) return false;
          status[u] = static_cast<std::uint8_t>(epoch | kOut);
          const auto pos = static_cast<std::size_t>(
              std::lower_bound(verts.begin(), verts.end(), u) - verts.begin());
          notify(r, pos, u, out_batch[r]);
          return false;
        });
      }
      for (const idx v : verts) sc.cand_lane[lane] += status_of(status, v) == kCandidate;
      flush_batches(ctx, r);
    }, "mis/round");
    // Integer sum of the per-lane partials: order-independent, so one
    // shared sequential lane and p threaded lanes agree exactly.
    candidates_left = 0;
    for (const long long c : sc.cand_lane) candidates_left += c;
  }
  }

  // Drain pending updates so the machine's queues are clean for the caller.
  {
    sim::ScopedPhase span(machine, "drain");
    machine.step([&](sim::RankContext& ctx) { (void)ctx.recv_all(); }, "mis/drain");
  }
  machine.check_quiescent("mis/end");

  IdxVec result;
  for (int r = 0; r < nranks; ++r) {
    for (const idx v : graph.parts[r].verts) {
      if (status_of(sc.status[r], v) == kIn) result.push_back(v);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace ptilu
