// Distributed maximal-independent-set computation (§4.1 of the paper).
//
// Luby's algorithm with a fixed number of augmentation rounds (the paper
// uses 5: "the majority of the independent vertices are discovered during
// the first few iterations"). Per-vertex random keys are stateless hashes
// of (seed, vertex, round), so every rank evaluates the same key for any
// vertex without communication; what *is* communicated — exactly as on a
// real machine — is candidacy status: when a boundary vertex enters the
// set or becomes dominated, its owner notifies the ranks owning its
// neighbors. Selection ("my key is a strict local minimum among candidate
// neighbors, ties by id") is evaluated from the same information on every
// rank, which yields the same conflict-freedom the paper obtains with its
// two-step insert-then-retract modification for unsymmetric structures;
// the adjacency handed in must already be symmetrized (the PILUT driver
// performs that exchange — the paper's "communication setup phase") and
// carry its remote-peer index, so mis_dist's own setup superstep only
// charges for the scan the paper's algorithm makes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ptilu/sim/machine.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// A distributed graph over a subset of a global id space, one Part per
/// rank. Part r owns the ascending vertex list `verts`; the neighbor
/// sequence of verts[i] is the concatenation of its kSegments index ranges
/// seg[i * kSegments + s] (walk() yields it). The sequence must be
/// symmetric — u appears for v iff v appears for u — and may repeat a
/// neighbor. A plain adjacency fills one range per vertex
/// (from_adjacency); the PILUT driver points the ranges into its
/// persistent reduced graph, so no level copies neighbor lists (see
/// src/pilut/reduced_graph.hpp). Only range 1 may hold verts[i] itself,
/// which the walk skips: the driver points it at the row's tail, diagonal
/// included.
///
/// Each part also carries what mis_dist would otherwise rescan for: the
/// total sequence length `entries` (the setup superstep's memory charge),
/// the ascending list `nbrs` of the other ranks owning a neighbor of any
/// of its vertices, and per vertex the slots into `nbrs` of the ranks
/// owning one of its neighbors (CSR `peer_ptr` / `peer_slot`, each rank
/// once, in any order).
struct DistGraph {
  static constexpr int kSegments = 4;
  struct Range {
    const idx* begin = nullptr;
    const idx* end = nullptr;
  };
  struct Part {
    IdxVec verts;
    std::vector<Range> seg;      ///< [i * kSegments + s]
    std::uint64_t entries = 0;   ///< sum of the neighbor-sequence lengths
    std::vector<int> nbrs;       ///< ascending ranks owning some neighbor
    IdxVec peer_ptr;             ///< vertex i's peers: peer_slot[peer_ptr[i], peer_ptr[i+1])
    std::vector<int> peer_slot;  ///< slots into nbrs
    IdxVec storage;              ///< neighbor lists of a from_adjacency graph

    /// Call visit(u) for each neighbor u of verts[i] in sequence order until
    /// it returns true; returns whether it did.
    template <typename Visit>
    bool walk(std::size_t i, Visit&& visit) const {
      const Range* s = seg.data() + i * kSegments;
      for (const idx* u = s[0].begin; u != s[0].end; ++u) {
        if (visit(*u)) return true;
      }
      const idx v = verts[i];
      for (const idx* u = s[1].begin; u != s[1].end; ++u) {
        if (*u != v && visit(*u)) return true;
      }
      for (int k = 2; k < kSegments; ++k) {
        for (const idx* u = s[k].begin; u != s[k].end; ++u) {
          if (visit(*u)) return true;
        }
      }
      return false;
    }

    /// Fill nbrs / peer_ptr / peer_slot. peers_of(i, add) must call
    /// add(rank) for every other rank owning a neighbor of verts[i]
    /// (repeats allowed). `rank_stamp` is zeroed scratch of at least nranks
    /// bytes, left zeroed.
    template <typename PeersOf>
    void index_peers(std::vector<std::uint8_t>& rank_stamp, PeersOf&& peers_of) {
      peer_ptr.assign(1, 0);
      peer_slot.clear();
      nbrs.clear();
      // rank_stamp doubles as two dedup marks per rank: bit 0 scopes the
      // per-vertex peer list, bit 1 the part-wide neighbor list.
      const auto add = [&](int peer) {
        if (rank_stamp[peer] & 1) return;
        rank_stamp[peer] |= 1;
        peer_slot.push_back(peer);
        if (!(rank_stamp[peer] & 2)) {
          rank_stamp[peer] |= 2;
          nbrs.push_back(peer);
        }
      };
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const std::size_t first = peer_slot.size();
        peers_of(i, add);
        for (std::size_t p = first; p < peer_slot.size(); ++p) {
          rank_stamp[peer_slot[p]] &= static_cast<std::uint8_t>(~1);
        }
        peer_ptr.push_back(static_cast<idx>(peer_slot.size()));
      }
      // Remap the per-vertex lists from ranks to slots into sorted nbrs.
      std::sort(nbrs.begin(), nbrs.end());
      for (const int peer : nbrs) rank_stamp[peer] = 0;
      for (int& entry : peer_slot) {
        entry = static_cast<int>(std::lower_bound(nbrs.begin(), nbrs.end(), entry) -
                                 nbrs.begin());
      }
    }
  };

  idx n_global = 0;               ///< size of the global id space
  const IdxVec* owner = nullptr;  ///< global id -> owning rank
  std::vector<Part> parts;

  DistGraph() = default;
  // Ranges may point into the parts' own storage, which a copy would not
  // carry along; moving keeps every buffer in place.
  DistGraph(const DistGraph&) = delete;
  DistGraph& operator=(const DistGraph&) = delete;
  DistGraph(DistGraph&&) = default;
  DistGraph& operator=(DistGraph&&) = default;

  /// A graph whose rank r owns verts_of[r] (ascending) with neighbor lists
  /// adj[r][i] (global ids, symmetrized; self entries are dropped).
  static DistGraph from_adjacency(idx n_global, const IdxVec* owner,
                                  const std::vector<IdxVec>& verts_of,
                                  const std::vector<std::vector<IdxVec>>& adj);
};

struct DistMisOptions {
  std::uint64_t seed = 1;
  int rounds = 5;
};

/// Reusable per-rank working storage. The PILUT driver calls mis_dist once
/// per reduced-matrix level — hundreds to thousands of times — so it is
/// allocated once. The statuses are epoch-stamped: a byte holds
/// (call epoch << 2 | status), and a byte from an earlier call reads as
/// kCandidate, so a new call starts clean without touching the arrays
/// (the six epoch bits wrap every 63 calls, when they are cleared once).
/// Besides the status arrays it pools the per-neighbor outgoing update
/// batches and a per-round memo of the Luby vertex keys (so a key is hashed
/// once per round instead of once per incident edge). None of this changes
/// the modeled machine costs — the same messages and charges are produced.
///
/// Sparse neighbor routing: each rank's outgoing batches are indexed by a
/// *slot* into its graph part's sorted neighbor-rank list `nbrs`, not by
/// peer rank. Total batch storage is O(sum of neighbor degrees) instead of
/// O(p²) [rank][peer] arrays, and flushing walks each rank's few slots
/// instead of all p peers per round. Slots are sorted by peer rank, so
/// flushing in slot order sends in ascending rank order.
///
/// Buffers indexed [lane] are per-execution-lane working storage: one lane
/// under the sequential backend (shared by the ranks running one after
/// another), one per rank under the threaded backend so concurrent rank
/// bodies never share mutable scratch. The key memo is a pure cache of
/// vertex_key(seed, v, round), so per-lane memoization yields identical
/// keys — just computed once per lane instead of once globally.
struct DistMisScratch {
  std::vector<std::vector<std::uint8_t>> status;  // [rank][global id] epoch-stamped
  std::uint32_t call_epoch = 0;

  // Pooled per-call working buffers (capacity persists across calls).
  std::vector<std::vector<IdxVec>> in_batch;   // [rank][slot] queued kIn notices
  std::vector<std::vector<IdxVec>> out_batch;  // [rank][slot] queued kOut notices
  std::vector<IdxVec> selected;                // [lane] per-round winners
  std::vector<long long> cand_lane;            // [lane] candidates-left partial sums

  // Lazy per-round vertex-key memo (keys are identical on every rank).
  std::vector<std::vector<std::uint64_t>> key;  // [lane][global id] memoized vertex_key
  std::vector<std::vector<std::uint32_t>> key_stamp;  // [lane][global id] round epoch
  std::uint32_t round_epoch = 0;

  void ensure(int nranks, int lanes, idx n_global);
};

/// Compute an independent set of the distributed graph; returns the chosen
/// global ids, ascending. With enough rounds the set is maximal. Never
/// returns an empty set for a non-empty graph (the globally smallest key
/// always wins its neighborhood in round 0).
IdxVec mis_dist(sim::Machine& machine, const DistGraph& graph,
                const DistMisOptions& opts = {}, DistMisScratch* scratch = nullptr);

}  // namespace ptilu
