// Tests for the distributed substrate: DistCsr, halo exchange, parallel
// SpMV, and the distributed Luby MIS.
#include <gtest/gtest.h>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/graph/mis.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

DistCsr make_dist(const Csr& a, int nranks, std::uint64_t seed = 1) {
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, nranks, {.seed = seed});
  return DistCsr::create(a, p);
}

TEST(DistCsr, OwnershipCoversAllRows) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr dist = make_dist(a, 4);
  idx total = 0;
  for (int r = 0; r < 4; ++r) {
    total += static_cast<idx>(dist.owned_rows[r].size());
    for (const idx row : dist.owned_rows[r]) EXPECT_EQ(dist.owner[row], r);
  }
  EXPECT_EQ(total, a.n_rows);
}

TEST(DistCsr, InteriorNodesHaveOnlyLocalNeighbors) {
  const Csr a = workloads::convection_diffusion_2d(20, 20);
  const DistCsr dist = make_dist(a, 4);
  for (idx v = 0; v < dist.n(); ++v) {
    if (dist.interface[v]) continue;
    for (nnz_t k = a.row_ptr[v]; k < a.row_ptr[v + 1]; ++k) {
      EXPECT_EQ(dist.owner[a.col_idx[k]], dist.owner[v])
          << "interior node " << v << " references a remote column";
    }
  }
}

TEST(DistCsr, InterfaceFractionReasonable) {
  const Csr a = workloads::convection_diffusion_2d(48, 48);
  const DistCsr dist = make_dist(a, 8);
  const idx interface_total = dist.interface_count_total();
  EXPECT_GT(interface_total, 0);
  EXPECT_LT(interface_total, dist.n() / 3);
  idx interior_sum = 0;
  for (int r = 0; r < 8; ++r) interior_sum += dist.interior_count(r);
  EXPECT_EQ(interior_sum + interface_total, dist.n());
}

TEST(DistCsr, SingleRankHasNoInterface) {
  const Csr a = workloads::convection_diffusion_2d(10, 10);
  const DistCsr dist = make_dist(a, 1);
  EXPECT_EQ(dist.interface_count_total(), 0);
}

TEST(Halo, ListsAreMirrored) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  const Halo halo = Halo::build(dist);
  // Every recv entry (r needs X from peer) must match a send entry on peer.
  for (int r = 0; r < 4; ++r) {
    for (const auto& [peer, indices] : halo.recv_lists[r]) {
      bool found = false;
      for (const auto& [to, sent] : halo.send_lists[peer]) {
        if (to == r) {
          EXPECT_EQ(sent, indices);
          found = true;
        }
      }
      EXPECT_TRUE(found) << "no send list on rank " << peer << " for rank " << r;
    }
  }
}

TEST(Halo, SendsOnlyOwnedIndices) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 6);
  const Halo halo = Halo::build(dist);
  for (int r = 0; r < 6; ++r) {
    for (const auto& [peer, indices] : halo.send_lists[r]) {
      for (const idx v : indices) EXPECT_EQ(dist.owner[v], r);
    }
  }
}

TEST(Halo, OnlyInterfaceNodesExchanged) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  const Halo halo = Halo::build(dist);
  for (int r = 0; r < 4; ++r) {
    for (const auto& [peer, indices] : halo.send_lists[r]) {
      for (const idx v : indices) EXPECT_TRUE(dist.interface[v]);
    }
  }
}

TEST(DistSpmv, MatchesSerial) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 7.0, 3.0);
  for (const int nranks : {1, 2, 4, 8}) {
    const DistCsr dist = make_dist(a, nranks);
    const Halo halo = Halo::build(dist);
    sim::Machine machine(nranks);
    const RealVec x = workloads::random_vector(a.n_rows, 42);
    RealVec y_dist(a.n_rows, 0.0), y_serial(a.n_rows, 0.0);
    dist_spmv(machine, dist, halo, x, y_dist);
    spmv(a, x, y_serial);
    EXPECT_LT(max_abs_diff(y_dist, y_serial), 1e-14) << "nranks=" << nranks;
  }
}

TEST(DistSpmv, CommunicatesOnlyWithMultipleRanks) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr solo = make_dist(a, 1);
  sim::Machine machine(1);
  RealVec y(a.n_rows);
  dist_spmv(machine, solo, Halo::build(solo), workloads::random_vector(a.n_rows, 1), y);
  EXPECT_EQ(machine.total_counters().messages_sent, 0u);

  const DistCsr quad = make_dist(a, 4);
  sim::Machine machine4(4);
  dist_spmv(machine4, quad, Halo::build(quad), workloads::random_vector(a.n_rows, 1), y);
  EXPECT_GT(machine4.total_counters().messages_sent, 0u);
}

TEST(DistSpmv, ModeledTimeDropsWithMoreRanks) {
  const Csr a = workloads::convection_diffusion_2d(64, 64);
  RealVec y(a.n_rows);
  const RealVec x = workloads::random_vector(a.n_rows, 3);
  double prev = 1e300;
  for (const int nranks : {1, 4, 16}) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine machine(nranks);
    dist_spmv(machine, dist, Halo::build(dist), x, y);
    EXPECT_LT(machine.modeled_time(), prev) << "nranks=" << nranks;
    prev = machine.modeled_time();
  }
}

// --- Distributed MIS ---------------------------------------------------

/// Build a DistGraph over all vertices of g with a given partition.
struct DistGraphFixture {
  IdxVec owner;
  DistGraph dist;
  DistGraphFixture(const Graph& g, const Partition& p) : owner(p.part) {
    std::vector<IdxVec> verts_of(p.nparts);
    std::vector<std::vector<IdxVec>> adj(p.nparts);
    for (idx v = 0; v < g.n; ++v) {
      verts_of[p.part[v]].push_back(v);
      const auto nbrs = g.neighbors(v);
      adj[p.part[v]].emplace_back(nbrs.begin(), nbrs.end());
    }
    dist = DistGraph::from_adjacency(g.n, &owner, verts_of, adj);
  }
};

TEST(MisDist, ProducesIndependentSet) {
  const Csr a = workloads::convection_diffusion_2d(20, 20);
  const Graph g = graph_from_pattern(a);
  for (const int nranks : {1, 2, 4, 8}) {
    const Partition p = partition_kway(g, nranks);
    DistGraphFixture fixture(g, p);
    sim::Machine machine(nranks);
    const IdxVec set = mis_dist(machine, fixture.dist, {.seed = 7, .rounds = 5});
    EXPECT_TRUE(is_independent(g, set)) << "nranks=" << nranks;
    EXPECT_GT(set.size(), 0u);
  }
}

TEST(MisDist, ManyRoundsIsMaximal) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, 4);
  DistGraphFixture fixture(g, p);
  sim::Machine machine(4);
  const IdxVec set = mis_dist(machine, fixture.dist, {.seed = 3, .rounds = 64});
  EXPECT_TRUE(is_maximal_independent(g, set));
}

TEST(MisDist, IndependentOfRankCount) {
  // Same graph, same seed: the chosen set must not depend on how vertices
  // are distributed — that's the determinism the BSP structure guarantees.
  const Csr a = workloads::convection_diffusion_2d(14, 14);
  const Graph g = graph_from_pattern(a);
  IdxVec reference;
  for (const int nranks : {1, 3, 7}) {
    const Partition p = partition_kway(g, nranks);
    DistGraphFixture fixture(g, p);
    sim::Machine machine(nranks);
    const IdxVec set = mis_dist(machine, fixture.dist, {.seed = 11, .rounds = 6});
    if (reference.empty()) {
      reference = set;
    } else {
      EXPECT_EQ(set, reference) << "nranks=" << nranks;
    }
  }
}

TEST(MisDist, MatchesSerialLubySelectionOnOneRank) {
  // On one rank with the same stateless keys, the distributed algorithm is
  // plain Luby — cross-check against the serial implementation.
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const Graph g = graph_from_pattern(a);
  Partition p;
  p.nparts = 1;
  p.part.assign(g.n, 0);
  DistGraphFixture fixture(g, p);
  sim::Machine machine(1);
  const IdxVec dist_set = mis_dist(machine, fixture.dist, {.seed = 5, .rounds = 5});
  const IdxVec serial_set = luby_mis(g, {.seed = 5, .rounds = 5});
  EXPECT_EQ(dist_set, serial_set);
}

TEST(MisDist, CommunicationOnlyAcrossBoundaries) {
  const Csr a = workloads::convection_diffusion_2d(20, 20);
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, 4);
  DistGraphFixture fixture(g, p);
  sim::Machine machine(4);
  (void)mis_dist(machine, fixture.dist, {.seed = 1, .rounds = 5});
  // Messages exist, but total traffic is far below one word per vertex per
  // round — only boundary status changes travel.
  const auto totals = machine.total_counters();
  EXPECT_GT(totals.messages_sent, 0u);
  EXPECT_LT(totals.bytes_sent, static_cast<std::uint64_t>(g.n) * 5 * sizeof(idx));
}

TEST(MisDist, EmptyGraphGivesEmptySet) {
  IdxVec owner;
  const DistGraph dist = DistGraph::from_adjacency(0, &owner, std::vector<IdxVec>(2),
                                                   std::vector<std::vector<IdxVec>>(2));
  sim::Machine machine(2);
  EXPECT_TRUE(mis_dist(machine, dist).empty());
}

}  // namespace
}  // namespace ptilu

namespace ptilu {
namespace {

TEST(Halo, TotalExchangedMatchesCut) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  const Halo halo = Halo::build(dist);
  // Every exchanged value is an interface node needed by some peer; total
  // is bounded by (interface nodes) x (ranks - 1) and is at least the
  // number of ranks' worth of boundary values.
  EXPECT_GT(halo.total_exchanged(), 0u);
  EXPECT_LE(halo.total_exchanged(),
            static_cast<std::size_t>(dist.interface_count_total()) * 3);
}

TEST(Halo, SingleRankExchangesNothing) {
  const Csr a = workloads::convection_diffusion_2d(8, 8);
  const DistCsr dist = make_dist(a, 1);
  EXPECT_EQ(Halo::build(dist).total_exchanged(), 0u);
}

TEST(MisDist, ScratchReuseIsClean) {
  // Reusing one scratch across many calls must not leak state between them.
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, 4);
  DistGraphFixture fixture(g, p);
  DistMisScratch scratch;
  sim::Machine machine(4);
  const IdxVec first = mis_dist(machine, fixture.dist, {.seed = 3, .rounds = 5}, &scratch);
  const IdxVec second = mis_dist(machine, fixture.dist, {.seed = 3, .rounds = 5}, &scratch);
  EXPECT_EQ(first, second);
  const IdxVec fresh = mis_dist(machine, fixture.dist, {.seed = 3, .rounds = 5});
  EXPECT_EQ(first, fresh);
}

}  // namespace
}  // namespace ptilu
