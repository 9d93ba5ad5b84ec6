// Tests for the multilevel k-way partitioner and its internal phases.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "ptilu/graph/graph.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/torso.hpp"

#include "../src/part/internal.hpp"

namespace ptilu {
namespace {

Graph grid_graph(idx nx, idx ny) {
  return graph_from_pattern(workloads::convection_diffusion_2d(nx, ny));
}

TEST(Matching, IsValidMatching) {
  const Graph g = grid_graph(20, 20);
  Rng rng(1);
  const IdxVec match = part_detail::heavy_edge_matching(g, rng);
  for (idx v = 0; v < g.n; ++v) {
    EXPECT_EQ(match[match[v]], v) << "matching not involutive at " << v;
    if (match[v] != v) {
      // Partner must be a neighbor.
      const auto nbrs = g.neighbors(v);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), match[v]), nbrs.end());
    }
  }
}

TEST(Matching, MatchesMostVerticesOnGrid) {
  const Graph g = grid_graph(30, 30);
  Rng rng(7);
  const IdxVec match = part_detail::heavy_edge_matching(g, rng);
  idx matched = 0;
  for (idx v = 0; v < g.n; ++v) matched += (match[v] != v);
  EXPECT_GT(matched, g.n * 7 / 10);  // grids match almost perfectly
}

TEST(Contract, PreservesTotalVertexWeight) {
  const Graph g = grid_graph(25, 25);
  Rng rng(3);
  const IdxVec match = part_detail::heavy_edge_matching(g, rng);
  const auto coarse = part_detail::contract(g, match);
  EXPECT_EQ(coarse.graph.total_vwgt(), g.total_vwgt());
  EXPECT_NO_THROW(coarse.graph.validate());
  EXPECT_LT(coarse.graph.n, g.n);
}

TEST(Contract, EdgeWeightsConserveCut) {
  // Total edge weight (counting multiplicity) is conserved minus collapsed
  // internal edges.
  const Graph g = grid_graph(12, 12);
  Rng rng(5);
  const IdxVec match = part_detail::heavy_edge_matching(g, rng);
  const auto coarse = part_detail::contract(g, match);
  long long fine_total = 0, internal = 0;
  for (idx v = 0; v < g.n; ++v) {
    for (nnz_t k = g.xadj[v]; k < g.xadj[v + 1]; ++k) {
      fine_total += g.ewgt[k];
      if (match[v] == g.adjncy[k]) internal += g.ewgt[k];
    }
  }
  long long coarse_total = 0;
  for (const idx w : coarse.graph.ewgt) coarse_total += w;
  EXPECT_EQ(coarse_total, fine_total - internal);
}

TEST(GrowBisection, HitsTargetRoughly) {
  const Graph g = grid_graph(40, 40);
  Rng rng(11);
  const auto side = part_detail::grow_bisection(g, 0.5, rng);
  long long w0 = 0;
  for (idx v = 0; v < g.n; ++v) w0 += side[v] == 0 ? g.vwgt[v] : 0;
  EXPECT_GT(w0, g.total_vwgt() * 2 / 5);
  EXPECT_LT(w0, g.total_vwgt() * 3 / 5);
}

TEST(FmRefine, NeverWorsensCut) {
  const Graph g = grid_graph(30, 30);
  Rng rng(13);
  auto side = part_detail::grow_bisection(g, 0.5, rng);
  const long long before = part_detail::bisection_cut(g, side);
  part_detail::fm_refine(g, side, g.total_vwgt() / 2, 1.05, 6);
  const long long after = part_detail::bisection_cut(g, side);
  EXPECT_LE(after, before);
}

TEST(MultilevelBisect, GridCutNearOptimal) {
  // A 32x32 grid's optimal bisection cut is 32; multilevel should land well
  // under 2x of that.
  const Graph g = grid_graph(32, 32);
  PartitionOptions opts;
  Rng rng(opts.seed);
  const auto side = part_detail::multilevel_bisect(g, 0.5, opts, rng);
  EXPECT_LE(part_detail::bisection_cut(g, side), 64);
}

TEST(PartitionKway, CoversAllParts) {
  const Graph g = grid_graph(40, 40);
  const Partition p = partition_kway(g, 8);
  p.validate(g.n);
  std::vector<idx> counts(8, 0);
  for (const idx part : p.part) ++counts[part];
  for (idx c = 0; c < 8; ++c) EXPECT_GT(counts[c], 0) << "part " << c << " empty";
}

TEST(PartitionKway, BalanceWithinTolerance) {
  const Graph g = grid_graph(48, 48);
  const Partition p = partition_kway(g, 16);
  EXPECT_LT(imbalance(g, p), 1.10);
}

TEST(PartitionKway, BeatsRandomCutByALot) {
  const Graph g = grid_graph(48, 48);
  const Partition smart = partition_kway(g, 8);
  const Partition random = partition_random(g, 8, 3);
  EXPECT_LT(edge_cut(g, smart) * 5, edge_cut(g, random));
}

TEST(PartitionKway, InterfaceFractionSmallOnGrid) {
  const Graph g = grid_graph(64, 64);
  const Partition p = partition_kway(g, 8);
  // Good geometric partitions of a 64x64 grid keep interface vertices well
  // under 20% of all vertices.
  EXPECT_LT(count_interface(g, p), g.n / 5);
}

TEST(PartitionKway, WorksForNonPowerOfTwoParts) {
  const Graph g = grid_graph(30, 30);
  for (const idx k : {3, 5, 7, 12}) {
    const Partition p = partition_kway(g, k);
    p.validate(g.n);
    std::vector<idx> counts(k, 0);
    for (const idx part : p.part) ++counts[part];
    for (idx c = 0; c < k; ++c) EXPECT_GT(counts[c], 0);
    EXPECT_LT(imbalance(g, p), 1.35) << "k=" << k;
  }
}

TEST(PartitionKway, SinglePartIsTrivial) {
  const Graph g = grid_graph(10, 10);
  const Partition p = partition_kway(g, 1);
  EXPECT_EQ(edge_cut(g, p), 0);
  EXPECT_EQ(count_interface(g, p), 0);
}

TEST(PartitionKway, DeterministicForFixedSeed) {
  const Graph g = grid_graph(20, 20);
  const Partition a = partition_kway(g, 4, {.seed = 9});
  const Partition b = partition_kway(g, 4, {.seed = 9});
  EXPECT_EQ(a.part, b.part);
}

TEST(PartitionKway, PartsArePinned) {
  // FNV-1a of the part vector for 16 parts: any change to the matching
  // order, the coarse graphs or the refinement moves them.
  workloads::TorsoOptions torso;
  torso.nx = 12;
  torso.ny = 12;
  torso.nz = 16;
  const Graph graphs[] = {
      graph_from_pattern(workloads::convection_diffusion_2d(32, 32, 10.0, 20.0)),
      graph_from_pattern(workloads::fem_torso_3d(torso).a)};
  const std::uint64_t pinned[2][3] = {
      {0x9e1be2ba6bc1b763ULL, 0x712d0d800c2e465aULL, 0x845a7414faaf0483ULL},
      {0x21556ba6f04533d4ULL, 0xa7dd9ffd00f270faULL, 0x2478a78c9af7b4abULL}};
  for (int m = 0; m < 2; ++m) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Partition p = partition_kway(graphs[m], 16, {.seed = seed});
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const idx v : p.part) {
        const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
        for (std::size_t b = 0; b < sizeof v; ++b) {
          h ^= bytes[b];
          h *= 0x100000001b3ULL;
        }
      }
      EXPECT_EQ(h, pinned[m][seed - 1]) << (m == 0 ? "g0" : "torso") << " seed " << seed;
    }
  }
}

TEST(PartitionKway, HandlesDisconnectedGraph) {
  // Two disjoint 10x10 grids.
  std::vector<std::pair<idx, idx>> edges;
  auto add_grid = [&](idx base) {
    for (idx y = 0; y < 10; ++y) {
      for (idx x = 0; x < 10; ++x) {
        const idx v = base + y * 10 + x;
        if (x + 1 < 10) edges.emplace_back(v, v + 1);
        if (y + 1 < 10) edges.emplace_back(v, v + 10);
      }
    }
  };
  add_grid(0);
  add_grid(100);
  const Graph g = graph_from_edges(200, edges);
  const Partition p = partition_kway(g, 4);
  p.validate(g.n);
  EXPECT_LT(imbalance(g, p), 1.3);
}

TEST(PartitionBaselines, BlockAndRandomAreValid) {
  const Graph g = grid_graph(20, 20);
  const Partition blk = partition_block(g, 7);
  blk.validate(g.n);
  EXPECT_LT(imbalance(g, blk), 1.05);
  const Partition rnd = partition_random(g, 7, 1);
  rnd.validate(g.n);
  EXPECT_LT(imbalance(g, rnd), 1.05);
}

TEST(PartitionQuality, EdgeCutCountsEachEdgeOnce) {
  // Two vertices, one edge, different parts -> cut 1.
  const Graph g = graph_from_edges(2, {{0, 1}});
  Partition p;
  p.nparts = 2;
  p.part = {0, 1};
  EXPECT_EQ(edge_cut(g, p), 1);
  EXPECT_EQ(count_interface(g, p), 2);
}

}  // namespace
}  // namespace ptilu
