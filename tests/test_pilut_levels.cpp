// Tests of PILUT's interface level loop: golden pins of its modeled output,
// the checked-mode cross-check of the persistent reduced graph, and
// degenerate level structures.
//
// The golden values were captured from the per-level graph rebuild that the
// persistent reduced graph replaced. Any change to the order in which a
// vertex sees its neighbors, to a charge, or to a message shows up here as
// a different checksum, modeled time, superstep, message or byte count.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilu0.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sparse/csr.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/torso.hpp"

namespace ptilu {
namespace {

/// FNV-1a over the structure and value bits of a CSR matrix.
std::uint64_t fnv(const Csr& a, std::uint64_t h) {
  const auto mix = [&](const void* data, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  mix(a.row_ptr.data(), a.row_ptr.size() * sizeof(a.row_ptr[0]));
  mix(a.col_idx.data(), a.col_idx.size() * sizeof(a.col_idx[0]));
  mix(a.values.data(), a.values.size() * sizeof(a.values[0]));
  return h;
}

std::uint64_t factors_checksum(const IluFactors& f) {
  return fnv(f.u, fnv(f.l, 0xcbf29ce484222325ULL));
}

Csr small_matrix(const std::string& name) {
  if (name == "g0") return workloads::convection_diffusion_2d(32, 32, 10.0, 20.0);
  workloads::TorsoOptions opts;
  opts.nx = 12;
  opts.ny = 12;
  opts.nz = 16;
  return workloads::fem_torso_3d(opts).a;
}

DistCsr distribute(const Csr& a, int nranks) {
  return DistCsr::create(a, partition_kway(graph_from_pattern(a), nranks, {.seed = 1}));
}

struct Golden {
  const char* matrix;
  int nranks;
  int cap_k;
  int mis_rounds;
  std::uint64_t checksum;
  double modeled;
  std::uint64_t supersteps;
  int levels;
  std::uint64_t messages;
  std::uint64_t bytes;
};

void expect_golden(const Golden& g, const PilutResult& result, const sim::Machine& machine) {
  const sim::RankCounters totals = machine.total_counters();
  EXPECT_EQ(factors_checksum(result.factors), g.checksum);
  EXPECT_EQ(machine.modeled_time(), g.modeled);
  EXPECT_EQ(machine.supersteps(), g.supersteps);
  EXPECT_EQ(result.stats.levels, g.levels);
  EXPECT_EQ(totals.messages_sent, g.messages);
  EXPECT_EQ(totals.bytes_sent, g.bytes);
}

// ILUT(8, 1e-3) with MIS seed 3 and pivot guard 1e-12; partition seed 1.
constexpr Golden kPilutGolden[] = {
    {"torso", 4, 0, 1, 0x442bbe25c8f62ba5ULL, 0x1.2be3d20309d48p-3, 1659, 166, 8674, 6503328},
    {"torso", 4, 0, 5, 0xb721b769d6f49741ULL, 0x1.7553f33b2e5bep-4, 1157, 91, 7252, 3174704},
    {"torso", 4, 2, 1, 0x844059d3fc9fe919ULL, 0x1.ae210b98837e5p-6, 669, 67, 3884, 843616},
    {"torso", 4, 2, 5, 0x608a60c6f48fc2b2ULL, 0x1.4629f10e4c53ap-6, 502, 40, 3403, 488836},
    {"torso", 16, 0, 1, 0xf175222ba32fb544ULL, 0x1.ea47be9be1972p-4, 1989, 199, 73348, 17703896},
    {"torso", 16, 0, 5, 0x321e5ed0077f5312ULL, 0x1.5d6de59ce375dp-4, 1399, 107, 67504, 8881056},
    {"torso", 16, 2, 1, 0xc18eb3788ae84f61ULL, 0x1.5e7e5dd081115p-6, 759, 76, 27305, 1799524},
    {"torso", 16, 2, 5, 0xae6f3a6aadb2af8eULL, 0x1.114a869d23d3ap-6, 549, 42, 23466, 1051528},
    {"g0", 4, 0, 1, 0x21e1867ea7a3ebe1ULL, 0x1.78aab40eb3f52p-8, 399, 40, 1541, 99516},
    {"g0", 4, 0, 5, 0xe840c6298a8b8fc4ULL, 0x1.46d99ddf87333p-8, 329, 28, 1482, 71216},
    {"g0", 4, 2, 1, 0xc4c9319f51b1967bULL, 0x1.718f638597726p-8, 389, 39, 1540, 95940},
    {"g0", 4, 2, 5, 0xbb407737f43961f5ULL, 0x1.34813cdb9c7efp-8, 304, 26, 1407, 66776},
    {"g0", 16, 0, 1, 0x35369c4a000c9102ULL, 0x1.b477b8c09db8cp-7, 659, 66, 14695, 573768},
    {"g0", 16, 0, 5, 0xe55c24cc8fcc1a69ULL, 0x1.612097aa4a264p-7, 506, 41, 12380, 379660},
    {"g0", 16, 2, 1, 0xd547879dea3b01adULL, 0x1.918e1dbfa27c7p-7, 649, 65, 13887, 494428},
    {"g0", 16, 2, 5, 0x95a7dde12e199fa8ULL, 0x1.4e22eca1d0e1bp-7, 484, 39, 12544, 338108},
};

// Without this gtest prints the parameter as raw bytes, the matrix name
// pointer among them, which differ from run to run and so leak into the test
// names CTest discovers.
void PrintTo(const Golden& g, std::ostream* os) {
  *os << g.matrix << " p=" << g.nranks << " cap_k=" << g.cap_k
      << " rounds=" << g.mis_rounds;
}

class PilutGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(PilutGolden, ModeledOutputIsPinned) {
  const Golden& g = GetParam();
  const DistCsr dist = distribute(small_matrix(g.matrix), g.nranks);
  sim::Machine machine(g.nranks);
  const PilutResult result = pilut_factor(
      machine, dist,
      {.m = 8, .tau = 1e-3, .cap_k = g.cap_k, .mis_rounds = g.mis_rounds, .seed = 3,
       .pivot_rel = 1e-12});
  expect_golden(g, result, machine);
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  const Golden& g = info.param;
  return std::string(g.matrix) + "_p" + std::to_string(g.nranks) + "_k" +
         std::to_string(g.cap_k) + "_r" + std::to_string(g.mis_rounds);
}

INSTANTIATE_TEST_SUITE_P(Cases, PilutGolden, ::testing::ValuesIn(kPilutGolden), golden_name);

TEST(PilutGolden, Pilu0ModeledOutputIsPinned) {
  // pilu0 colors its interface through mis_dist on a plain adjacency.
  const Golden g{"g0", 8, 0, 0, 0xb6bb32f4726de4ccULL, 0x1.b009270314abcp-12, 34, 4, 383, 10060};
  const DistCsr dist = distribute(small_matrix(g.matrix), g.nranks);
  sim::Machine machine(g.nranks);
  const PilutResult result = pilu0_factor(machine, dist);
  expect_golden(g, result, machine);
}

// --- Checked-mode cross-check --------------------------------------------

sim::Machine::Options checked() {
  sim::Machine::Options opts;
  opts.check = true;
  return opts;
}

TEST(PilutLevels, CheckedModeCrossCheckPassesAndChangesNothing) {
  // Under conformance checking every level's graph is re-derived from the
  // tails and compared with the persistent one; the output must not move.
  for (const Golden& g : {kPilutGolden[4], kPilutGolden[7], kPilutGolden[13]}) {
    const DistCsr dist = distribute(small_matrix(g.matrix), g.nranks);
    sim::Machine machine(g.nranks, checked());
    const PilutResult result = pilut_factor(
        machine, dist,
        {.m = 8, .tau = 1e-3, .cap_k = g.cap_k, .mis_rounds = g.mis_rounds, .seed = 3,
         .pivot_rel = 1e-12});
    expect_golden(g, result, machine);
  }
}

// --- Degenerate level structures -----------------------------------------

/// Factor under checking and assert a complete, valid result.
PilutResult factor_checked(const DistCsr& dist, const PilutOptions& opts) {
  sim::Machine machine(dist.nranks, checked());
  PilutResult result = pilut_factor(machine, dist, opts);
  result.factors.validate();
  result.schedule.validate();
  EXPECT_EQ(result.schedule.level_start.back(), dist.n());
  return result;
}

/// A partition whose every row is an interface row: rows dealt round-robin
/// over the ranks, so each row's grid neighbors live on other ranks.
DistCsr round_robin(const Csr& a, int nranks) {
  Partition p;
  p.nparts = nranks;
  p.part.resize(a.n_rows);
  for (idx i = 0; i < a.n_rows; ++i) p.part[i] = i % nranks;
  return DistCsr::create(a, p);
}

TEST(PilutLevels, SingleRankHasNoLevels) {
  const Csr a = workloads::convection_diffusion_2d(10, 10, 5.0, 5.0);
  const PilutResult result = factor_checked(distribute(a, 1), {.m = 6, .tau = 1e-3});
  EXPECT_EQ(result.stats.levels, 0);
  EXPECT_EQ(result.stats.interface_nodes, 0);
}

/// Two uncoupled copies of `a` side by side (block diagonal), optionally
/// without the stored diagonal of every third row of the second copy.
Csr two_blocks(const Csr& a, bool drop_diagonals = false) {
  const idx n = a.n_rows;
  CooBuilder coo(2 * n, 2 * n);
  for (idx i = 0; i < n; ++i) {
    for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const idx j = a.col_idx[k];
      coo.add(i, j, a.values[k]);
      if (!(drop_diagonals && i == j && i % 3 == 0)) coo.add(n + i, n + j, a.values[k]);
    }
  }
  return coo.to_csr();
}

TEST(PilutLevels, RanksWithoutInterfaceRows) {
  // Ranks 0 and 1 split the first block; rank 2 owns the whole second
  // block (interior rows only) and rank 3 owns nothing. Both sit through
  // every level's supersteps with nothing to contribute.
  const Csr block = workloads::convection_diffusion_2d(8, 8, 5.0, 5.0);
  const Csr a = two_blocks(block);
  Partition p;
  p.nparts = 4;
  p.part.resize(a.n_rows);
  for (idx i = 0; i < a.n_rows; ++i) {
    p.part[i] = i < block.n_rows ? (i < block.n_rows / 2 ? 0 : 1) : 2;
  }
  const DistCsr dist = DistCsr::create(a, p);
  ASSERT_TRUE(dist.owned_rows[3].empty());
  for (const idx v : dist.owned_rows[2]) ASSERT_FALSE(dist.interface[v]);
  const PilutResult result = factor_checked(dist, {.m = 6, .tau = 1e-3});
  EXPECT_GT(result.stats.levels, 0);
}

TEST(PilutLevels, AllRowsAreInterfaceRows) {
  const Csr a = workloads::convection_diffusion_2d(10, 10, 5.0, 5.0);
  const DistCsr dist = round_robin(a, 4);
  ASSERT_EQ(dist.interface_count_total(), a.n_rows);
  for (const idx cap_k : {idx{0}, idx{1}, idx{2}}) {
    const PilutResult result =
        factor_checked(dist, {.m = 4, .tau = 1e-3, .cap_k = cap_k, .mis_rounds = 1});
    EXPECT_EQ(result.schedule.n_interior, 0);
    EXPECT_GT(result.stats.levels, 1);
  }
}

TEST(PilutLevels, ZeroFillKeepsNoOffDiagonals) {
  // m = 0 keeps no L or U off-diagonals, but every level still eliminates.
  const Csr a = workloads::convection_diffusion_2d(12, 12, 5.0, 5.0);
  const PilutResult result = factor_checked(distribute(a, 4), {.m = 0, .tau = 1e-3});
  EXPECT_GT(result.stats.levels, 0);
  for (idx i = 0; i < a.n_rows; ++i) {
    EXPECT_EQ(result.factors.l.row_ptr[i + 1] - result.factors.l.row_ptr[i], 0);
  }
}

TEST(PilutLevels, CapOneEmptiesReducedTails) {
  // ILUT*(1, t, 1) caps every reduced row at one off-diagonal, so a row
  // whose one kept column is eliminated keeps no edge at all. In the
  // second block every third row also has no stored diagonal, so its tail
  // can empty completely (the pivot guard then supplies the diagonal).
  const Csr a = two_blocks(workloads::convection_diffusion_2d(8, 8, 5.0, 5.0), true);
  for (const int nranks : {2, 4, 8}) {
    const PilutResult result = factor_checked(
        round_robin(a, nranks), {.m = 1, .tau = 1e-3, .cap_k = 1, .pivot_rel = 1e-12});
    EXPECT_GT(result.stats.levels, 0);
    EXPECT_GT(result.stats.pivots_guarded, 0u);
  }
}

}  // namespace
}  // namespace ptilu
