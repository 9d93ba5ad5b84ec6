// Tests of the distributed solve path: the halo SpMV and the level-scheduled
// triangular solves of §5.
//
// The bit-exact suites hold the distributed results to the serial kernels
// with ==, not a tolerance: every row accumulates in the serial order, so
// any change to which value a row reads, or when, shows up as a differing
// bit. The golden pins hold the modeled cost of one application of each
// operation (modeled time, supersteps, messages, bytes); they were captured
// before the solves moved to precomputed communication plans, which must
// post the same messages in the same order.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilu0.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/pilut_nested.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/torso.hpp"

namespace ptilu {
namespace {

Csr small_matrix(const std::string& name) {
  if (name == "g0") return workloads::convection_diffusion_2d(32, 32, 10.0, 20.0);
  workloads::TorsoOptions opts;
  opts.nx = 12;
  opts.ny = 12;
  opts.nz = 16;
  return workloads::fem_torso_3d(opts).a;
}

DistCsr distribute(const Csr& a, int nranks, std::uint64_t seed = 1) {
  const Partition part = partition_kway(graph_from_pattern(a), nranks, {.seed = seed});
  return DistCsr::create(a, part);
}

enum class Variant { kPilut, kNested, kPilu0 };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPilut: return "pilut";
    case Variant::kNested: return "nested";
    case Variant::kPilu0: return "pilu0";
  }
  return "?";
}

PilutResult factor(sim::Machine& machine, const DistCsr& dist, Variant v) {
  const PilutOptions opts{.m = 8, .tau = 1e-3, .seed = 3, .pivot_rel = 1e-12};
  switch (v) {
    case Variant::kPilut: return pilut_factor(machine, dist, opts);
    case Variant::kNested: return pilut_factor_nested(machine, dist, opts);
    case Variant::kPilu0: return pilu0_factor(machine, dist);
  }
  return {};
}

/// a == b element by element, naming the first differing index.
::testing::AssertionResult bits_equal(std::span<const real> a, std::span<const real> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

DenseRhsBlock random_block(idx n, int k) {
  DenseRhsBlock block(n, k);
  for (int c = 0; c < k; ++c) {
    block.set_col(c, workloads::random_vector(n, 100 + static_cast<std::uint64_t>(c)));
  }
  return block;
}

// ---- Bit-exact against the serial kernels ---------------------------------

TEST(DistSolveExact, SpmvEqualsSerialSpmv) {
  for (const char* name : {"g0", "torso"}) {
    const Csr a = small_matrix(name);
    const RealVec x = workloads::random_vector(a.n_rows, 7);
    RealVec y_ser(a.n_rows);
    spmv(a, x, y_ser);
    for (const int p : {1, 2, 4, 8, 16}) {
      const DistCsr dist = distribute(a, p);
      const Halo halo = Halo::build(dist);
      sim::Machine machine(p);
      RealVec y(a.n_rows, -1.0);
      dist_spmv(machine, dist, halo, x, y);
      EXPECT_TRUE(bits_equal(y, y_ser)) << name << " p=" << p;
    }
  }
}

TEST(DistSolveExact, TrisolvesEqualSerialSolves) {
  for (const char* name : {"g0", "torso"}) {
    const Csr a = small_matrix(name);
    const RealVec b = workloads::random_vector(a.n_rows, 5);
    for (const Variant v : {Variant::kPilut, Variant::kNested, Variant::kPilu0}) {
      for (const int p : {1, 4, 16}) {
        const DistCsr dist = distribute(a, p);
        sim::Machine machine(p);
        const PilutResult f = factor(machine, dist, v);
        const DistTriangularSolver solver(f.factors, f.schedule);
        const std::string where =
            std::string(name) + " " + variant_name(v) + " p=" + std::to_string(p);

        RealVec y_ser(a.n_rows), x_ser(a.n_rows), z_ser(a.n_rows);
        forward_solve(f.factors.l, b, y_ser);
        backward_solve(f.factors.u, y_ser, x_ser);
        ilu_apply(f.factors, b, z_ser);

        RealVec y(a.n_rows), x(a.n_rows), z(a.n_rows);
        machine.reset();
        solver.forward(machine, b, y);
        EXPECT_TRUE(bits_equal(y, y_ser)) << where << " forward";
        solver.backward(machine, y_ser, x);
        EXPECT_TRUE(bits_equal(x, x_ser)) << where << " backward";
        solver.apply(machine, b, z);
        EXPECT_TRUE(bits_equal(z, z_ser)) << where << " apply";
      }
    }
  }
}

TEST(DistSolveExact, BatchedColumnsEqualScalarApply) {
  const Csr a = small_matrix("g0");
  for (const Variant v : {Variant::kPilut, Variant::kNested, Variant::kPilu0}) {
    const DistCsr dist = distribute(a, 4);
    sim::Machine machine(4);
    const PilutResult f = factor(machine, dist, v);
    const DistTriangularSolver solver(f.factors, f.schedule);
    for (const int k : {1, 3, 8, 9}) {
      const DenseRhsBlock b = random_block(a.n_rows, k);
      DenseRhsBlock x(a.n_rows, k);
      machine.reset();
      solver.apply(machine, b, x);
      for (int c = 0; c < k; ++c) {
        const RealVec bc(b.col(c).begin(), b.col(c).end());
        RealVec xc(a.n_rows);
        solver.apply(machine, bc, xc);
        EXPECT_TRUE(bits_equal(x.col(c), xc))
            << variant_name(v) << " k=" << k << " column " << c;
      }
    }
  }
}

// ---- Golden pins of the modeled cost --------------------------------------

struct Pin {
  double modeled;
  std::uint64_t supersteps;
  std::uint64_t messages;
  std::uint64_t bytes;
};

struct SolveGolden {
  const char* matrix;
  Variant variant;
  int nranks;
  Pin apply;    ///< one scalar DistTriangularSolver::apply
  Pin batched;  ///< one batched apply of k = 3 columns
  Pin spmv;     ///< one dist_spmv
};

// Without this gtest prints the parameter as raw bytes, the matrix name
// pointer among them, which differ from run to run and so leak into the
// test names CTest discovers.
void PrintTo(const SolveGolden& g, std::ostream* os) {
  *os << g.matrix << " " << variant_name(g.variant) << " p=" << g.nranks;
}

Pin measure(const sim::Machine& machine) {
  const sim::RankCounters totals = machine.total_counters();
  return {machine.modeled_time(), machine.supersteps(), totals.messages_sent,
          totals.bytes_sent};
}

void expect_pin(const Pin& want, const Pin& got, const char* what) {
  EXPECT_EQ(got.modeled, want.modeled) << what;
  EXPECT_EQ(got.supersteps, want.supersteps) << what;
  EXPECT_EQ(got.messages, want.messages) << what;
  EXPECT_EQ(got.bytes, want.bytes) << what;
}

// ILUT(8, 1e-3) with MIS seed 3 and pivot guard 1e-12 (pilu0 takes no
// options); partition seed 1; right-hand sides from random_vector seeds 11
// and 100-102.
constexpr SolveGolden kSolveGolden[] = {
    {"g0", Variant::kPilut, 4,
     {0x1.016bc00b810eep-10, 59, 398, 3228},
     {0x1.b97f53776a52cp-10, 59, 398, 7532},
     {0x1.005aabb8a4229p-13, 2, 10, 1256}},
    {"g0", Variant::kPilut, 16,
     {0x1.c51e9c67182a8p-10, 85, 1688, 11064},
     {0x1.0780d9ad7b922p-9, 85, 1688, 25816},
     {0x1.f31f46ed245b2p-15, 2, 70, 3584}},
    {"g0", Variant::kNested, 4,
     {0x1.01e1d5be2523bp-11, 11, 70, 5208},
     {0x1.4af2ed72df9b8p-10, 11, 70, 12152},
     {0x1.005aabb8a4229p-13, 2, 10, 1256}},
    {"g0", Variant::kNested, 16,
     {0x1.705c5b0b18abfp-11, 5, 60, 9372},
     {0x1.e92379ea9833p-10, 5, 60, 21868},
     {0x1.f31f46ed245b2p-15, 2, 70, 3584}},
    {"g0", Variant::kPilu0, 4,
     {0x1.ddfb9e467c912p-13, 11, 90, 1896},
     {0x1.ee65470354052p-12, 11, 90, 4424},
     {0x1.005aabb8a4229p-13, 2, 10, 1256}},
    {"g0", Variant::kPilu0, 16,
     {0x1.f31bd75129209p-13, 11, 458, 5496},
     {0x1.4ce67585e22e5p-12, 11, 458, 12824},
     {0x1.f31f46ed245b2p-15, 2, 70, 3584}},
    {"torso", Variant::kPilut, 4,
     {0x1.572fa9cb46e39p-9, 185, 1410, 12996},
     {0x1.f907f00cb88e7p-9, 185, 1410, 30324},
     {0x1.5c6d211234bb1p-11, 2, 12, 7160}},
    {"torso", Variant::kPilut, 16,
     {0x1.208a489faa472p-8, 217, 4492, 30348},
     {0x1.45a59fb8f7bb6p-8, 217, 4492, 70812},
     {0x1.e9a7329049598p-13, 2, 116, 17552}},
    {"torso", Variant::kNested, 4,
     {0x1.50896b8a4ddd9p-10, 7, 32, 10716},
     {0x1.e6252fdcb3ed1p-9, 7, 32, 25004},
     {0x1.5c6d211234bb1p-11, 2, 12, 7160}},
    {"torso", Variant::kNested, 16,
     {0x1.d595eef634a89p-10, 5, 60, 8616},
     {0x1.508f56ce01a61p-8, 5, 60, 20104},
     {0x1.e9a7329049598p-13, 2, 116, 17552}},
    {"torso", Variant::kPilu0, 4,
     {0x1.3cf47ecccc926p-10, 33, 570, 16272},
     {0x1.60f0d678646e9p-9, 33, 570, 37968},
     {0x1.5c6d211234bb1p-11, 2, 12, 7160}},
    {"torso", Variant::kPilu0, 16,
     {0x1.72b07f41dd213p-10, 37, 3734, 38148},
     {0x1.ff8986a8b0761p-10, 37, 3734, 89012},
     {0x1.e9a7329049598p-13, 2, 116, 17552}},
};

class DistSolveGolden : public ::testing::TestWithParam<SolveGolden> {};

TEST_P(DistSolveGolden, ModeledCostIsPinned) {
  const SolveGolden& g = GetParam();
  const Csr a = small_matrix(g.matrix);
  const DistCsr dist = distribute(a, g.nranks);
  sim::Machine machine(g.nranks);
  const PilutResult f = factor(machine, dist, g.variant);
  const DistTriangularSolver solver(f.factors, f.schedule);

  const RealVec b = workloads::random_vector(a.n_rows, 11);
  RealVec x(a.n_rows);
  machine.reset();
  solver.apply(machine, b, x);
  expect_pin(g.apply, measure(machine), "apply");

  const DenseRhsBlock bb = random_block(a.n_rows, 3);
  DenseRhsBlock xb(a.n_rows, 3);
  machine.reset();
  solver.apply(machine, bb, xb);
  expect_pin(g.batched, measure(machine), "batched apply");

  const Halo halo = Halo::build(dist);
  machine.reset();
  dist_spmv(machine, dist, halo, b, x);
  expect_pin(g.spmv, measure(machine), "spmv");
}

std::string solve_golden_name(const ::testing::TestParamInfo<SolveGolden>& param) {
  const SolveGolden& g = param.param;
  return std::string(g.matrix) + "_" + variant_name(g.variant) + "_p" +
         std::to_string(g.nranks);
}

INSTANTIATE_TEST_SUITE_P(Cases, DistSolveGolden, ::testing::ValuesIn(kSolveGolden),
                         solve_golden_name);

// ---- Typed errors -----------------------------------------------------------

/// The ptilu::Error message `run` throws, or "" if it throws none.
std::string error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

bool mentions(const std::string& message, const std::string& part) {
  return message.find(part) != std::string::npos;
}

TEST(DistSolveErrors, HaloForAnotherRankCountIsRejected) {
  const Csr a = small_matrix("g0");
  const DistCsr dist = distribute(a, 4);
  const Halo halo = Halo::build(distribute(a, 2));
  sim::Machine machine(4);
  const RealVec x(a.n_rows, 1.0);
  RealVec y(a.n_rows);
  const std::string what = error_of([&] { dist_spmv(machine, dist, halo, x, y); });
  EXPECT_TRUE(mentions(what, "rank 2")) << what;
  EXPECT_TRUE(mentions(what, "spmv/halo_send")) << what;
}

TEST(DistSolveErrors, HaloFromAnotherPartitionIsRejected) {
  const Csr a = small_matrix("g0");
  const DistCsr dist = distribute(a, 4, 1);
  const DistCsr other = distribute(a, 4, 2);
  ASSERT_NE(dist.owner, other.owner);
  const Halo halo = Halo::build(other);
  sim::Machine machine(4);
  const RealVec x(a.n_rows, 1.0);
  RealVec y(a.n_rows);
  const std::string what = error_of([&] { dist_spmv(machine, dist, halo, x, y); });
  EXPECT_TRUE(mentions(what, "rank ")) << what;
  EXPECT_TRUE(mentions(what, "another partition")) << what;
  EXPECT_TRUE(mentions(what, "spmv/halo_send")) << what;
}

TEST(DistSolveErrors, DrainedIndexWithoutGhostSlotIsRejected) {
  const Csr a = small_matrix("g0");
  const DistCsr dist = distribute(a, 4);
  sim::Machine machine(4);
  const PilutResult f = factor(machine, dist, Variant::kPilut);
  const DistTriangularSolver solver(f.factors, f.schedule);
  // Rank 1 never holds a ghost of a row it owns itself.
  idx own = 0;
  while (f.schedule.owner_new[own] != 1) ++own;
  // A stray (index, value) pair on the solver's message tags reaches rank 1
  // in the backward sweep's first superstep.
  machine.reset();
  machine.step([&](sim::RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_indices(1, /*tag=*/20, IdxVec{own});
      ctx.send_reals(1, /*tag=*/21, RealVec{0.0});
    }
  });
  const RealVec y(a.n_rows, 1.0);
  RealVec x(a.n_rows);
  const std::string what = error_of([&] { solver.backward(machine, y, x); });
  EXPECT_TRUE(mentions(what, "rank 1")) << what;
  EXPECT_TRUE(mentions(what, "trisolve/bwd/level")) << what;
  EXPECT_TRUE(mentions(what, "no ghost slot")) << what;
}

}  // namespace
}  // namespace ptilu
