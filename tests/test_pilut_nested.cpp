// Tests for the nested (partition-based) parallel ILUT variant (§7).
#include <gtest/gtest.h>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/pilut_nested.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

DistCsr make_dist(const Csr& a, int nranks) {
  const Graph g = graph_from_pattern(a);
  return DistCsr::create(a, partition_kway(g, nranks));
}

TEST(PilutNested, SingleRankMatchesSerialIlut) {
  const Csr a = workloads::convection_diffusion_2d(14, 14, 5.0, 2.0);
  const DistCsr dist = make_dist(a, 1);
  sim::Machine machine(1);
  const PilutResult result = pilut_factor_nested(machine, dist, {.m = 6, .tau = 1e-3});
  const IluFactors serial = ilut(a, {.m = 6, .tau = 1e-3});
  EXPECT_TRUE(equal(result.factors.l, serial.l));
  EXPECT_TRUE(equal(result.factors.u, serial.u));
}

TEST(PilutNested, FactorsAndScheduleValid) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 6.0, 3.0);
  for (const int nranks : {2, 4, 8}) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine machine(nranks);
    const PilutResult result =
        pilut_factor_nested(machine, dist, {.m = 8, .tau = 1e-4, .pivot_rel = 1e-12});
    result.factors.validate();
    result.schedule.validate();
    EXPECT_GE(result.stats.levels, 1);
    // Far fewer stages than the MIS formulation would use levels.
    EXPECT_LE(result.stats.levels, 12) << "nranks=" << nranks;
  }
}

TEST(PilutNested, RowCapsStillHold) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 4.0, 4.0);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const idx m = 5;
  const PilutResult result =
      pilut_factor_nested(machine, dist, {.m = m, .tau = 1e-6, .pivot_rel = 1e-12});
  for (idx i = 0; i < a.n_rows; ++i) {
    EXPECT_LE(result.factors.l.row_nnz(i), m);
    EXPECT_LE(result.factors.u.row_nnz(i), m + 1);
  }
}

TEST(PilutNested, TrisolveMatchesSerialThroughMigration) {
  // The row migration means interface rows can reference interior columns
  // owned by other ranks — the generalized DistTriangularSolver must still
  // reproduce the serial solves exactly.
  const Csr a = workloads::convection_diffusion_2d(22, 22, 5.0, 2.0);
  for (const int nranks : {2, 4, 8}) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine machine(nranks);
    const PilutResult result =
        pilut_factor_nested(machine, dist, {.m = 8, .tau = 1e-4, .pivot_rel = 1e-12});
    const DistTriangularSolver solver(result.factors, result.schedule);
    const RealVec b = workloads::random_vector(a.n_rows, 13);
    RealVec x_par(a.n_rows), x_ser(a.n_rows);
    machine.reset();
    solver.apply(machine, b, x_par);
    ilu_apply(result.factors, b, x_ser);
    EXPECT_LT(max_abs_diff(x_par, x_ser), 1e-11) << "nranks=" << nranks;
  }
}

TEST(PilutNested, PreconditionsGmresComparably) {
  const Csr a = workloads::convection_diffusion_2d(32, 32, 8.0, 4.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  const DistCsr dist = make_dist(a, 8);
  sim::Machine machine(8);
  const PilutResult nested =
      pilut_factor_nested(machine, dist, {.m = 10, .tau = 1e-4, .pivot_rel = 1e-12});
  const PilutResult flat =
      pilut_factor(machine, dist, {.m = 10, .tau = 1e-4, .pivot_rel = 1e-12});

  const auto nmv = [&](const PilutResult& f) {
    RealVec x(a.n_rows, 0.0);
    const GmresResult r = gmres(a, IluPreconditioner(f.factors, f.schedule.newnum), b, x,
                                {.restart = 20, .max_matvecs = 5000});
    EXPECT_TRUE(r.converged);
    return r.matvecs;
  };
  const int nested_nmv = nmv(nested);
  const int flat_nmv = nmv(flat);
  // Different orderings, same dropping parameters: quality is comparable.
  EXPECT_LT(nested_nmv, flat_nmv * 2 + 10);
  EXPECT_LT(flat_nmv, nested_nmv * 2 + 10);
}

/// L entries of the interface rows (new numbers >= n_interior) that lie in
/// interior columns: the multipliers of the initial reduction.
nnz_t interface_l_in_interior_columns(const PilutResult& f) {
  const idx n_interior = f.schedule.n_interior;
  const Csr& l = f.factors.l;
  nnz_t count = 0;
  for (idx i = n_interior; i < l.n_rows; ++i) {
    for (nnz_t k = l.row_ptr[i]; k < l.row_ptr[i + 1]; ++k) count += l.col_idx[k] < n_interior;
  }
  return count;
}

/// ||(P A P^T - L U) 1||_2 for factors computed on P A P^T.
real factor_residual(const Csr& a, const PilutResult& f) {
  const Csr pa = permute_symmetric(a, f.schedule.newnum);
  const RealVec ones(static_cast<std::size_t>(a.n_rows), 1.0);
  RealVec u1(ones.size()), lu1(ones.size()), r(ones.size());
  spmv(f.factors.u, ones, u1);
  spmv(f.factors.l, u1, lu1);  // L's unit diagonal is implicit: L U 1 = lu1 + u1
  spmv(pa, ones, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= lu1[i] + u1[i];
  return norm2(r);
}

TEST(PilutNested, InterfaceRowsKeepInteriorMultipliers) {
  // Each stage adds its multipliers to the L part the interface row already
  // carries (the initial reduction's interior columns and earlier stages'
  // columns), and the third dropping rule runs over the union.
  const Csr a = workloads::convection_diffusion_2d(32, 32, 8.0, 4.0);
  const DistCsr dist = make_dist(a, 8);
  sim::Machine machine(8);
  const PilutOptions opts{.m = 10, .tau = 1e-4, .pivot_rel = 1e-12};
  const PilutResult nested = pilut_factor_nested(machine, dist, opts);
  const PilutResult flat = pilut_factor(machine, dist, opts);

  // Both keep about as many interior-column multipliers (here 1221 nested
  // against 1260 flat; a nested factorization that dropped them kept 0).
  const nnz_t nested_count = interface_l_in_interior_columns(nested);
  const nnz_t flat_count = interface_l_in_interior_columns(flat);
  EXPECT_GT(flat_count, 0);
  EXPECT_GT(2 * nested_count, flat_count);
  // And the factors are as accurate: ||(PAP^T - LU) 1|| is 2.71 nested
  // against 3.37 flat here, where dropping the multipliers gave 4.52.
  EXPECT_LT(factor_residual(a, nested), 1.1 * factor_residual(a, flat));
}

TEST(PilutNested, FewerSyncPointsThanMisFormulation) {
  const Csr a = workloads::convection_diffusion_2d(40, 40, 4.0, 4.0);
  const DistCsr dist = make_dist(a, 16);
  sim::Machine machine(16);
  const PilutResult nested = pilut_factor_nested(
      machine, dist, {.m = 10, .tau = 1e-6, .pivot_rel = 1e-12});
  const PilutResult flat =
      pilut_factor(machine, dist, {.m = 10, .tau = 1e-6, .pivot_rel = 1e-12});
  EXPECT_LT(nested.stats.levels, flat.stats.levels);
}

TEST(PilutNested, SequentialCutoffForcesTail) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  // Huge cutoff: everything goes through the sequential tail in one stage.
  const PilutResult result = pilut_factor_nested(
      machine, dist, {.m = 8, .tau = 1e-4, .pivot_rel = 1e-12},
      {.max_depth = 8, .sequential_cutoff = 100000});
  EXPECT_EQ(result.stats.levels, 1);
  result.factors.validate();
  // All interface rows were hosted on rank 0 for the tail stage.
  for (idx i = result.schedule.n_interior; i < a.n_rows; ++i) {
    EXPECT_EQ(result.schedule.owner_new[i], 0);
  }
}

TEST(PilutNested, DeterministicForFixedSeed) {
  const Csr a = workloads::convection_diffusion_2d(18, 18);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult r1 =
      pilut_factor_nested(machine, dist, {.m = 6, .tau = 1e-4, .seed = 3, .pivot_rel = 1e-12});
  const PilutResult r2 =
      pilut_factor_nested(machine, dist, {.m = 6, .tau = 1e-4, .seed = 3, .pivot_rel = 1e-12});
  EXPECT_TRUE(equal(r1.factors.l, r2.factors.l));
  EXPECT_TRUE(equal(r1.factors.u, r2.factors.u));
  EXPECT_EQ(r1.schedule.newnum, r2.schedule.newnum);
}

TEST(PilutNested, RejectsBadOptions) {
  const Csr a = workloads::convection_diffusion_2d(6, 6);
  const DistCsr dist = make_dist(a, 2);
  sim::Machine machine(2);
  EXPECT_THROW(
      pilut_factor_nested(machine, dist, {}, {.max_depth = -1}), Error);
  EXPECT_THROW(
      pilut_factor_nested(machine, dist, {}, {.max_depth = 2, .sequential_cutoff = 0}),
      Error);
}

}  // namespace
}  // namespace ptilu
