// Tests for the sequential factorizations: ILUT, ILU(0), ILU(k),
// dropping-rule kernels, and triangular solves.
#include <gtest/gtest.h>

#include <cmath>

#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/sparse/dense.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

Csr random_dd_matrix(idx n, idx per_row, std::uint64_t seed) {
  // Random sparse, strongly diagonally dominant (no pivoting needed).
  Rng rng(seed);
  CooBuilder b(n, n);
  for (idx i = 0; i < n; ++i) {
    b.add(i, i, 20.0 + rng.next_double());
    for (idx k = 0; k < per_row; ++k) {
      const idx j = rng.next_index(n);
      if (j != i) b.add(i, j, rng.uniform(-1.0, 1.0));
    }
  }
  return b.to_csr();
}

/// Multiply the factors back together densely: returns L*U.
Dense multiply_factors(const IluFactors& f) {
  const idx n = f.n();
  Dense lu(n, n);
  Dense l = Dense::from_csr(f.l);
  Dense u = Dense::from_csr(f.u);
  for (idx i = 0; i < n; ++i) l(i, i) = 1.0;
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      real acc = 0.0;
      for (idx k = 0; k < n; ++k) acc += l(i, k) * u(k, j);
      lu(i, j) = acc;
    }
  }
  return lu;
}

TEST(WorkingRow, InsertAccumulateClear) {
  WorkingRow w(8);
  w.insert(3, 1.5);
  w.insert(1, -2.0);
  EXPECT_TRUE(w.present(3));
  EXPECT_FALSE(w.present(0));
  w.accumulate(3, 0.5);
  EXPECT_DOUBLE_EQ(w.value(3), 2.0);
  EXPECT_EQ(w.touched().size(), 2u);
  w.clear();
  // After clear() only presence is specified: value() is meaningful solely
  // for present columns (the epoch stamp goes stale, values are not swept).
  EXPECT_FALSE(w.present(3));
  EXPECT_TRUE(w.touched().empty());
  // Re-inserting a previously-used column starts from the inserted value.
  w.insert(3, 4.0);
  EXPECT_TRUE(w.present(3));
  EXPECT_DOUBLE_EQ(w.value(3), 4.0);
}

TEST(WorkingRow, StaleColumnsDoNotResurrectAcrossEpochWrap) {
  // The presence stamp is a uint8 epoch: after exactly 255 clears the
  // counter returns to its old value, and a column stamped back then would
  // look present again unless the wrap bulk-invalidates stale stamps.
  WorkingRow w(3);
  w.insert(0, 42.0);
  for (int k = 0; k < 255; ++k) w.clear();
  EXPECT_FALSE(w.present(0));
  EXPECT_TRUE(w.touched().empty());
  w.insert(0, 1.0);
  EXPECT_TRUE(w.present(0));
  EXPECT_DOUBLE_EQ(w.value(0), 1.0);
}

TEST(WorkingRow, ManyGenerationsStayIndependent) {
  // Drive the stamp through several full wraps; each generation must see a
  // clean row regardless of what earlier generations touched.
  WorkingRow w(4);
  for (int gen = 0; gen < 3 * 255 + 7; ++gen) {
    const idx c = static_cast<idx>(gen % 4);
    EXPECT_FALSE(w.present(c)) << "generation " << gen;
    w.insert(c, static_cast<real>(gen));
    EXPECT_TRUE(w.present(c));
    EXPECT_DOUBLE_EQ(w.value(c), static_cast<real>(gen));
    EXPECT_EQ(w.touched().size(), 1u);
    w.clear();
  }
}

TEST(SelectLargest, KeepsLargestByMagnitude) {
  SparseRow row;
  row.push(0, 0.1);
  row.push(1, -5.0);
  row.push(2, 3.0);
  row.push(3, -0.01);
  select_largest(row, 2, 0.05);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row.cols[0], 1);
  EXPECT_EQ(row.cols[1], 2);
}

TEST(SelectLargest, ThresholdDropsSmall) {
  SparseRow row;
  row.push(0, 0.1);
  row.push(1, 0.2);
  select_largest(row, 10, 0.15);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row.cols[0], 1);
}

TEST(SelectLargest, AlwaysKeepSurvivesEverything) {
  SparseRow row;
  row.push(0, 1e-30);
  row.push(1, 5.0);
  row.push(2, 4.0);
  select_largest(row, 1, 0.5, /*always_keep=*/0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row.cols[0], 0);  // protected despite tiny magnitude
  EXPECT_EQ(row.cols[1], 1);
}

TEST(SelectLargest, TieBreakByColumnIsDeterministic) {
  SparseRow row;
  row.push(7, 1.0);
  row.push(2, -1.0);
  row.push(5, 1.0);
  select_largest(row, 2, 0.0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row.cols[0], 2);
  EXPECT_EQ(row.cols[1], 5);
}

TEST(SelectLargest, OutputSortedByColumn) {
  SparseRow row;
  row.push(9, 1.0);
  row.push(3, 2.0);
  row.push(6, 3.0);
  select_largest(row, 3, 0.0);
  EXPECT_TRUE(std::is_sorted(row.cols.begin(), row.cols.end()));
}

TEST(Ilut, NoDroppingEqualsExactLu) {
  const idx n = 40;
  const Csr a = random_dd_matrix(n, 4, 77);
  const IluFactors f = ilut(a, {.m = n, .tau = 0.0});
  f.validate();
  Dense exact = Dense::from_csr(a);
  dense_lu_nopivot(exact);
  const Dense approx = multiply_factors(f);
  // With no dropping, L*U reproduces A exactly (up to roundoff).
  const Dense original = Dense::from_csr(a);
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      EXPECT_NEAR(approx(i, j), original(i, j), 1e-10) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Ilut, RespectsRowCaps) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 8.0, 4.0);
  for (const idx m : {1, 3, 5}) {
    const IluFactors f = ilut(a, {.m = m, .tau = 1e-8});
    for (idx i = 0; i < f.n(); ++i) {
      EXPECT_LE(f.l.row_nnz(i), m) << "L row " << i << " m=" << m;
      EXPECT_LE(f.u.row_nnz(i), m + 1) << "U row " << i << " m=" << m;  // + diagonal
    }
  }
}

TEST(Ilut, ThresholdRemovesSmallEntries) {
  const Csr a = workloads::jump_coefficient_2d(16, 16, 4.0, 3);
  const real tau = 1e-2;
  const IluFactors f = ilut(a, {.m = 50, .tau = tau});
  const RealVec norms = row_norms(a, 2);
  for (idx i = 0; i < f.n(); ++i) {
    for (nnz_t k = f.l.row_ptr[i]; k < f.l.row_ptr[i + 1]; ++k) {
      EXPECT_GE(std::abs(f.l.values[k]), tau * norms[i]);
    }
    // Skip the always-kept diagonal (first entry).
    for (nnz_t k = f.u.row_ptr[i] + 1; k < f.u.row_ptr[i + 1]; ++k) {
      EXPECT_GE(std::abs(f.u.values[k]), tau * norms[i]);
    }
  }
}

TEST(Ilut, FillGrowsAsTauShrinks) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 10.0, 5.0);
  const IluFactors coarse = ilut(a, {.m = 20, .tau = 1e-2});
  const IluFactors fine = ilut(a, {.m = 20, .tau = 1e-6});
  EXPECT_GT(fine.l.nnz() + fine.u.nnz(), coarse.l.nnz() + coarse.u.nnz());
  EXPECT_GT(fine.fill_factor(a.nnz()), coarse.fill_factor(a.nnz()));
}

TEST(Ilut, StatsAreReported) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 5.0, 5.0);
  IlutStats stats;
  (void)ilut(a, {.m = 5, .tau = 1e-3}, &stats);
  EXPECT_GT(stats.flops, 0u);
  EXPECT_GT(stats.dropped_rule1 + stats.dropped_rule2, 0u);
}

TEST(Ilut, ZeroPivotThrowsWithoutGuard) {
  CooBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  const Csr a = b.to_csr();
  EXPECT_THROW(ilut(a, {.m = 2, .tau = 0.0}), Error);
}

TEST(Ilut, PivotGuardRecovers) {
  CooBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  const Csr a = b.to_csr();
  IlutStats stats;
  const IluFactors f = ilut(a, {.m = 2, .tau = 0.0, .pivot_rel = 1e-8}, &stats);
  f.validate();
  // Row 0's zero pivot is floored; row 1's elimination against the floored
  // pivot then produces a huge (but nonzero) diagonal on its own.
  EXPECT_EQ(stats.pivots_guarded, 1u);
}

TEST(Ilut, MZeroGivesDiagonalFactor) {
  const Csr a = workloads::convection_diffusion_2d(8, 8);
  const IluFactors f = ilut(a, {.m = 0, .tau = 0.0});
  EXPECT_EQ(f.l.nnz(), 0);
  EXPECT_EQ(f.u.nnz(), f.n());  // diagonal only
}

TEST(Ilut, RejectsZeroRow) {
  Csr a(2, 2);
  a.row_ptr = {0, 1, 1};
  a.col_idx = {0};
  a.values = {1.0};
  EXPECT_THROW(ilut(a, {.m = 2, .tau = 0.0}), Error);
}

TEST(Ilu0, PatternMatchesOriginal) {
  const Csr a = workloads::convection_diffusion_2d(12, 12, 3.0, 0.0);
  const IluFactors f = ilu0(a);
  f.validate();
  // nnz(L) + nnz(U) == nnz(A) when A has a full diagonal.
  EXPECT_EQ(f.l.nnz() + f.u.nnz(), a.nnz());
}

TEST(Ilu0, ExactOnPattern) {
  // Defining property of ILU(0): (L·U)_ij == a_ij for every stored (i,j).
  const Csr a = workloads::convection_diffusion_2d(10, 10, 5.0, 2.0);
  const IluFactors f = ilu0(a);
  const Dense lu = multiply_factors(f);
  for (idx i = 0; i < a.n_rows; ++i) {
    for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      EXPECT_NEAR(lu(i, a.col_idx[k]), a.values[k], 1e-10)
          << "(" << i << "," << a.col_idx[k] << ")";
    }
  }
}

TEST(Iluk, LevelZeroEqualsIlu0) {
  const Csr a = workloads::convection_diffusion_2d(10, 10, 4.0, 4.0);
  const IluFactors f0 = ilu0(a);
  const IluFactors fk = iluk(a, 0);
  EXPECT_TRUE(equal(f0.l, fk.l));
  EXPECT_TRUE(equal(f0.u, fk.u));
}

TEST(Iluk, FillGrowsWithLevel) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  nnz_t prev = 0;
  for (const idx k : {0, 1, 2, 3}) {
    const IluFactors f = iluk(a, k);
    f.validate();
    const nnz_t total = f.l.nnz() + f.u.nnz();
    EXPECT_GE(total, prev) << "level " << k;
    prev = total;
  }
}

TEST(Iluk, HighLevelOnNarrowBandIsExact) {
  // Tridiagonal matrices fill only one level; ILU(1) is the exact LU.
  const idx n = 30;
  CooBuilder b(n, n);
  for (idx i = 0; i < n; ++i) {
    b.add(i, i, 4.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  const Csr a = b.to_csr();
  const IluFactors f = iluk(a, 1);
  const Dense lu = multiply_factors(f);
  const Dense orig = Dense::from_csr(a);
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) EXPECT_NEAR(lu(i, j), orig(i, j), 1e-12);
  }
}

TEST(Trisolve, ForwardThenProductRecoversRhs) {
  const Csr a = random_dd_matrix(25, 3, 5);
  const IluFactors f = ilut(a, {.m = 25, .tau = 0.0});
  const RealVec b = workloads::random_vector(25, 9);
  RealVec y(25);
  forward_solve(f.l, b, y);
  // Check L y == b with unit diagonal.
  for (idx i = 0; i < 25; ++i) {
    real acc = y[i];
    for (nnz_t k = f.l.row_ptr[i]; k < f.l.row_ptr[i + 1]; ++k) {
      acc += f.l.values[k] * y[f.l.col_idx[k]];
    }
    EXPECT_NEAR(acc, b[i], 1e-11);
  }
}

TEST(Trisolve, BackwardThenProductRecoversRhs) {
  const Csr a = random_dd_matrix(25, 3, 6);
  const IluFactors f = ilut(a, {.m = 25, .tau = 0.0});
  const RealVec y = workloads::random_vector(25, 10);
  RealVec x(25);
  backward_solve(f.u, y, x);
  RealVec ux(25);
  spmv(f.u, x, ux);
  EXPECT_LT(max_abs_diff(ux, y), 1e-10);
}

TEST(Trisolve, ExactFactorsSolveSystem) {
  const Csr a = random_dd_matrix(30, 4, 7);
  const IluFactors f = ilut(a, {.m = 30, .tau = 0.0});
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(30);
  ilu_apply(f, b, x);
  RealVec ones(30, 1.0);
  EXPECT_LT(max_abs_diff(x, ones), 1e-9);
}

TEST(Trisolve, PermutedApplyMatchesUnpermuted) {
  const idx n = 32;
  const Csr a = random_dd_matrix(n, 4, 8);
  Rng rng(4);
  IdxVec perm(n);
  for (idx i = 0; i < n; ++i) perm[i] = i;
  for (idx i = n - 1; i > 0; --i) std::swap(perm[i], perm[rng.next_index(i + 1)]);

  // Exact factors of the permuted matrix applied through the permutation
  // must solve the original system.
  const Csr pa = permute_symmetric(a, perm);
  const IluFactors f = ilut(pa, {.m = n, .tau = 0.0});
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(n);
  ilu_apply_permuted(f, perm, b, x);
  RealVec ones(n, 1.0);
  EXPECT_LT(max_abs_diff(x, ones), 1e-8);
}

TEST(Trisolve, IdentityPermutationMatchesPlainApply) {
  const Csr a = random_dd_matrix(20, 3, 11);
  const IluFactors f = ilut(a, {.m = 5, .tau = 1e-3});
  IdxVec id(20);
  for (idx i = 0; i < 20; ++i) id[i] = i;
  const RealVec b = workloads::random_vector(20, 2);
  RealVec x1(20), x2(20);
  ilu_apply(f, b, x1);
  ilu_apply_permuted(f, id, b, x2);
  EXPECT_LT(max_abs_diff(x1, x2), 1e-15);
}

TEST(Factors, ValidateCatchesBadL) {
  IluFactors f;
  f.l = Csr(2, 2);
  f.l.row_ptr = {0, 1, 1};
  f.l.col_idx = {1};  // entry above diagonal in row 0
  f.l.values = {1.0};
  f.u = Csr(2, 2);
  f.u.row_ptr = {0, 1, 2};
  f.u.col_idx = {0, 1};
  f.u.values = {1.0, 1.0};
  EXPECT_THROW(f.validate(), Error);
}

// ---- Pivot-guard regressions: safeguarded pivot substitution -----------

/// Leading 2x2 block [[0, 1], [1, 0]] is structurally singular for an
/// unpivoted factorization: eliminating row 1 against row 0 requires
/// dividing by the exactly-zero leading pivot.
Csr singular_leading_block() {
  CooBuilder b(4, 4);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(0, 0, 0.0);
  b.add(1, 1, 0.0);
  b.add(2, 2, 3.0);
  b.add(2, 0, 1.0);
  b.add(3, 3, 4.0);
  b.add(3, 1, 1.0);
  return b.to_csr();
}

TEST(PivotGuard, SingularLeadingBlockThrowsWithoutGuard) {
  EXPECT_THROW(ilut(singular_leading_block(), {.m = 4, .tau = 0.0, .pivot_rel = 0.0}),
               Error);
}

TEST(PivotGuard, SingularLeadingBlockRecoversWithGuardAndIsCounted) {
  IlutStats stats;
  const IluFactors f =
      ilut(singular_leading_block(), {.m = 4, .tau = 0.0, .pivot_rel = 1e-8}, &stats);
  f.validate();
  EXPECT_GE(stats.pivots_guarded, 1u);
}

TEST(PivotGuard, SubnormalPivotThrowsWithoutGuard) {
  // A pivot that is nonzero but subnormal used to pass the old diag != 0
  // check and then overflow the reciprocal; it must now throw.
  CooBuilder b(2, 2);
  b.add(0, 0, 1e-320);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 1.0);
  const Csr a = b.to_csr();
  EXPECT_THROW(ilut(a, {.m = 2, .tau = 0.0, .pivot_rel = 0.0}), Error);
  IlutStats stats;
  const IluFactors f = ilut(a, {.m = 2, .tau = 0.0, .pivot_rel = 1e-10}, &stats);
  f.validate();
  EXPECT_EQ(stats.pivots_guarded, 1u);
}

}  // namespace
}  // namespace ptilu
