// Tests for the supernodal/blocked ILUT path: panel detection, the
// panelized working row, and the blocked-vs-scalar differential property
// suite (the scalar path is the pinned reference; the blocked path is
// validated by tolerance bounds, not bit-identicality).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "ptilu/ilu/block_kernels.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/ilut_blocked.hpp"
#include "ptilu/ilu/supernodes.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/stream.hpp"
#include "ptilu/workloads/torso.hpp"

namespace ptilu {
namespace {

void check_panel_invariants(const Csr& a, const IdxVec& starts, int max_panel) {
  ASSERT_GE(starts.size(), 2u);
  EXPECT_EQ(starts.front(), 0);
  EXPECT_EQ(starts.back(), a.n_rows);
  for (std::size_t p = 0; p + 1 < starts.size(); ++p) {
    const idx w = starts[p + 1] - starts[p];
    EXPECT_GE(w, 1);
    EXPECT_LE(w, max_panel);
    EXPECT_EQ(w & (w - 1), 0) << "panel width " << w << " not a power of two";
  }
}

TEST(Supernodes, CoversMatrixWithPowerOfTwoWidths) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 10.0, 20.0);
  for (const real slack : {0.0, 0.5, 1.5, 4.0}) {
    for (const int max_panel : {1, 2, 4, 8}) {
      const IdxVec starts = detect_panels(a, {.max_panel = max_panel, .slack = slack});
      check_panel_invariants(a, starts, max_panel);
    }
  }
}

TEST(Supernodes, IdenticalPatternsBlockAtMaxWidth) {
  // A block-diagonal matrix of dense 4x4 blocks: rows inside a block have
  // identical patterns, so zero slack already amalgamates them fully.
  CooBuilder b(16, 16);
  for (idx i = 0; i < 16; ++i) {
    for (idx j = (i / 4) * 4; j < (i / 4) * 4 + 4; ++j) {
      b.add(i, j, i == j ? 4.0 : -1.0);
    }
  }
  const Csr a = b.to_csr();
  const IdxVec starts = detect_panels(a, {.max_panel = 4, .slack = 0.0});
  ASSERT_EQ(starts.size(), 5u);
  for (std::size_t p = 0; p + 1 < starts.size(); ++p) {
    EXPECT_EQ(starts[p + 1] - starts[p], 4);
  }
}

TEST(Supernodes, SlackWidensPanels) {
  // The 5-point stencil's consecutive rows have shifted (not identical)
  // patterns: zero slack keeps them apart, a generous budget merges them.
  const Csr a = workloads::convection_diffusion_2d(32, 32, 10.0, 20.0);
  real prev_panels = 0;
  bool first = true;
  for (const real slack : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    const IdxVec starts = detect_panels(a, {.max_panel = 4, .slack = slack});
    const real panels = static_cast<real>(starts.size());
    if (!first) EXPECT_LE(panels, prev_panels) << "slack " << slack;
    prev_panels = panels;
    first = false;
  }
  const IdxVec tight = detect_panels(a, {.max_panel = 4, .slack = 0.0});
  const IdxVec loose = detect_panels(a, {.max_panel = 4, .slack = 4.0});
  EXPECT_LT(loose.size(), tight.size());
}

TEST(PanelWorkingRow, InsertZeroesTheTile) {
  PanelWorkingRow w(8, 4);
  real* t = w.insert(3);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(t[j], 0.0);
  t[1] = 2.5;
  EXPECT_TRUE(w.present(3));
  EXPECT_FALSE(w.present(0));
  EXPECT_EQ(w.touched().size(), 1u);
  w.clear();
  EXPECT_FALSE(w.present(3));
  // Reinsertion must re-zero the tile even though clear() never sweeps.
  real* t2 = w.insert(3);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(t2[j], 0.0);
}

TEST(PanelWorkingRow, StaleColumnsDoNotResurrectAcrossEpochWrap) {
  // Same uint8 epoch-stamp scheme as WorkingRow: after exactly 255 clears
  // the counter wraps, and a column stamped back then would look present
  // again unless the wrap bulk-invalidates stale stamps.
  PanelWorkingRow w(3, 2);
  w.insert(0)[0] = 42.0;
  for (int k = 0; k < 255; ++k) w.clear();
  EXPECT_FALSE(w.present(0));
  EXPECT_TRUE(w.touched().empty());
  real* t = w.insert(0);
  EXPECT_TRUE(w.present(0));
  EXPECT_EQ(t[0], 0.0);
  EXPECT_EQ(t[1], 0.0);
}

TEST(PanelWorkingRow, ManyGenerationsStayIndependent) {
  PanelWorkingRow w(4, 2);
  for (int gen = 0; gen < 3 * 255 + 7; ++gen) {
    const idx c = static_cast<idx>(gen % 4);
    EXPECT_FALSE(w.present(c)) << "generation " << gen;
    real* t = w.insert(c);
    EXPECT_EQ(t[0], 0.0) << "generation " << gen;
    t[0] = static_cast<real>(gen);
    EXPECT_EQ(w.touched().size(), 1u);
    w.clear();
  }
}

TEST(BlockKernels, FixedWidthsMatchGenericLoop) {
  Rng rng(7);
  for (const int nb : {1, 2, 4, 8}) {
    real w[8], ref[8], m[8];
    for (int j = 0; j < nb; ++j) {
      w[j] = ref[j] = rng.uniform(-1.0, 1.0);
      m[j] = rng.uniform(-1.0, 1.0);
    }
    const real s = rng.uniform(-2.0, 2.0);
    tile_axpy_any(nb, w, m, s);
    for (int j = 0; j < nb; ++j) ref[j] -= m[j] * s;
    for (int j = 0; j < nb; ++j) EXPECT_DOUBLE_EQ(w[j], ref[j]) << "nb " << nb;
  }
}

// ---------------------------------------------------------------------------
// Differential property suite: blocked vs the pinned scalar reference across
// operators and amalgamation slack settings.

struct BlockedCase {
  const char* name;
  real slack;
  int max_panel;
};

// Without this gtest prints the parameter as raw bytes: the name pointer and
// the struct padding, which differ from run to run and so leak into the test
// names CTest discovers.
void PrintTo(const BlockedCase& c, std::ostream* os) {
  *os << c.name << " slack=" << c.slack << " max_panel=" << c.max_panel;
}

class BlockedVsScalar : public ::testing::TestWithParam<BlockedCase> {};

void run_differential(const Csr& a, const BlockedCase& param) {
  const IlutOptions base{.m = 10, .tau = 1e-4, .pivot_rel = 1e-12};
  IlutStats sstats, bstats;
  const IluFactors scalar = ilut(a, base, &sstats);
  const BlockedIlutOptions bopts{
      .base = base, .panels = {.max_panel = param.max_panel, .slack = param.slack}};
  BlockedFactors blocked = ilut_blocked(a, bopts, &bstats);
  blocked.validate();
  const IluFactors expanded = blocked.to_csr();
  expanded.validate();

  // Fill ceiling: at most m tiles per side per panel plus the dense
  // diagonal block — per row that is m entries per side plus at most
  // max_panel intra-panel ones, the same m-per-side ceiling the scalar
  // rules enforce (which count intra-panel entries toward m).
  for (idx i = 0; i < a.n_rows; ++i) {
    EXPECT_LE(expanded.l.row_nnz(i), base.m + param.max_panel - 1) << "L row " << i;
    EXPECT_LE(expanded.u.row_nnz(i), base.m + param.max_panel) << "U row " << i;
  }
  const double fill_scalar = scalar.fill_factor(a.nnz());
  const double fill_blocked = blocked.fill_factor(a.nnz());
  EXPECT_LE(fill_blocked, 3.0 * fill_scalar + 1.0) << "blocked fill out of bounds";
  EXPECT_GE(fill_blocked, 0.2 * fill_scalar) << "blocked dropped almost everything";

  // Drop tallies stay the same order of magnitude (block-wise dropping
  // counts nonzeros inside dropped tiles, so exact parity is not expected).
  const std::uint64_t sdrops = sstats.dropped_rule1 + sstats.dropped_rule2;
  const std::uint64_t bdrops = bstats.dropped_rule1 + bstats.dropped_rule2;
  if (sdrops > 1000) {
    EXPECT_LE(bdrops, 4 * sdrops);
    EXPECT_GE(4 * bdrops, sdrops);
  }

  // Blocked trisolves agree with the CSR solves on the expanded factors up
  // to reassociation inside a panel.
  const idx n = a.n_rows;
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x_blocked(n, 0.0), x_csr(n, 0.0);
  ilu_apply(blocked, b, x_blocked);
  ilu_apply(expanded, b, x_csr);
  const real scale = norm2(std::span<const real>(x_csr));
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(x_blocked[i], x_csr[i], 1e-10 * (scale + 1.0)) << "solve row " << i;
  }

  // Preconditioned-GMRES parity: the blocked preconditioner must converge
  // within a modest factor of the scalar iteration count.
  const GmresOptions gopts{.restart = 20, .max_matvecs = 2000, .rtol = 1e-8};
  RealVec xs(n, 0.0), xb(n, 0.0);
  const GmresResult rs = gmres(a, IluPreconditioner(scalar), b, xs, gopts);
  const GmresResult rb = gmres(a, BlockedIluPreconditioner(std::move(blocked)), b, xb, gopts);
  ASSERT_TRUE(rs.converged);
  EXPECT_TRUE(rb.converged) << "blocked-preconditioned GMRES stalled";
  EXPECT_LE(rb.matvecs, 2 * rs.matvecs + 20)
      << "blocked preconditioner lost too much quality (scalar " << rs.matvecs
      << " matvecs, blocked " << rb.matvecs << ")";

  // True-residual check for the blocked solve.
  RealVec r(n);
  spmv(a, xb, r);
  for (idx i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const real rel = norm2(std::span<const real>(r)) / norm2(std::span<const real>(b));
  EXPECT_LE(rel, 1e-6) << "blocked-preconditioned solve residual too large";
}

TEST_P(BlockedVsScalar, G0Grid) {
  run_differential(workloads::convection_diffusion_2d(40, 40, 10.0, 20.0), GetParam());
}

TEST_P(BlockedVsScalar, G0StreamedSlabs) {
  // The streamed generator path: assemble the operator from contiguous row
  // slabs (byte-identical to the dense generator by contract) and factor.
  const idx nx = 32, ny = 32;
  const Csr whole = workloads::convection_diffusion_2d_rows(nx, ny, 10.0, 20.0, 0, nx * ny);
  run_differential(whole, GetParam());
}

TEST_P(BlockedVsScalar, TorsoFv) {
  workloads::TorsoOptions topts;
  topts.nx = 12;
  topts.ny = 12;
  topts.nz = 10;
  run_differential(workloads::torso_fv_3d(topts), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SlackSweep, BlockedVsScalar,
    ::testing::Values(BlockedCase{"tight", 0.0, 4}, BlockedCase{"mid", 1.5, 4},
                      BlockedCase{"loose", 3.0, 4}, BlockedCase{"wide8", 2.0, 8},
                      BlockedCase{"scalar_width", 0.0, 1}),
    [](const ::testing::TestParamInfo<BlockedCase>& info) { return info.param.name; });

TEST(BlockedIlut, ScalarWidthPanelsMatchScalarStructure) {
  // max_panel = 1 makes every panel a single row: block dropping degenerates
  // to entrywise dropping and the factors must match scalar ILUT exactly.
  const Csr a = workloads::convection_diffusion_2d(20, 20, 10.0, 20.0);
  const IlutOptions base{.m = 8, .tau = 1e-4, .pivot_rel = 1e-12};
  const IluFactors scalar = ilut(a, base);
  const BlockedIlutOptions bopts{.base = base, .panels = {.max_panel = 1, .slack = 0.0}};
  const IluFactors expanded = ilut_blocked(a, bopts).to_csr();
  ASSERT_EQ(expanded.l.nnz(), scalar.l.nnz());
  ASSERT_EQ(expanded.u.nnz(), scalar.u.nnz());
  for (nnz_t k = 0; k < scalar.l.nnz(); ++k) {
    EXPECT_EQ(expanded.l.col_idx[k], scalar.l.col_idx[k]);
    EXPECT_DOUBLE_EQ(expanded.l.values[k], scalar.l.values[k]);
  }
  for (nnz_t k = 0; k < scalar.u.nnz(); ++k) {
    EXPECT_EQ(expanded.u.col_idx[k], scalar.u.col_idx[k]);
    EXPECT_DOUBLE_EQ(expanded.u.values[k], scalar.u.values[k]);
  }
}

// ---------------------------------------------------------------------------
// Pivot-guard regressions (satellite: safeguarded pivot substitution).

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
  const Csr a = singular_leading_block();
  EXPECT_THROW(ilut(a, {.m = 4, .tau = 0.0, .pivot_rel = 0.0}), Error);
  const BlockedIlutOptions bopts{.base = {.m = 4, .tau = 0.0, .pivot_rel = 0.0},
                                 .panels = {.max_panel = 2, .slack = 4.0}};
  EXPECT_THROW(ilut_blocked(a, bopts), Error);
}

TEST(PivotGuard, SingularLeadingBlockRecoversWithGuardAndIsCounted) {
  const Csr a = singular_leading_block();
  IlutStats stats;
  const IluFactors f = ilut(a, {.m = 4, .tau = 0.0, .pivot_rel = 1e-8}, &stats);
  f.validate();
  EXPECT_GE(stats.pivots_guarded, 1u);

  IlutStats bstats;
  const BlockedIlutOptions bopts{.base = {.m = 4, .tau = 0.0, .pivot_rel = 1e-8},
                                 .panels = {.max_panel = 2, .slack = 4.0}};
  const BlockedFactors bf = ilut_blocked(a, bopts, &bstats);
  bf.validate();
  EXPECT_GE(bstats.pivots_guarded, 1u);
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
