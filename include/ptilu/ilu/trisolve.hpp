// Sequential triangular solves with ILU factors, and preconditioner
// application (optionally under the symmetric permutation produced by the
// parallel factorization).
#pragma once

#include <span>

#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// Solve L y = b where L is unit lower triangular (diagonal implicit).
void forward_solve(const Csr& l, std::span<const real> b, std::span<real> y);

/// Solve U x = y where each U row stores its diagonal first.
void backward_solve(const Csr& u, std::span<const real> y, std::span<real> x);

/// x = U^{-1} L^{-1} b — apply M^{-1} for M = LU.
void ilu_apply(const IluFactors& factors, std::span<const real> b, std::span<real> x);

/// Apply factors that were computed on the permuted matrix P A P^T:
/// x = P^{-1} U^{-1} L^{-1} P b, where new_of[old] is the permutation.
/// This is how the PILUT preconditioner is used inside GMRES.
void ilu_apply_permuted(const IluFactors& factors, const IdxVec& new_of,
                        std::span<const real> b, std::span<real> x);

// ---- Batched multi-RHS solves (the serving hot path) -------------------
//
// One sweep over the factor carries a group of min(8, remaining) columns
// of a DenseRhsBlock, so k <= 8 streams the factor once: per CSR entry the
// group's independent accumulators update together, which breaks the
// single-RHS latency chain and reuses each loaded factor entry for every
// column. The row loops are instantiated at each group width 1..8 and
// chosen once per group. Column c of the result is bit-identical to the
// single-RHS solve of column c (per column the accumulation order is
// exactly the single-RHS order). Held by tests/test_serve.cpp for every k
// in 1..17.

/// Solve L Y = B column-wise, one sweep over L.
void forward_solve(const Csr& l, const DenseRhsBlock& b, DenseRhsBlock& y);

/// Solve U X = Y column-wise, one sweep over U (diag-first rows).
void backward_solve(const Csr& u, const DenseRhsBlock& y, DenseRhsBlock& x);

/// X = U^{-1} L^{-1} B — batched preconditioner application.
void ilu_apply(const IluFactors& factors, const DenseRhsBlock& b, DenseRhsBlock& x);

}  // namespace ptilu
