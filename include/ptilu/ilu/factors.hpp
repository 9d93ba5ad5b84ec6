// Container for incomplete LU factors and shared dropping-rule kernels.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// Result of an incomplete factorization A ≈ L·U.
/// L is strictly lower triangular with an implicit unit diagonal;
/// U is upper triangular and always stores the diagonal.
struct IluFactors {
  Csr l;
  Csr u;

  idx n() const { return l.n_rows; }

  /// Structural sanity: L strictly lower, U upper with full nonzero diagonal.
  void validate() const;

  /// nnz(L) + nnz(U) relative to nnz(A) — the usual fill-factor metric.
  double fill_factor(nnz_t nnz_a) const;
};

/// One sparse row under construction: parallel column/value arrays.
struct SparseRow {
  IdxVec cols;
  RealVec vals;

  void clear() {
    cols.clear();
    vals.clear();
  }
  std::size_t size() const { return cols.size(); }
  void push(idx c, real v) {
    cols.push_back(c);
    vals.push_back(v);
  }
};

/// The ILUT dropping-rule selection kernel: keep the entries with magnitude
/// >= tau, and of those at most keep_count of the largest. The comparator
/// is the strict total order (|value| descending, column ascending), so
/// selection is deterministic under ties — both the serial and the
/// simulated-parallel factorizations rely on agreeing here. always_keep
/// (if >= 0) names a column retained unconditionally (the diagonal).
/// The surviving entries are returned sorted by column.
///
/// The 5-argument form stages survivors in the caller-provided `kept`
/// buffer (cleared on entry), making the call allocation-free once the
/// buffer is warm — hot loops pass FactorScratch::kept. The 4-argument
/// convenience form uses a local buffer.
void select_largest(SparseRow& row, idx keep_count, real tau, idx always_keep,
                    std::vector<std::pair<idx, real>>& kept);
/// The same selection on a row held elsewhere: the survivors overwrite the
/// front of `cols`/`vals`, and their count is returned.
std::size_t select_largest(std::span<idx> cols, std::span<real> vals, idx keep_count,
                           real tau, idx always_keep,
                           std::vector<std::pair<idx, real>>& kept);
void select_largest(SparseRow& row, idx keep_count, real tau, idx always_keep = -1);

/// Concatenate per-row cols/vals into a CSR matrix in one pass over the
/// rows, writing into exactly-sized storage (no growth reallocation).
Csr rows_to_csr(idx n, const std::vector<SparseRow>& rows);

}  // namespace ptilu
