#include "ptilu/ilu/factors.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "ptilu/support/check.hpp"

namespace ptilu {

void IluFactors::validate() const {
  PTILU_CHECK(l.n_rows == l.n_cols && u.n_rows == u.n_cols && l.n_rows == u.n_rows,
              "factor shape mismatch");
  l.validate();
  u.validate();
  for (idx i = 0; i < l.n_rows; ++i) {
    for (nnz_t k = l.row_ptr[i]; k < l.row_ptr[i + 1]; ++k) {
      PTILU_CHECK(l.col_idx[k] < i, "L has an entry on/above the diagonal at row " << i);
    }
    PTILU_CHECK(u.row_nnz(i) >= 1 && u.col_idx[u.row_ptr[i]] == i,
                "U row " << i << " does not start with the diagonal");
    PTILU_CHECK(u.values[u.row_ptr[i]] != 0.0, "zero diagonal in U at row " << i);
  }
}

double IluFactors::fill_factor(nnz_t nnz_a) const {
  PTILU_CHECK(nnz_a > 0, "empty matrix");
  return static_cast<double>(l.nnz() + u.nnz()) / static_cast<double>(nnz_a);
}

std::size_t select_largest(std::span<idx> cols, std::span<real> vals, idx keep_count,
                           real tau, idx always_keep,
                           std::vector<std::pair<idx, real>>& kept) {
  PTILU_CHECK(keep_count >= 0, "negative keep count");
  // Gather survivors of the threshold test (plus the protected column).
  kept.clear();
  kept.reserve(cols.size());
  std::pair<idx, real> protected_entry{-1, 0.0};
  bool have_protected = false;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == always_keep) {
      protected_entry = {cols[k], vals[k]};
      have_protected = true;
      continue;
    }
    if (std::abs(vals[k]) >= tau) kept.emplace_back(cols[k], vals[k]);
  }
  // Deterministic strict total order: |value| descending, column ascending.
  const auto by_magnitude = [](const std::pair<idx, real>& a, const std::pair<idx, real>& b) {
    const real ma = std::abs(a.second), mb = std::abs(b.second);
    if (ma != mb) return ma > mb;
    return a.first < b.first;
  };
  if (static_cast<idx>(kept.size()) > keep_count) {
    std::nth_element(kept.begin(), kept.begin() + keep_count, kept.end(), by_magnitude);
    kept.resize(keep_count);
  }
  if (have_protected) kept.push_back(protected_entry);
  std::sort(kept.begin(), kept.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (std::size_t k = 0; k < kept.size(); ++k) {
    cols[k] = kept[k].first;
    vals[k] = kept[k].second;
  }
  return kept.size();
}

void select_largest(SparseRow& row, idx keep_count, real tau, idx always_keep,
                    std::vector<std::pair<idx, real>>& kept) {
  const std::size_t size =
      select_largest(row.cols, row.vals, keep_count, tau, always_keep, kept);
  row.cols.resize(size);
  row.vals.resize(size);
}

void select_largest(SparseRow& row, idx keep_count, real tau, idx always_keep) {
  std::vector<std::pair<idx, real>> kept;
  select_largest(row, keep_count, tau, always_keep, kept);
}

Csr rows_to_csr(idx n, const std::vector<SparseRow>& rows) {
  Csr m(n, n);
  nnz_t total = 0;
  for (const auto& row : rows) total += static_cast<nnz_t>(row.size());
  m.col_idx.resize(total);
  m.values.resize(total);
  nnz_t at = 0;
  for (idx i = 0; i < n; ++i) {
    const SparseRow& row = rows[i];
    std::copy(row.cols.begin(), row.cols.end(),
              m.col_idx.begin() + static_cast<std::ptrdiff_t>(at));
    std::copy(row.vals.begin(), row.vals.end(),
              m.values.begin() + static_cast<std::ptrdiff_t>(at));
    at += static_cast<nnz_t>(row.size());
    m.row_ptr[i + 1] = at;
  }
  return m;
}

}  // namespace ptilu
