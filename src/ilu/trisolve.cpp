#include "ptilu/ilu/trisolve.hpp"

#include <algorithm>

#include "ptilu/support/check.hpp"

namespace ptilu {

void forward_solve(const Csr& l, std::span<const real> b, std::span<real> y) {
  const idx n = l.n_rows;
  PTILU_CHECK(b.size() == static_cast<std::size_t>(n) && y.size() == b.size(),
              "forward_solve size mismatch");
  for (idx i = 0; i < n; ++i) {
    real acc = b[i];
    for (nnz_t k = l.row_ptr[i]; k < l.row_ptr[i + 1]; ++k) {
      acc -= l.values[k] * y[l.col_idx[k]];
    }
    y[i] = acc;
  }
}

void backward_solve(const Csr& u, std::span<const real> y, std::span<real> x) {
  const idx n = u.n_rows;
  PTILU_CHECK(y.size() == static_cast<std::size_t>(n) && x.size() == y.size(),
              "backward_solve size mismatch");
  for (idx i = n - 1; i >= 0; --i) {
    const nnz_t start = u.row_ptr[i];
    PTILU_ASSERT(u.col_idx[start] == i, "U row must start with the diagonal");
    real acc = y[i];
    for (nnz_t k = start + 1; k < u.row_ptr[i + 1]; ++k) {
      acc -= u.values[k] * x[u.col_idx[k]];
    }
    x[i] = acc / u.values[start];
  }
}

void ilu_apply(const IluFactors& factors, std::span<const real> b, std::span<real> x) {
  // No n-vector scratch: row i of the backward sweep reads y[i] before it
  // writes x[i], and otherwise only rows already solved, so it runs in
  // place on the forward result.
  forward_solve(factors.l, b, x);
  backward_solve(factors.u, x, x);
}

void ilu_apply_permuted(const IluFactors& factors, const IdxVec& new_of,
                        std::span<const real> b, std::span<real> x) {
  const idx n = factors.n();
  PTILU_CHECK(new_of.size() == static_cast<std::size_t>(n), "permutation size mismatch");
  RealVec px(n);
  for (idx i = 0; i < n; ++i) px[new_of[i]] = b[i];
  ilu_apply(factors, px, px);  // both sweeps run in place
  for (idx i = 0; i < n; ++i) x[i] = px[new_of[i]];
}

namespace {

/// Batched solves carry up to 8 columns per pass over the factor — as many
/// accumulators as stay in registers. A batch of k columns runs as groups
/// of min(8, remaining), so k <= 8 streams the factor once, and every
/// group width has its own fixed-K instantiation.
constexpr int kMaxRhsGroup = 8;

void check_block_shapes(idx n, const DenseRhsBlock& in, const DenseRhsBlock& out,
                        const char* what) {
  PTILU_CHECK(in.n == n && out.n == n && in.k == out.k && in.k >= 1,
              what << " block shape mismatch (n=" << n << ", in " << in.n << "x"
                   << in.k << ", out " << out.n << "x" << out.k << ")");
}

/// One forward sweep of unit-lower L over K columns (column-major, row
/// stride `stride`). Column c accumulates in exactly the single-RHS order.
template <int K>
void forward_group(const Csr& l, const real* bcol, real* ycol, std::size_t stride) {
  const nnz_t* PTILU_RESTRICT row_ptr = l.row_ptr.data();
  const idx* PTILU_RESTRICT col_idx = l.col_idx.data();
  const real* PTILU_RESTRICT values = l.values.data();
  const idx n = l.n_rows;
  real acc[K];
  for (idx i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i);
    for (int c = 0; c < K; ++c) acc[c] = bcol[c * stride + row];
    for (nnz_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const real a = values[k];
      const real* s = ycol + col_idx[k];
      for (int c = 0; c < K; ++c) acc[c] -= a * s[c * stride];
    }
    for (int c = 0; c < K; ++c) ycol[c * stride + row] = acc[c];
  }
}

/// One backward sweep of U (diagonal first in each row) over K columns.
template <int K>
void backward_group(const Csr& u, const real* ycol, real* xcol, std::size_t stride) {
  const nnz_t* PTILU_RESTRICT row_ptr = u.row_ptr.data();
  const idx* PTILU_RESTRICT col_idx = u.col_idx.data();
  const real* PTILU_RESTRICT values = u.values.data();
  real acc[K];
  for (idx i = u.n_rows - 1; i >= 0; --i) {
    const std::size_t row = static_cast<std::size_t>(i);
    const nnz_t start = row_ptr[i];
    PTILU_ASSERT(col_idx[start] == i, "U row must start with the diagonal");
    for (int c = 0; c < K; ++c) acc[c] = ycol[c * stride + row];
    for (nnz_t k = start + 1; k < row_ptr[i + 1]; ++k) {
      const real a = values[k];
      const real* s = xcol + col_idx[k];
      for (int c = 0; c < K; ++c) acc[c] -= a * s[c * stride];
    }
    const real pivot = values[start];
    for (int c = 0; c < K; ++c) xcol[c * stride + row] = acc[c] / pivot;
  }
}

/// The group kernels by width: entry K-1 is the K-column instantiation.
using GroupSolve = void (*)(const Csr&, const real*, real*, std::size_t);
constexpr GroupSolve kForwardGroup[kMaxRhsGroup] = {
    forward_group<1>, forward_group<2>, forward_group<3>, forward_group<4>,
    forward_group<5>, forward_group<6>, forward_group<7>, forward_group<8>};
constexpr GroupSolve kBackwardGroup[kMaxRhsGroup] = {
    backward_group<1>, backward_group<2>, backward_group<3>, backward_group<4>,
    backward_group<5>, backward_group<6>, backward_group<7>, backward_group<8>};

}  // namespace

void forward_solve(const Csr& l, const DenseRhsBlock& b, DenseRhsBlock& y) {
  check_block_shapes(l.n_rows, b, y, "forward_solve");
  const std::size_t stride = static_cast<std::size_t>(l.n_rows);
  for (int c0 = 0; c0 < b.k; c0 += kMaxRhsGroup) {
    const std::size_t offset = static_cast<std::size_t>(c0) * stride;
    kForwardGroup[std::min(kMaxRhsGroup, b.k - c0) - 1](l, b.data.data() + offset,
                                                        y.data.data() + offset, stride);
  }
}

void backward_solve(const Csr& u, const DenseRhsBlock& y, DenseRhsBlock& x) {
  check_block_shapes(u.n_rows, y, x, "backward_solve");
  const std::size_t stride = static_cast<std::size_t>(u.n_rows);
  for (int c0 = 0; c0 < y.k; c0 += kMaxRhsGroup) {
    const std::size_t offset = static_cast<std::size_t>(c0) * stride;
    kBackwardGroup[std::min(kMaxRhsGroup, y.k - c0) - 1](u, y.data.data() + offset,
                                                         x.data.data() + offset, stride);
  }
}

void ilu_apply(const IluFactors& factors, const DenseRhsBlock& b, DenseRhsBlock& x) {
  // No n x k scratch: row i of the backward sweep reads Y's row i before
  // writing X's, and otherwise only rows already solved, so it runs in
  // place on the forward result.
  forward_solve(factors.l, b, x);
  backward_solve(factors.u, x, x);
}

}  // namespace ptilu
