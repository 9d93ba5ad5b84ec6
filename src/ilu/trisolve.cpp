#include "ptilu/ilu/trisolve.hpp"

#include <algorithm>

#include "ptilu/ilu/block_kernels.hpp"
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

void forward_solve(const BlockedFactors& f, std::span<const real> b, std::span<real> y) {
  PTILU_CHECK(b.size() == static_cast<std::size_t>(f.n) && y.size() == b.size(),
              "forward_solve size mismatch");
  real acc[64];  // panel accumulator; widths are capped far below this
  for (idx p = 0; p < f.n_panels(); ++p) {
    const idx r0 = f.panel_start[p];
    const int nb = f.width(p);
    PTILU_ASSERT(nb <= 64, "panel width exceeds the solve accumulator");
    for (int j = 0; j < nb; ++j) acc[j] = b[r0 + j];
    // External gather: acc -= tile(c) * y[c], the tile_axpy kernel again.
    const IdxVec& cols = f.lcols[p];
    const RealVec& vals = f.lvals[p];
    for (std::size_t k = 0; k < cols.size(); ++k) {
      tile_axpy_any(nb, acc, vals.data() + k * static_cast<std::size_t>(nb), y[cols[k]]);
    }
    // Intra-panel unit-lower substitution against the diagonal block.
    const real* diag = f.diag[p].data();
    for (int j = 0; j < nb; ++j) {
      real v = acc[j];
      for (int jp = 0; jp < j; ++jp) v -= diag[j * nb + jp] * acc[jp];
      acc[j] = v;
      y[r0 + j] = v;
    }
  }
}

void backward_solve(const BlockedFactors& f, std::span<const real> y, std::span<real> x) {
  PTILU_CHECK(y.size() == static_cast<std::size_t>(f.n) && x.size() == y.size(),
              "backward_solve size mismatch");
  real acc[64];
  for (idx p = f.n_panels() - 1; p >= 0; --p) {
    const idx r0 = f.panel_start[p];
    const int nb = f.width(p);
    PTILU_ASSERT(nb <= 64, "panel width exceeds the solve accumulator");
    for (int j = 0; j < nb; ++j) acc[j] = y[r0 + j];
    const IdxVec& cols = f.ucols[p];
    const RealVec& vals = f.uvals[p];
    for (std::size_t k = 0; k < cols.size(); ++k) {
      tile_axpy_any(nb, acc, vals.data() + k * static_cast<std::size_t>(nb), x[cols[k]]);
    }
    // Intra-panel back-substitution with the stored U diagonal block.
    const real* diag = f.diag[p].data();
    for (int j = nb - 1; j >= 0; --j) {
      real v = acc[j];
      for (int jj = j + 1; jj < nb; ++jj) v -= diag[j * nb + jj] * x[r0 + jj];
      x[r0 + j] = v / diag[j * nb + j];
    }
  }
}

void ilu_apply(const BlockedFactors& f, std::span<const real> b, std::span<real> x) {
  // In place like the scalar apply: each panel loads its y rows into the
  // accumulators before writing its x rows.
  forward_solve(f, b, x);
  backward_solve(f, x, x);
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

void forward_solve(const BlockedFactors& f, const DenseRhsBlock& b, DenseRhsBlock& y) {
  check_block_shapes(f.n, b, y, "forward_solve");
  const std::size_t stride = static_cast<std::size_t>(f.n);
  real acc[64 * kMaxRhsGroup];  // kc column-major nb-tiles; nb capped at 64
  for (int c0 = 0; c0 < b.k; c0 += kMaxRhsGroup) {
    const int kc = std::min(kMaxRhsGroup, b.k - c0);
    const real* bcol = b.data.data() + static_cast<std::size_t>(c0) * stride;
    real* ycol = y.data.data() + static_cast<std::size_t>(c0) * stride;
    for (idx p = 0; p < f.n_panels(); ++p) {
      const idx r0 = f.panel_start[p];
      const int nb = f.width(p);
      PTILU_ASSERT(nb <= 64, "panel width exceeds the solve accumulator");
      for (int c = 0; c < kc; ++c) {
        for (int j = 0; j < nb; ++j) {
          acc[c * nb + j] = bcol[c * stride + static_cast<std::size_t>(r0 + j)];
        }
      }
      const IdxVec& cols = f.lcols[p];
      const RealVec& vals = f.lvals[p];
      for (std::size_t k = 0; k < cols.size(); ++k) {
        tile_axpy_rhs_any(nb, kc, acc, vals.data() + k * static_cast<std::size_t>(nb),
                          ycol + cols[k], stride);
      }
      const real* diag = f.diag[p].data();
      for (int c = 0; c < kc; ++c) {
        real* a = acc + c * nb;
        for (int j = 0; j < nb; ++j) {
          real v = a[j];
          for (int jp = 0; jp < j; ++jp) v -= diag[j * nb + jp] * a[jp];
          a[j] = v;
          ycol[c * stride + static_cast<std::size_t>(r0 + j)] = v;
        }
      }
    }
  }
}

void backward_solve(const BlockedFactors& f, const DenseRhsBlock& y, DenseRhsBlock& x) {
  check_block_shapes(f.n, y, x, "backward_solve");
  const std::size_t stride = static_cast<std::size_t>(f.n);
  real acc[64 * kMaxRhsGroup];
  for (int c0 = 0; c0 < y.k; c0 += kMaxRhsGroup) {
    const int kc = std::min(kMaxRhsGroup, y.k - c0);
    const real* ycol = y.data.data() + static_cast<std::size_t>(c0) * stride;
    real* xcol = x.data.data() + static_cast<std::size_t>(c0) * stride;
    for (idx p = f.n_panels() - 1; p >= 0; --p) {
      const idx r0 = f.panel_start[p];
      const int nb = f.width(p);
      PTILU_ASSERT(nb <= 64, "panel width exceeds the solve accumulator");
      for (int c = 0; c < kc; ++c) {
        for (int j = 0; j < nb; ++j) {
          acc[c * nb + j] = ycol[c * stride + static_cast<std::size_t>(r0 + j)];
        }
      }
      const IdxVec& cols = f.ucols[p];
      const RealVec& vals = f.uvals[p];
      for (std::size_t k = 0; k < cols.size(); ++k) {
        tile_axpy_rhs_any(nb, kc, acc, vals.data() + k * static_cast<std::size_t>(nb),
                          xcol + cols[k], stride);
      }
      const real* diag = f.diag[p].data();
      for (int c = 0; c < kc; ++c) {
        real* a = acc + c * nb;
        real* xc = xcol + c * stride;
        for (int j = nb - 1; j >= 0; --j) {
          real v = a[j];
          for (int jj = j + 1; jj < nb; ++jj) {
            v -= diag[j * nb + jj] * xc[static_cast<std::size_t>(r0 + jj)];
          }
          xc[static_cast<std::size_t>(r0 + j)] = v / diag[j * nb + j];
        }
      }
    }
  }
}

void ilu_apply(const BlockedFactors& f, const DenseRhsBlock& b, DenseRhsBlock& x) {
  // In place like the scalar batched apply: each panel loads its Y rows
  // into the accumulators before writing its X rows.
  forward_solve(f, b, x);
  backward_solve(f, x, x);
}

}  // namespace ptilu
