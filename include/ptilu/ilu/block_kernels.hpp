// Register-blocked dense tile micro-kernels for the supernodal ILUT path.
//
// A panel of nb consecutive rows stores each factor column as a contiguous
// nb-wide tile, so the two inner loops that dominate factorization and
// triangular solves — "subtract multiplier times a U entry from the working
// row" and "subtract a factor column times a solution entry from the
// accumulator" — become the same operation: w[j] -= m[j] * s for j < nb.
// The kernel is instantiated at the fixed widths the panel detector emits
// (1, 2, 4, 8), each a straight-line loop with a compile-time trip count
// over contiguous doubles, which the compiler auto-vectorizes; the runtime
// dispatch below selects the instantiation once per call site. The generic
// runtime-width fallback keeps arbitrary widths correct (it is never hit by
// panels from detect_panels, which only produces power-of-two widths).
// Throughput of each width is pinned by micro_kernels.cpp. See DESIGN.md §13.
#pragma once

#include "ptilu/support/types.hpp"

namespace ptilu {

/// w[j] -= m[j] * s for j in [0, NB) — the fused update both the blocked
/// working-row elimination and the blocked trisolves reduce to.
template <int NB>
inline void tile_axpy(real* PTILU_RESTRICT w, const real* PTILU_RESTRICT m, real s) {
  for (int j = 0; j < NB; ++j) w[j] -= m[j] * s;
}

/// Runtime-width dispatch to the fixed-width instantiations.
inline void tile_axpy_any(int nb, real* PTILU_RESTRICT w, const real* PTILU_RESTRICT m,
                          real s) {
  switch (nb) {
    case 8: tile_axpy<8>(w, m, s); return;
    case 4: tile_axpy<4>(w, m, s); return;
    case 2: tile_axpy<2>(w, m, s); return;
    case 1: tile_axpy<1>(w, m, s); return;
    default:
      for (int j = 0; j < nb; ++j) w[j] -= m[j] * s;
  }
}

/// Forward-substitute one nb-wide column tile against the unit-lower part
/// of a panel's dense diagonal block: t[j] -= D[j][jp] * t[jp] for jp < j.
/// `diag` is the row-major nb x nb diagonal block (strict lower = the
/// intra-panel multipliers). Triangular, so the trip count shrinks with jp;
/// still contiguous in j for each jp.
template <int NB>
inline void tile_trsv_lower(real* PTILU_RESTRICT t, const real* PTILU_RESTRICT diag) {
  for (int jp = 0; jp < NB - 1; ++jp) {
    const real s = t[jp];
    if (s == 0.0) continue;
    for (int j = jp + 1; j < NB; ++j) t[j] -= diag[j * NB + jp] * s;
  }
}

inline void tile_trsv_lower_any(int nb, real* PTILU_RESTRICT t,
                                const real* PTILU_RESTRICT diag) {
  switch (nb) {
    case 8: tile_trsv_lower<8>(t, diag); return;
    case 4: tile_trsv_lower<4>(t, diag); return;
    case 2: tile_trsv_lower<2>(t, diag); return;
    case 1: return;  // width-1 diagonal block has no strict lower part
    default:
      for (int jp = 0; jp < nb - 1; ++jp) {
        const real s = t[jp];
        if (s == 0.0) continue;
        for (int j = jp + 1; j < nb; ++j) t[j] -= diag[j * nb + jp] * s;
      }
  }
}

/// Squared Frobenius norm of an nb-wide tile — the block dropping criterion.
inline real tile_frob2(int nb, const real* t) {
  real acc = 0.0;
  for (int j = 0; j < nb; ++j) acc += t[j] * t[j];
  return acc;
}

// ---- Multi-RHS (nb x k) variants --------------------------------------
//
// The batched triangular solves (trisolve.hpp, DenseRhsBlock) carry k
// independent right-hand sides through one sweep over the factor. Per
// nonzero the single-RHS kernels above do one fused multiply-subtract; the
// multi-RHS kernels do k of them against k solution columns, which breaks
// the FMA latency chain (the k accumulators are independent) and reuses
// the just-loaded factor entry k times. Column c's arithmetic is exactly
// the single-RHS order — batching only interleaves independent columns —
// so batched results are bit-identical column-for-column (scalar path;
// held by tests/test_serve.cpp).
//
// `s` points at row entries of a column-major n x k block: the value for
// column c is s[c * s_stride] (s_stride = the block's row count n).

/// acc[c] -= a * s[c * s_stride] for c in [0, K) — one CSR entry against K
/// solution columns, the inner kernel of the distributed sweeps, single- and
/// multi-RHS (the serial CSR solves inline it in their fixed-K row loops).
template <int K>
inline void rhs_axpy(real* PTILU_RESTRICT acc, real a, const real* PTILU_RESTRICT s,
                     std::size_t s_stride) {
  for (int c = 0; c < K; ++c) acc[c] -= a * s[c * s_stride];
}

/// The nb x k tile kernel: subtract an nb-wide factor-column tile times K
/// solution entries from K panel accumulators. `acc` holds K column-major
/// nb-tiles (column c's tile at acc[c*NB .. c*NB+NB)); `m` is the tile.
template <int NB, int K>
inline void tile_axpy_rhs(real* PTILU_RESTRICT acc, const real* PTILU_RESTRICT m,
                          const real* PTILU_RESTRICT s, std::size_t s_stride) {
  for (int c = 0; c < K; ++c) {
    const real sc = s[c * s_stride];
    for (int j = 0; j < NB; ++j) acc[c * NB + j] -= m[j] * sc;
  }
}

namespace detail {
template <int NB>
inline void tile_axpy_rhs_k(int k, real* PTILU_RESTRICT acc,
                            const real* PTILU_RESTRICT m,
                            const real* PTILU_RESTRICT s, std::size_t s_stride) {
  switch (k) {
    case 8: tile_axpy_rhs<NB, 8>(acc, m, s, s_stride); return;
    case 7: tile_axpy_rhs<NB, 7>(acc, m, s, s_stride); return;
    case 6: tile_axpy_rhs<NB, 6>(acc, m, s, s_stride); return;
    case 5: tile_axpy_rhs<NB, 5>(acc, m, s, s_stride); return;
    case 4: tile_axpy_rhs<NB, 4>(acc, m, s, s_stride); return;
    case 3: tile_axpy_rhs<NB, 3>(acc, m, s, s_stride); return;
    case 2: tile_axpy_rhs<NB, 2>(acc, m, s, s_stride); return;
    case 1: tile_axpy_rhs<NB, 1>(acc, m, s, s_stride); return;
    default:
      for (int c = 0; c < k; ++c) {
        const real sc = s[c * s_stride];
        for (int j = 0; j < NB; ++j) acc[c * NB + j] -= m[j] * sc;
      }
  }
}
}  // namespace detail

/// Runtime (nb, k) dispatch to the fixed-size nb x k instantiations. On the
/// hot paths nb comes from {1, 2, 4, 8} (panel widths from detect_panels)
/// and k from 1..8 (the batched solves' groups of min(8, remaining)
/// columns); the generic fallback keeps arbitrary sizes correct.
inline void tile_axpy_rhs_any(int nb, int k, real* PTILU_RESTRICT acc,
                              const real* PTILU_RESTRICT m,
                              const real* PTILU_RESTRICT s, std::size_t s_stride) {
  switch (nb) {
    case 8: detail::tile_axpy_rhs_k<8>(k, acc, m, s, s_stride); return;
    case 4: detail::tile_axpy_rhs_k<4>(k, acc, m, s, s_stride); return;
    case 2: detail::tile_axpy_rhs_k<2>(k, acc, m, s, s_stride); return;
    case 1: detail::tile_axpy_rhs_k<1>(k, acc, m, s, s_stride); return;
    default:
      for (int c = 0; c < k; ++c) {
        const real sc = s[c * s_stride];
        for (int j = 0; j < nb; ++j) acc[c * nb + j] -= m[j] * sc;
      }
  }
}

}  // namespace ptilu
