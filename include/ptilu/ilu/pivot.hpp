// The safeguarded pivot substitution shared by every factorization driver
// (serial ILUT/ILU(k), simulated-parallel PILUT/PILU0/nested).
//
// A threshold factorization can drive a diagonal entry arbitrarily close to
// zero (dropping removes exactly the mass that kept it away), and the next
// row then divides by it: an exactly-zero pivot used to throw, but a
// *near*-zero one silently produced an overflowing multiplier that poisoned
// the factors with inf/nan. The guard replaces both cases with the paper's
// safeguarded substitution — a sign-preserving floor at a relative epsilon
// (floor_abs = pivot_rel * ||a_i||) — and every substitution is counted, so
// the per-rank fill/drop registry can report where the matrix fought back.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "ptilu/support/check.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// Return the pivot to divide by for row `row` whose computed diagonal is
/// `diag`, with the guard floor `floor_abs` (0 = guard disabled).
///
///  * Guard enabled (floor_abs > 0): a pivot with |diag| < floor_abs is
///    replaced by the floor, keeping its sign (+floor for an exact zero),
///    and `guarded` is incremented.
///  * Guard disabled (floor_abs == 0): an exactly-zero pivot throws, as
///    before — and so does a *subnormal* one, whose reciprocal overflows to
///    inf and used to corrupt the factors without any diagnostic. Normal
///    pivots pass through untouched, so disabling the guard still yields
///    bit-identical factors on every well-pivoted matrix.
inline real safeguard_pivot(idx row, real diag, real floor_abs, std::uint64_t& guarded) {
  if (floor_abs > 0.0) {
    if (std::abs(diag) >= floor_abs) return diag;
    ++guarded;
    return diag == 0.0 ? floor_abs : std::copysign(floor_abs, diag);
  }
  PTILU_CHECK(std::abs(diag) >= std::numeric_limits<real>::min(),
              "zero or subnormal pivot " << diag << " at row " << row
                                         << " (enable pivot_rel to guard)");
  return diag;
}

}  // namespace ptilu
