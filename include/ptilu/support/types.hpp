// Fundamental scalar and index types used across the library.
#pragma once

#include <cstdint>
#include <vector>

namespace ptilu {

/// Row/column index type. 32-bit indices cover every problem in the paper
/// (largest system is ~2e5 unknowns) while halving index-array bandwidth,
/// which matters for sparse kernels.
using idx = std::int32_t;

/// Nonzero-count / offset type: row_ptr arrays may exceed 2^31 entries'
/// worth of nonzeros on very large problems, so offsets are 64-bit.
using nnz_t = std::int64_t;

/// Scalar type for all numerical values.
using real = double;

/// Convenience alias used throughout for index arrays.
using IdxVec = std::vector<idx>;
using RealVec = std::vector<real>;

}  // namespace ptilu

/// No-alias qualifier for the hot triangular-solve loops: the factor arrays
/// and the accumulators they update never overlap, and telling the
/// compiler so is what lets it emit straight vector code instead of
/// overlap-checked loops.
#if defined(__GNUC__) || defined(__clang__)
#define PTILU_RESTRICT __restrict__
#else
#define PTILU_RESTRICT
#endif
