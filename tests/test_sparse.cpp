// Unit tests for the sparse module: COO→CSR, transpose, permutation,
// symmetrization, SpMV, dense LU reference, Matrix Market I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "ptilu/sparse/csr.hpp"
#include "ptilu/sparse/dense.hpp"
#include "ptilu/sparse/mm_io.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/rng.hpp"

namespace ptilu {
namespace {

Csr small_example() {
  // [ 4 -1  0 ]
  // [-1  4 -1 ]
  // [ 0 -2  5 ]
  CooBuilder b(3, 3);
  b.add(0, 0, 4);
  b.add(0, 1, -1);
  b.add(1, 0, -1);
  b.add(1, 1, 4);
  b.add(1, 2, -1);
  b.add(2, 1, -2);
  b.add(2, 2, 5);
  return b.to_csr();
}

Csr random_matrix(idx n, idx per_row, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder b(n, n);
  for (idx i = 0; i < n; ++i) {
    b.add(i, i, 10.0 + rng.next_double());
    for (idx k = 0; k < per_row; ++k) {
      b.add(i, rng.next_index(n), rng.uniform(-1.0, 1.0));
    }
  }
  return b.to_csr();
}

TEST(Coo, BuildsSortedCsr) {
  const Csr a = small_example();
  a.validate();
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), -2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
}

TEST(Coo, SumsDuplicates) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 1, 1.0);
  const Csr a = b.to_csr();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
}

TEST(Coo, HandlesEmptyRows) {
  CooBuilder b(4, 4);
  b.add(0, 0, 1.0);
  b.add(3, 3, 2.0);
  const Csr a = b.to_csr();
  a.validate();
  EXPECT_EQ(a.row_nnz(1), 0);
  EXPECT_EQ(a.row_nnz(2), 0);
  EXPECT_DOUBLE_EQ(a.at(3, 3), 2.0);
}

TEST(Coo, UnsortedInputOrder) {
  CooBuilder b(3, 3);
  b.add(2, 2, 9);
  b.add(0, 1, 2);
  b.add(0, 0, 1);
  b.add(1, 1, 5);
  const Csr a = b.to_csr();
  a.validate();
  EXPECT_TRUE(a.has_sorted_rows());
  EXPECT_DOUBLE_EQ(a.at(0, 1), 2.0);
}

TEST(Csr, ValidateCatchesUnsorted) {
  Csr a(2, 2);
  a.row_ptr = {0, 2, 2};
  a.col_idx = {1, 0};
  a.values = {1.0, 2.0};
  EXPECT_THROW(a.validate(), Error);
}

TEST(Csr, ValidateCatchesOutOfRange) {
  Csr a(2, 2);
  a.row_ptr = {0, 1, 1};
  a.col_idx = {5};
  a.values = {1.0};
  EXPECT_THROW(a.validate(), Error);
}

TEST(Transpose, RoundTrips) {
  const Csr a = random_matrix(50, 4, 99);
  const Csr tt = transpose(transpose(a));
  EXPECT_TRUE(equal(a, tt));
}

TEST(Transpose, MovesEntries) {
  const Csr a = small_example();
  const Csr t = transpose(a);
  t.validate();
  EXPECT_DOUBLE_EQ(t.at(1, 2), -2.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), -1.0);
}

TEST(Transpose, RectangularShape) {
  CooBuilder b(2, 4);
  b.add(0, 3, 7.0);
  b.add(1, 0, -2.0);
  const Csr t = transpose(b.to_csr());
  EXPECT_EQ(t.n_rows, 4);
  EXPECT_EQ(t.n_cols, 2);
  EXPECT_DOUBLE_EQ(t.at(3, 0), 7.0);
}

TEST(Permute, IdentityIsNoop) {
  const Csr a = random_matrix(30, 3, 5);
  IdxVec id(30);
  for (idx i = 0; i < 30; ++i) id[i] = i;
  EXPECT_TRUE(equal(a, permute_symmetric(a, id)));
}

TEST(Permute, ReversalMapsCorners) {
  const Csr a = small_example();
  IdxVec rev = {2, 1, 0};
  const Csr p = permute_symmetric(a, rev);
  p.validate();
  // a(0,1) should appear at (2,1).
  EXPECT_DOUBLE_EQ(p.at(2, 1), a.at(0, 1));
  EXPECT_DOUBLE_EQ(p.at(0, 0), a.at(2, 2));
}

TEST(Permute, PreservesSpmv) {
  const idx n = 64;
  const Csr a = random_matrix(n, 5, 17);
  Rng rng(3);
  IdxVec perm(n);
  for (idx i = 0; i < n; ++i) perm[i] = i;
  for (idx i = n - 1; i > 0; --i) std::swap(perm[i], perm[rng.next_index(i + 1)]);

  const Csr p = permute_symmetric(a, perm);
  RealVec x(n), px(n);
  for (idx i = 0; i < n; ++i) x[i] = rng.uniform(-1, 1);
  for (idx i = 0; i < n; ++i) px[perm[i]] = x[i];

  RealVec y(n), py(n);
  spmv(a, x, y);
  spmv(p, px, py);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(py[perm[i]], y[i], 1e-13);
}

TEST(Permute, RejectsBadPermutation) {
  const Csr a = small_example();
  EXPECT_THROW(permute_symmetric(a, {0, 0, 1}), Error);
  EXPECT_THROW(permute_symmetric(a, {0, 1}), Error);
}

TEST(PermutationHelpers, InvertRoundTrips) {
  IdxVec p = {3, 1, 0, 2};
  EXPECT_TRUE(is_permutation(p, 4));
  const IdxVec inv = invert_permutation(p);
  for (idx i = 0; i < 4; ++i) EXPECT_EQ(inv[p[i]], i);
}

TEST(Symmetrize, AddsMissingEntries) {
  const Csr a = small_example();
  const Csr s = symmetrize_pattern(a);
  s.validate();
  // a(2,1) exists but a(1,2) also exists; a(0,2)/(2,0) absent in both.
  EXPECT_EQ(s.nnz(), 7);
  // Introduce an asymmetric entry.
  CooBuilder b(3, 3);
  b.add(0, 2, 1.0);
  b.add(1, 1, 2.0);
  const Csr s2 = symmetrize_pattern(b.to_csr());
  EXPECT_EQ(s2.nnz(), 3);
  EXPECT_DOUBLE_EQ(s2.at(2, 0), 0.0);  // structural zero added
  EXPECT_EQ(s2.row_nnz(2), 1);
}

TEST(Diagonal, ExtractsWithZeros) {
  CooBuilder b(3, 3);
  b.add(0, 0, 4.0);
  b.add(1, 2, 1.0);
  const RealVec d = diagonal(b.to_csr());
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 0.0);
}

TEST(RowNorms, AllThreeNorms) {
  const Csr a = small_example();
  const RealVec n1 = row_norms(a, 1);
  const RealVec n2 = row_norms(a, 2);
  const RealVec ninf = row_norms(a, 0);
  EXPECT_DOUBLE_EQ(n1[1], 6.0);
  EXPECT_DOUBLE_EQ(n2[1], std::sqrt(1.0 + 16.0 + 1.0));
  EXPECT_DOUBLE_EQ(ninf[2], 5.0);
}

TEST(MaxAbsDiff, SeesPatternDifferences) {
  const Csr a = small_example();
  CooBuilder b(3, 3);
  b.add(0, 0, 4.0);
  const Csr c = b.to_csr();
  EXPECT_DOUBLE_EQ(max_abs_diff(a, a), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, c), 5.0);  // the (2,2)=5 entry is missing in c
}

TEST(Spmv, MatchesDense) {
  const Csr a = random_matrix(40, 6, 21);
  const Dense d = Dense::from_csr(a);
  Rng rng(2);
  RealVec x(40);
  for (auto& v : x) v = rng.uniform(-2, 2);
  RealVec y(40);
  spmv(a, x, y);
  const RealVec yd = dense_matvec(d, x);
  for (idx i = 0; i < 40; ++i) EXPECT_NEAR(y[i], yd[i], 1e-12);
}

TEST(Spmv, AlphaBetaForm) {
  const Csr a = small_example();
  RealVec x = {1, 2, 3};
  RealVec y = {10, 20, 30};
  spmv(2.0, a, x, 0.5, y);
  // A x = [2, 4, 11]
  EXPECT_DOUBLE_EQ(y[0], 2 * 2 + 5.0);
  EXPECT_DOUBLE_EQ(y[1], 2 * 4 + 10.0);
  EXPECT_DOUBLE_EQ(y[2], 2 * 11 + 15.0);
}

TEST(Spmv, ResidualIsZeroAtSolution) {
  const Csr a = small_example();
  const Dense d0 = Dense::from_csr(a);
  Dense lu = d0;
  dense_lu_nopivot(lu);
  const RealVec b = {1.0, 2.0, 3.0};
  const RealVec x = dense_lu_solve(lu, b);
  RealVec r(3);
  residual(a, x, b, r);
  EXPECT_LT(norm_inf(r), 1e-12);
}

TEST(DenseLu, ReconstructsMatrix) {
  const Csr a = random_matrix(20, 4, 33);
  Dense lu = Dense::from_csr(a);
  dense_lu_nopivot(lu);
  // Rebuild A = L*U and compare.
  const idx n = 20;
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      real acc = 0.0;
      for (idx k = 0; k <= std::min(i, j); ++k) {
        const real lik = (k == i) ? 1.0 : lu(i, k);
        const real ukj = (k <= j) ? lu(k, j) : 0.0;
        acc += lik * ukj;
      }
      EXPECT_NEAR(acc, Dense::from_csr(a)(i, j), 1e-9) << "(" << i << "," << j << ")";
    }
  }
}

TEST(DenseLu, ThrowsOnZeroPivot) {
  Dense a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  EXPECT_THROW(dense_lu_nopivot(a), Error);
}

TEST(VectorOps, Basics) {
  RealVec x = {1, 2, 3};
  RealVec y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(norm2(RealVec{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(RealVec{-7, 2}), 7.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  scal(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(MatrixMarket, RoundTripsGeneral) {
  const Csr a = random_matrix(25, 4, 55);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const Csr b = read_matrix_market(ss);
  EXPECT_EQ(a.n_rows, b.n_rows);
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_LT(max_abs_diff(a, b), 1e-15);
}

TEST(MatrixMarket, ReadsSymmetric) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "3 3 3\n"
     << "1 1 2.0\n"
     << "2 1 -1.0\n"
     << "3 3 4.0\n";
  const Csr a = read_matrix_market(ss);
  EXPECT_EQ(a.nnz(), 4);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
}

TEST(MatrixMarket, ReadsPattern) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 2\n"
     << "1 2\n"
     << "2 1\n";
  const Csr a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a matrix market file\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(MatrixMarket, RejectsOutOfRangeEntry) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "2 2 1\n"
     << "3 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

// The reader's message for a hostile stream ("" when it parses).
std::string matrix_market_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_matrix_market(ss);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(MatrixMarket, RejectsRowCountBeyondIndexType) {
  const std::string what = matrix_market_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "3000000000 2 1\n"
      "1 1 1.0\n");
  EXPECT_NE(what.find("exceed the index type"), std::string::npos) << what;
}

TEST(MatrixMarket, RejectsColumnCountBeyondIndexType) {
  const std::string what = matrix_market_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2147483648 1\n"
      "1 1 1.0\n");
  EXPECT_NE(what.find("exceed the index type"), std::string::npos) << what;
}

TEST(MatrixMarket, HugeEntryCountWithShortBodyIsTruncated) {
  // A symmetric header doubles the reservation the count would ask for.
  const std::string what = matrix_market_error(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "4 4 4000000000000000000\n"
      "1 1 1.0\n"
      "2 1 0.5\n");
  EXPECT_NE(what.find("truncated entry 2"), std::string::npos) << what;
}

/// The reader's message for a one-entry 2x2 real general file whose entry
/// line is `entry`.
std::string one_entry_error(const std::string& entry) {
  return matrix_market_error("%%MatrixMarket matrix coordinate real general\n2 2 1\n" +
                             entry + "\n");
}

TEST(MatrixMarket, RejectsNonFiniteValuesByEntry) {
  for (const std::string token : {"nan", "inf", "-inf", "NaN", "infinity"}) {
    const std::string what = one_entry_error("1 2 " + token);
    EXPECT_NE(what.find("non-finite value '" + token + "' in entry 0 (1,2)"),
              std::string::npos)
        << what;
  }
}

TEST(MatrixMarket, RejectsOutOfRangeValuesByEntry) {
  for (const std::string token : {"1e999", "-1e999", "1e-400"}) {
    const std::string what = one_entry_error("2 1 " + token);
    EXPECT_NE(what.find("value '" + token + "' of entry 0 (2,1) is out of the range"),
              std::string::npos)
        << what;
  }
}

TEST(MatrixMarket, RejectsUnparseableValuesByEntry) {
  for (const std::string token : {"0x1p3", "1.5abc", "--1", "+-1", "abc"}) {
    const std::string what = one_entry_error("1 1 " + token);
    EXPECT_NE(what.find("unparseable value '" + token + "' in entry 0 (1,1)"),
              std::string::npos)
        << what;
  }
}

TEST(MatrixMarket, AcceptsSignedAndSubnormalValues) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n2 2 3\n"
                       "1 1 +1.5\n2 2 -.5e1\n1 2 4.9406564584124654e-324\n");
  const Csr a = read_matrix_market(ss);
  EXPECT_EQ(a.at(0, 0), 1.5);
  EXPECT_EQ(a.at(1, 1), -5.0);
  EXPECT_GT(a.at(0, 1), 0.0);
}

TEST(MatrixMarket, RejectsDuplicatesThatAssembleToInfinity) {
  const std::string what = matrix_market_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1e308\n"
      "2 2 1.0\n"
      "1 1 1e308\n");
  EXPECT_NE(what.find("entry (1,1) assembles to the non-finite value"), std::string::npos)
      << what;
}

}  // namespace
}  // namespace ptilu
