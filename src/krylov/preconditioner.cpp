#include "ptilu/krylov/preconditioner.hpp"

#include <algorithm>

#include "ptilu/support/check.hpp"

namespace ptilu {

void IdentityPreconditioner::apply(std::span<const real> b, std::span<real> x) const {
  PTILU_CHECK(b.size() == x.size(), "size mismatch");
  std::copy(b.begin(), b.end(), x.begin());
}

JacobiPreconditioner::JacobiPreconditioner(const Csr& a) : inv_diag_(diagonal(a)) {
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) {
    PTILU_CHECK(inv_diag_[i] != 0.0, "Jacobi preconditioner: zero diagonal at row " << i);
    inv_diag_[i] = 1.0 / inv_diag_[i];
  }
}

void JacobiPreconditioner::apply(std::span<const real> b, std::span<real> x) const {
  PTILU_CHECK(b.size() == inv_diag_.size() && x.size() == b.size(), "size mismatch");
  for (std::size_t i = 0; i < b.size(); ++i) x[i] = b[i] * inv_diag_[i];
}

IluPreconditioner::IluPreconditioner(IluFactors factors, IdxVec new_of)
    : factors_(std::move(factors)), new_of_(std::move(new_of)) {
  if (!new_of_.empty()) {
    PTILU_CHECK(is_permutation(new_of_, factors_.n()),
                "IluPreconditioner: new_of is not a permutation");
  }
}

void IluPreconditioner::apply(std::span<const real> b, std::span<real> x) const {
  if (new_of_.empty()) {
    ilu_apply(factors_, b, x);
  } else {
    ilu_apply_permuted(factors_, new_of_, b, x);
  }
}

}  // namespace ptilu
