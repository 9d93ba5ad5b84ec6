// Preconditioner interface and the simple instances (identity, Jacobi,
// serial ILU). The PILUT preconditioner lives in ptilu/pilut.
#pragma once

#include <memory>
#include <span>

#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// Applies x = M^{-1} b for some preconditioner M.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const real> b, std::span<real> x) const = 0;
};

/// M = I.
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const real> b, std::span<real> x) const override;
};

/// M = diag(A) — the "Diagonal" baseline row of the paper's Table 3.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const Csr& a);
  void apply(std::span<const real> b, std::span<real> x) const override;

 private:
  RealVec inv_diag_;
};

/// M = L·U from an incomplete factorization, optionally computed on the
/// symmetrically permuted matrix P A P^T (new_of = the permutation), as the
/// parallel ILUT factorization produces.
class IluPreconditioner final : public Preconditioner {
 public:
  explicit IluPreconditioner(IluFactors factors, IdxVec new_of = {});
  void apply(std::span<const real> b, std::span<real> x) const override;

  const IluFactors& factors() const { return factors_; }
  /// The permutation the factors were computed under (empty = natural
  /// order). The serving layer batches applies only for natural-order
  /// factors, so it needs to see this.
  const IdxVec& permutation() const { return new_of_; }

 private:
  IluFactors factors_;
  IdxVec new_of_;
};

}  // namespace ptilu
