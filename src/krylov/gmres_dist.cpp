#include "ptilu/krylov/gmres_dist.hpp"

#include <cmath>

#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

/// Rank-local helpers over the owned-row decomposition. Each runs inside a
/// machine.step, charging the owning rank's share of the flops; dots end
/// with a (host-side) reduction whose synchronization cost is the step's
/// barrier — exactly an allreduce.
class DistBlas {
 public:
  DistBlas(sim::Machine& machine, const DistCsr& dist)
      : machine_(&machine), dist_(&dist) {}

  real dot(const RealVec& x, const RealVec& y) const {
    // Each rank writes its own slot; the host-side combine below runs in
    // rank order, so the floating-point sum is bit-identical no matter in
    // which order (or how concurrently) the rank bodies executed.
    partials_.assign(static_cast<std::size_t>(machine_->nranks()), 0.0);
    machine_->step([&](sim::RankContext& ctx) {
      real partial = 0.0;
      for (const idx i : dist_->owned_rows[ctx.rank()]) partial += x[i] * y[i];
      ctx.charge_flops(2 * dist_->owned_rows[ctx.rank()].size());
      ctx.declare_collective(sim::CollectiveOp::kSum, sizeof(real), "gmres/dot");
      partials_[static_cast<std::size_t>(ctx.rank())] = partial;
    }, "gmres/dot");
    real total = 0.0;
    for (const real p : partials_) total += p;
    return total;
  }

  /// y += alpha x (no synchronization needed beyond the step barrier).
  void axpy(real alpha, const RealVec& x, RealVec& y) const {
    machine_->step([&](sim::RankContext& ctx) {
      for (const idx i : dist_->owned_rows[ctx.rank()]) y[i] += alpha * x[i];
      ctx.charge_flops(2 * dist_->owned_rows[ctx.rank()].size());
    }, "gmres/axpy");
  }

  void scale_into(real alpha, const RealVec& x, RealVec& out) const {
    machine_->step([&](sim::RankContext& ctx) {
      for (const idx i : dist_->owned_rows[ctx.rank()]) out[i] = alpha * x[i];
      ctx.charge_flops(dist_->owned_rows[ctx.rank()].size());
    }, "gmres/scale");
  }

  real norm2(const RealVec& x) const { return std::sqrt(dot(x, x)); }

 private:
  sim::Machine* machine_;
  const DistCsr* dist_;
  mutable RealVec partials_;  // per-rank dot partials, combined in rank order
};

}  // namespace

GmresResult gmres_dist(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
                       const PilutResult& factorization, std::span<const real> b,
                       std::span<real> x, const GmresOptions& opts) {
  // The solver build is host-side setup with no machine interaction, so
  // delegating through the shared-solver overload is bit-identical to the
  // historical inline construction.
  const DistTriangularSolver solver(factorization.factors, factorization.schedule);
  return gmres_dist(machine, dist, halo, solver, b, x, opts);
}

GmresResult gmres_dist(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
                       const DistTriangularSolver& solver, std::span<const real> b,
                       std::span<real> x, const GmresOptions& opts) {
  const idx n = dist.n();
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  PTILU_CHECK(b.size() == static_cast<std::size_t>(n) && x.size() == b.size(),
              "gmres_dist vector size mismatch");
  PTILU_CHECK(opts.restart >= 1 && opts.rtol > 0.0, "invalid GMRES options");
  PTILU_CHECK(solver.schedule().newnum.size() == static_cast<std::size_t>(n),
              "solver/matrix size mismatch");
  machine.reset();

  const IdxVec& newnum = solver.schedule().newnum;
  const DistBlas blas(machine, dist);
  const int krylov = opts.restart;
  sim::ScopedPhase solve_phase(machine, "gmres");

  GmresResult result;
  RealVec ax(n), residual_vec(n), r(n);
  RealVec permuted(n), solved(n);

  // r = M^{-1}(b - A x): parallel SpMV, rank-local subtraction, then the
  // parallel triangular solves through the factorization's ordering (the
  // scatter into/out of the new numbering is rank-local copy work).
  const auto compute_residual = [&]() {
    sim::ScopedPhase span(machine, "residual");
    dist_spmv(machine, dist, halo, x, ax);
    machine.step([&](sim::RankContext& ctx) {
      const int rank = ctx.rank();
      for (const idx i : dist.owned_rows[rank]) {
        residual_vec[i] = b[i] - ax[i];
        permuted[newnum[i]] = residual_vec[i];
      }
      ctx.charge_flops(dist.owned_rows[rank].size());
      ctx.charge_mem(dist.owned_rows[rank].size() * sizeof(real));
    }, "gmres/residual/scatter");
    solver.apply(machine, permuted, solved);
    machine.step([&](sim::RankContext& ctx) {
      for (const idx i : dist.owned_rows[ctx.rank()]) r[i] = solved[newnum[i]];
      ctx.charge_mem(dist.owned_rows[ctx.rank()].size() * sizeof(real));
    }, "gmres/residual/gather");
  };

  compute_residual();
  real beta = blas.norm2(r);
  result.initial_residual = beta;
  result.final_residual = beta;
  if (beta == 0.0) {
    result.converged = true;
    return result;
  }
  const real target = opts.rtol * beta;

  std::vector<RealVec> v(krylov + 1, RealVec(n, 0.0));
  std::vector<RealVec> h(krylov + 1, RealVec(krylov, 0.0));
  RealVec cs(krylov, 0.0), sn(krylov, 0.0), g(krylov + 1, 0.0);

  while (result.matvecs < opts.max_matvecs) {
    compute_residual();
    beta = blas.norm2(r);
    result.final_residual = beta;
    if (beta <= target) {
      result.converged = true;
      break;
    }
    blas.scale_into(1.0 / beta, r, v[0]);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int steps = 0;
    for (int j = 0; j < krylov && result.matvecs < opts.max_matvecs; ++j) {
      // w = M^{-1} A v_j, all on the machine.
      dist_spmv(machine, dist, halo, v[j], ax);
      ++result.matvecs;
      RealVec& w = v[j + 1];
      {
        sim::ScopedPhase span(machine, "precond");
        machine.step([&](sim::RankContext& ctx) {
          for (const idx i : dist.owned_rows[ctx.rank()]) permuted[newnum[i]] = ax[i];
          ctx.charge_mem(dist.owned_rows[ctx.rank()].size() * sizeof(real));
        }, "gmres/precond/scatter");
        solver.apply(machine, permuted, solved);
        machine.step([&](sim::RankContext& ctx) {
          for (const idx i : dist.owned_rows[ctx.rank()]) w[i] = solved[newnum[i]];
          ctx.charge_mem(dist.owned_rows[ctx.rank()].size() * sizeof(real));
        }, "gmres/precond/gather");
      }

      // Modified Gram-Schmidt: each projection is one allreduce (the dot)
      // plus rank-local update work.
      real hnext = 0.0;
      {
        sim::ScopedPhase span(machine, "orthog");
        for (int i = 0; i <= j; ++i) {
          const real hij = blas.dot(w, v[i]);
          h[i][j] = hij;
          blas.axpy(-hij, v[i], w);
        }
        hnext = blas.norm2(w);
        h[j + 1][j] = hnext;
        if (hnext > 0.0) blas.scale_into(1.0 / hnext, w, w);
      }

      // Givens rotations are O(restart) scalar work, replicated on every
      // rank in a real implementation — negligible, uncharged.
      for (int i = 0; i < j; ++i) {
        const real temp = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
        h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
        h[i][j] = temp;
      }
      const real denom = std::hypot(h[j][j], h[j + 1][j]);
      if (denom == 0.0) {
        cs[j] = 1.0;
        sn[j] = 0.0;
      } else {
        cs[j] = h[j][j] / denom;
        sn[j] = h[j + 1][j] / denom;
      }
      h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
      h[j + 1][j] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];

      steps = j + 1;
      const real rho = std::abs(g[j + 1]);
      result.residual_history.push_back(rho);
      result.final_residual = rho;
      if (rho <= target || hnext == 0.0) break;
    }

    RealVec y(steps, 0.0);
    for (int i = steps - 1; i >= 0; --i) {
      real acc = g[i];
      for (int k = i + 1; k < steps; ++k) acc -= h[i][k] * y[k];
      PTILU_CHECK(h[i][i] != 0.0, "GMRES Hessenberg breakdown at step " << i);
      y[i] = acc / h[i][i];
    }
    // x update: one batched rank-local pass over the basis.
    {
      sim::ScopedPhase span(machine, "update");
      machine.step([&](sim::RankContext& ctx) {
        const int rank = ctx.rank();
        for (const idx i : dist.owned_rows[rank]) {
          real acc = x[i];
          for (int k = 0; k < steps; ++k) acc += y[k] * v[k][i];
          x[i] = acc;
        }
        ctx.charge_flops(2 * dist.owned_rows[rank].size() * static_cast<std::uint64_t>(steps));
      }, "gmres/update");
    }
    ++result.restarts;

    if (result.final_residual <= target) {
      compute_residual();
      result.final_residual = blas.norm2(r);
      if (result.final_residual <= target) {
        result.converged = true;
        break;
      }
    }
  }
  machine.check_quiescent("gmres/end");
  return result;
}

}  // namespace ptilu
