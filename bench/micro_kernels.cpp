// google-benchmark micro-kernels for the library's hot paths: SpMV, serial
// triangular solves, the ILUT row kernel (whole-matrix factorizations at
// several sizes), selection/dropping, Luby MIS rounds, and partitioning.
#include <benchmark/benchmark.h>

#include "ptilu/graph/graph.hpp"
#include "ptilu/graph/mis.hpp"
#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

Csr grid_matrix(idx side) { return workloads::convection_diffusion_2d(side, side, 8.0, 4.0); }

void BM_Spmv(benchmark::State& state) {
  const Csr a = grid_matrix(static_cast<idx>(state.range(0)));
  const RealVec x = workloads::random_vector(a.n_rows, 1);
  RealVec y(a.n_rows);
  for (auto _ : state) {
    spmv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv)->Arg(64)->Arg(128)->Arg(256);

void BM_IlutFactor(benchmark::State& state) {
  const Csr a = grid_matrix(static_cast<idx>(state.range(0)));
  const idx m = static_cast<idx>(state.range(1));
  for (auto _ : state) {
    const IluFactors f = ilut(a, {.m = m, .tau = 1e-4});
    benchmark::DoNotOptimize(f.l.nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.n_rows);
}
BENCHMARK(BM_IlutFactor)->Args({64, 5})->Args({64, 20})->Args({128, 10});

void BM_Ilu0Factor(benchmark::State& state) {
  const Csr a = grid_matrix(static_cast<idx>(state.range(0)));
  for (auto _ : state) {
    const IluFactors f = ilu0(a);
    benchmark::DoNotOptimize(f.l.nnz());
  }
}
BENCHMARK(BM_Ilu0Factor)->Arg(64)->Arg(128);

void BM_TriangularSolve(benchmark::State& state) {
  const Csr a = grid_matrix(static_cast<idx>(state.range(0)));
  const IluFactors f = ilut(a, {.m = 10, .tau = 1e-4});
  const RealVec b = workloads::random_vector(a.n_rows, 2);
  RealVec x(a.n_rows);
  for (auto _ : state) {
    ilu_apply(f, b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * (f.l.nnz() + f.u.nnz()));
}
BENCHMARK(BM_TriangularSolve)->Arg(64)->Arg(128)->Arg(256);

void BM_SelectLargest(benchmark::State& state) {
  Rng rng(3);
  SparseRow prototype;
  for (idx c = 0; c < state.range(0); ++c) prototype.push(c, rng.uniform(-1, 1));
  for (auto _ : state) {
    SparseRow row = prototype;
    select_largest(row, 10, 0.01, 0);
    benchmark::DoNotOptimize(row.cols.data());
  }
}
BENCHMARK(BM_SelectLargest)->Arg(32)->Arg(256)->Arg(1024);

void BM_LubyMis(benchmark::State& state) {
  const Graph g = graph_from_pattern(grid_matrix(static_cast<idx>(state.range(0))));
  for (auto _ : state) {
    const IdxVec set = luby_mis(g, {.seed = 5, .rounds = 5});
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * g.n);
}
BENCHMARK(BM_LubyMis)->Arg(64)->Arg(128);

void BM_PartitionKway(benchmark::State& state) {
  const Graph g = graph_from_pattern(grid_matrix(128));
  const idx parts = static_cast<idx>(state.range(0));
  for (auto _ : state) {
    const Partition p = partition_kway(g, parts);
    benchmark::DoNotOptimize(p.part.data());
  }
}
BENCHMARK(BM_PartitionKway)->Arg(4)->Arg(16)->Arg(64);

void BM_GmresCycle(benchmark::State& state) {
  // One GMRES(20) cycle (20 matvecs + MGS) with a Jacobi preconditioner.
  const Csr a = grid_matrix(64);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  const JacobiPreconditioner precond(a);
  for (auto _ : state) {
    RealVec x(a.n_rows, 0.0);
    const GmresResult r =
        gmres(a, precond, b, x, {.restart = 20, .max_matvecs = 20, .rtol = 1e-30});
    benchmark::DoNotOptimize(r.matvecs);
  }
}
BENCHMARK(BM_GmresCycle);

}  // namespace
}  // namespace ptilu

BENCHMARK_MAIN();
