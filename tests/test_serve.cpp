// Differential serving-stack tests: the batched multi-RHS solves against
// their single-RHS references (bit-identical for the serial CSR and
// distributed paths), the operator fingerprint (equal operators agree,
// every one-word edit moves it, one pinned value), the FactorCache (key
// discrimination, LRU order, metrics reconciliation, epoch banking across
// Machine::reset), the seeded traffic generator, the FIFO batching policy,
// and the shared-factor concurrency contract the tsan preset exists to
// check.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/serve/factor_cache.hpp"
#include "ptilu/serve/solve_service.hpp"
#include "ptilu/serve/traffic.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

// Every group remainder of the min(8, remaining) grouping, and 8 + k.
constexpr int kBatchWidths[] = {1,  2,  3,  4,  5,  6,  7,  8, 9,
                                10, 11, 12, 13, 14, 15, 16, 17};

DistCsr make_dist(const Csr& a, int nranks, std::uint64_t seed = 1) {
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, nranks, {.seed = seed});
  return DistCsr::create(a, p);
}

DenseRhsBlock seeded_block(idx n, int k, std::uint64_t seed) {
  DenseRhsBlock block(n, k);
  for (int c = 0; c < k; ++c) {
    block.set_col(c, serve::make_rhs(n, mix64(seed + static_cast<std::uint64_t>(c))));
  }
  return block;
}

// ---- Batched scalar trisolves: bit-identical per column ----------------

TEST(BatchedTrisolve, ScalarForwardBackwardBitIdenticalToSingle) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 8.0, 4.0);
  const idx n = a.n_rows;
  const IluFactors factors = ilut(a, {.m = 7, .tau = 1e-3});
  for (const int k : kBatchWidths) {
    const DenseRhsBlock b = seeded_block(n, k, 17);
    DenseRhsBlock y(n, k), x(n, k);
    forward_solve(factors.l, b, y);
    backward_solve(factors.u, y, x);
    RealVec y1(static_cast<std::size_t>(n)), x1(static_cast<std::size_t>(n));
    for (int c = 0; c < k; ++c) {
      forward_solve(factors.l, b.col(c), y1);
      backward_solve(factors.u, y1, x1);
      for (idx i = 0; i < n; ++i) {
        // EXPECT_EQ, not NEAR: the batched kernels replay the single-RHS
        // accumulation order per column exactly.
        ASSERT_EQ(y.at(i, c), y1[static_cast<std::size_t>(i)]) << "k=" << k << " col=" << c;
        ASSERT_EQ(x.at(i, c), x1[static_cast<std::size_t>(i)]) << "k=" << k << " col=" << c;
      }
    }
  }
}

TEST(BatchedTrisolve, ScalarIluApplyBitIdenticalToSingle) {
  const Csr a = workloads::jump_coefficient_2d(18, 18, 5.0, 11);
  const idx n = a.n_rows;
  const IluFactors factors = ilut(a, {.m = 8, .tau = 1e-2});
  for (const int k : kBatchWidths) {
    const DenseRhsBlock b = seeded_block(n, k, 23);
    DenseRhsBlock x(n, k);
    ilu_apply(factors, b, x);
    RealVec x1(static_cast<std::size_t>(n));
    for (int c = 0; c < k; ++c) {
      ilu_apply(factors, b.col(c), x1);
      for (idx i = 0; i < n; ++i) {
        ASSERT_EQ(x.at(i, c), x1[static_cast<std::size_t>(i)]) << "k=" << k << " col=" << c;
      }
    }
  }
}

// ---- Batched distributed trisolves -------------------------------------

TEST(BatchedTrisolveDist, BitIdenticalPerColumnAcrossBackendsAndChecking) {
  const Csr a = workloads::convection_diffusion_2d(18, 18, 7.0, 2.0);
  const idx n = a.n_rows;
  const DistCsr dist = make_dist(a, 4);
  for (const sim::Backend backend : {sim::Backend::kSequential, sim::Backend::kThreads}) {
    for (const bool check : {false, true}) {
      sim::Machine::Options options;
      options.backend = backend;
      options.check = check;
      sim::Machine machine(4, options);
      const PilutResult fact = pilut_factor(machine, dist, {.m = 6, .tau = 1e-3});
      const DistTriangularSolver solver(fact.factors, fact.schedule);
      for (const int k : kBatchWidths) {
        const DenseRhsBlock b = seeded_block(n, k, 41);
        DenseRhsBlock y(n, k), x(n, k), applied(n, k);
        solver.forward(machine, b, y);
        solver.backward(machine, y, x);
        solver.apply(machine, b, applied);
        RealVec y1(static_cast<std::size_t>(n)), x1(static_cast<std::size_t>(n));
        for (int c = 0; c < k; ++c) {
          const RealVec bc(b.col(c).begin(), b.col(c).end());
          solver.forward(machine, bc, y1);
          solver.backward(machine, y1, x1);
          for (idx i = 0; i < n; ++i) {
            ASSERT_EQ(y.at(i, c), y1[static_cast<std::size_t>(i)])
                << "backend=" << sim::backend_name(backend) << " check=" << check
                << " k=" << k << " col=" << c;
            ASSERT_EQ(x.at(i, c), x1[static_cast<std::size_t>(i)])
                << "backend=" << sim::backend_name(backend) << " check=" << check
                << " k=" << k << " col=" << c;
            ASSERT_EQ(applied.at(i, c), x1[static_cast<std::size_t>(i)])
                << "backend=" << sim::backend_name(backend) << " check=" << check
                << " k=" << k << " col=" << c;
          }
        }
      }
      machine.check_quiescent("test_serve/dist/end");
    }
  }
}

TEST(BatchedTrisolveDist, BatchedSweepAmortizesMessages) {
  const Csr a = workloads::convection_diffusion_2d(18, 18, 7.0, 2.0);
  const idx n = a.n_rows;
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult fact = pilut_factor(machine, dist, {.m = 6, .tau = 1e-3});
  const DistTriangularSolver solver(fact.factors, fact.schedule);
  for (const int k : {2, 4, 8}) {
    const DenseRhsBlock b = seeded_block(n, k, 47);

    machine.reset();
    RealVec x1(static_cast<std::size_t>(n));
    for (int c = 0; c < k; ++c) {
      const RealVec bc(b.col(c).begin(), b.col(c).end());
      solver.apply(machine, bc, x1);
    }
    const std::uint64_t single_messages = machine.total_counters().messages_sent;
    const double single_time = machine.modeled_time();

    machine.reset();
    DenseRhsBlock x(n, k);
    solver.apply(machine, b, x);
    const std::uint64_t batched_messages = machine.total_counters().messages_sent;
    const double batched_time = machine.modeled_time();

    // One message pair per (peer, level) regardless of k: the batched sweep
    // must send exactly a 1/k share of the single-RHS message count, and
    // the amortized alpha must show up in modeled time.
    EXPECT_EQ(batched_messages * static_cast<std::uint64_t>(k), single_messages)
        << "k=" << k;
    EXPECT_LT(batched_time, single_time) << "k=" << k;
  }
}

// ---- Shared-solver GMRES overload --------------------------------------

TEST(GmresDistServe, SharedSolverOverloadMatchesFromFactorization) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 6.0, 3.0);
  const idx n = a.n_rows;
  const DistCsr dist = make_dist(a, 4);
  const Halo halo = Halo::build(dist);
  sim::Machine machine(4);
  const PilutResult fact = pilut_factor(machine, dist, {.m = 8, .tau = 1e-4});
  const RealVec b = workloads::rhs_all_ones_solution(a);

  RealVec x_old(static_cast<std::size_t>(n), 0.0);
  const GmresResult via_factorization =
      gmres_dist(machine, dist, halo, fact, b, x_old, {.restart = 15});
  const double time_old = machine.modeled_time();

  const DistTriangularSolver solver(fact.factors, fact.schedule);
  RealVec x_new(static_cast<std::size_t>(n), 0.0);
  const GmresResult via_solver =
      gmres_dist(machine, dist, halo, solver, b, x_new, {.restart = 15});
  const double time_new = machine.modeled_time();

  EXPECT_EQ(via_factorization.converged, via_solver.converged);
  EXPECT_EQ(via_factorization.matvecs, via_solver.matvecs);
  EXPECT_EQ(via_factorization.final_residual, via_solver.final_residual);
  EXPECT_EQ(time_old, time_new);  // both reset the machine at entry
  for (idx i = 0; i < n; ++i) {
    ASSERT_EQ(x_old[static_cast<std::size_t>(i)], x_new[static_cast<std::size_t>(i)]);
  }
}

// ---- FactorCache -------------------------------------------------------

Csr small_matrix(double convection = 5.0) {
  return workloads::convection_diffusion_2d(10, 10, convection, 2.0);
}

TEST(FactorCache, KeyDiscriminatesParamsAndValues) {
  const Csr a = small_matrix();
  Csr perturbed = a;
  perturbed.values[perturbed.values.size() / 2] *= 1.0 + 1e-9;

  serve::FactorCache cache(8);
  const IlutOptions opts{.m = 6, .tau = 1e-3};
  const auto base = cache.get(a, opts);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Same matrix + params: a hit, and the very same factor object.
  EXPECT_EQ(cache.get(a, opts).get(), base.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Different ILUT params on the same matrix: distinct entries.
  cache.get(a, {.m = 7, .tau = 1e-3});
  cache.get(a, {.m = 6, .tau = 1e-4});
  cache.get(a, {.m = 6, .tau = 1e-3, .pivot_rel = 1e-12});
  EXPECT_EQ(cache.stats().misses, 4u);

  // Same pattern, one value nudged: a different operator.
  cache.get(perturbed, opts);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.size(), 5u);
}

// ---- matrix_fingerprint: equal operators agree, one-word edits move it --

// 3x3 tridiagonal: row_ptr is one 32-byte stripe, col_idx three words and
// a 4-byte tail, values one stripe and three words.
Csr tiny_matrix() {
  Csr a(3, 3);
  a.row_ptr = {0, 2, 5, 7};
  a.col_idx = {0, 1, 0, 1, 2, 1, 2};
  a.values = {4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0};
  return a;
}

TEST(MatrixFingerprint, EqualMatricesBuiltApartHashEqual) {
  EXPECT_EQ(serve::matrix_fingerprint(tiny_matrix()),
            serve::matrix_fingerprint(tiny_matrix()));
  const Csr a = workloads::convection_diffusion_2d(12, 12, 8.0, 4.0);
  const Csr b = workloads::convection_diffusion_2d(12, 12, 8.0, 4.0);
  EXPECT_EQ(serve::matrix_fingerprint(a), serve::matrix_fingerprint(b));
}

TEST(MatrixFingerprint, EveryOneWordEditMovesIt) {
  const Csr grid = workloads::convection_diffusion_2d(12, 12, 8.0, 4.0);
  for (const Csr& base : {tiny_matrix(), grid}) {
    const std::uint64_t hash = serve::matrix_fingerprint(base);
    const auto edited = [&](const auto& edit) {
      Csr c = base;
      edit(c);
      return serve::matrix_fingerprint(c);
    };
    // The tiny matrix gets every word edited; the larger the first and last.
    const bool every = base.n_rows == 3;
    for (std::size_t i = 0; i < base.row_ptr.size(); ++i) {
      if (!every && i != 0 && i + 1 != base.row_ptr.size()) continue;
      EXPECT_NE(edited([&](Csr& c) { c.row_ptr[i] += 1; }), hash) << "row_ptr " << i;
    }
    for (std::size_t i = 0; i < base.col_idx.size(); ++i) {
      if (!every && i != 0 && i + 1 != base.col_idx.size()) continue;
      EXPECT_NE(edited([&](Csr& c) { c.col_idx[i] ^= 1; }), hash) << "col_idx " << i;
      EXPECT_NE(edited([&](Csr& c) { c.values[i] = -c.values[i]; }), hash)
          << "values " << i;
    }
    EXPECT_NE(edited([](Csr& c) { c.n_rows += 1; }), hash);
    EXPECT_NE(edited([](Csr& c) { c.n_cols += 1; }), hash);
  }
  // Values hash by bit pattern: +0.0 and -0.0 are different operators.
  Csr plus = tiny_matrix();
  plus.values[3] = 0.0;
  Csr minus = plus;
  minus.values[3] = -0.0;
  EXPECT_NE(serve::matrix_fingerprint(plus), serve::matrix_fingerprint(minus));
}

TEST(MatrixFingerprint, ArrayLengthsAreHashed) {
  // Move the first value's 8 bytes from the front of `values` to the end
  // of `col_idx`: the same bytes in the same order, split differently.
  const Csr a = tiny_matrix();
  Csr b = a;
  idx halves[2] = {};
  std::memcpy(halves, &a.values[0], sizeof(halves));
  b.col_idx.push_back(halves[0]);
  b.col_idx.push_back(halves[1]);
  b.values.erase(b.values.begin());
  EXPECT_NE(serve::matrix_fingerprint(a), serve::matrix_fingerprint(b));
}

TEST(MatrixFingerprint, PinnedValue) {
  // Changing the hash changes every logged fingerprint: do it on purpose.
  EXPECT_EQ(serve::matrix_fingerprint(tiny_matrix()), 0xc3fe5082c5a05d56ULL);
}

serve::FactorKey cache_key(const Csr& a, const IlutOptions& opts) {
  serve::FactorKey key;
  key.matrix = serve::matrix_fingerprint(a);
  key.m = opts.m;
  key.tau = opts.tau;
  key.pivot_rel = opts.pivot_rel;
  return key;
}

TEST(FactorCache, LruEvictionEvictsLeastRecentlyUsed) {
  const Csr a = small_matrix(3.0);
  const Csr b = small_matrix(4.0);
  const Csr c = small_matrix(5.0);
  const IlutOptions opts{.m = 5, .tau = 1e-3};

  serve::FactorCache cache(2);
  cache.get(a, opts);
  cache.get(b, opts);
  cache.get(a, opts);  // refresh a: b is now the LRU entry
  cache.get(c, opts);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.contains(cache_key(a, opts)));
  EXPECT_FALSE(cache.contains(cache_key(b, opts)));
  EXPECT_TRUE(cache.contains(cache_key(c, opts)));

  // b must now re-factor (a fresh miss), evicting a (LRU after the c miss).
  cache.get(b, opts);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.contains(cache_key(a, opts)));
  // An evicted-then-refetched entry still hands out a usable factor.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FactorCache, StatsReconcileWithMetricsRegistryAcrossReset) {
  const Csr a = small_matrix();
  const IlutOptions opts{.m = 6, .tau = 1e-3};
  sim::Machine::Options options;
  options.metrics = true;
  sim::Machine machine(2, options);
  sim::Metrics* const metrics = machine.metrics();
  ASSERT_NE(metrics, nullptr);

  serve::FactorCache cache(1);
  cache.get(a, opts);  // pre-attachment miss, replayed on attach
  cache.attach_metrics(metrics);
  EXPECT_EQ(metrics->counter_value("serve/cache/misses", 0), 1u);

  cache.get(a, opts);
  cache.get(a, {.m = 7, .tau = 1e-3});  // miss + eviction (capacity 1)

  // Run a superstep and reset the machine: named counters are NOT banked
  // by reset (only RankCounters are), so the serving tallies keep
  // accumulating across solve epochs.
  machine.step([](sim::RankContext& ctx) { ctx.charge_flops(1); }, "test_serve/epoch");
  machine.reset();
  cache.get(a, opts);  // miss again (was evicted)

  const serve::CacheStats& stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(metrics->counter_value("serve/cache/hits", 0), stats.hits);
  EXPECT_EQ(metrics->counter_value("serve/cache/misses", 0), stats.misses);
  EXPECT_EQ(metrics->counter_value("serve/cache/evictions", 0), stats.evictions);
}

TEST(FactorCache, CachedFactorSurvivesEviction) {
  const Csr a = small_matrix(3.0);
  const Csr b = small_matrix(4.0);
  const IlutOptions opts{.m = 5, .tau = 1e-3};
  serve::FactorCache cache(1);
  const std::shared_ptr<const Preconditioner> held = cache.get(a, opts);
  cache.get(b, opts);  // evicts a's entry while `held` is still out
  EXPECT_EQ(cache.stats().evictions, 1u);
  const RealVec rhs = serve::make_rhs(a.n_rows, 7);
  RealVec x(static_cast<std::size_t>(a.n_rows));
  held->apply(rhs, x);  // must not touch freed memory (asan-checked)
  RealVec reference(static_cast<std::size_t>(a.n_rows));
  ilu_apply(ilut(a, opts), rhs, reference);
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], reference[i]);
}

// ---- Traffic generator -------------------------------------------------

TEST(Traffic, ScheduleIsDeterministicAndStrictlyIncreasing) {
  const serve::TrafficOptions opts{.requests = 200, .mean_interarrival_s = 1e-3, .seed = 42};
  const std::vector<serve::Request> one = serve::make_schedule(opts);
  const std::vector<serve::Request> two = serve::make_schedule(opts);
  ASSERT_EQ(one.size(), 200u);
  ASSERT_EQ(two.size(), one.size());
  double previous = 0.0;
  for (std::size_t r = 0; r < one.size(); ++r) {
    EXPECT_EQ(one[r].arrival_s, two[r].arrival_s);
    EXPECT_EQ(one[r].rhs_seed, two[r].rhs_seed);
    EXPECT_GT(one[r].arrival_s, previous);
    previous = one[r].arrival_s;
  }
  // A different seed must produce a different process.
  const std::vector<serve::Request> other =
      serve::make_schedule({.requests = 200, .mean_interarrival_s = 1e-3, .seed = 43});
  EXPECT_NE(other.front().arrival_s, one.front().arrival_s);

  const RealVec rhs_a = serve::make_rhs(64, 7);
  const RealVec rhs_b = serve::make_rhs(64, 7);
  ASSERT_EQ(rhs_a.size(), 64u);
  for (std::size_t i = 0; i < rhs_a.size(); ++i) EXPECT_EQ(rhs_a[i], rhs_b[i]);
}

// ---- Queueing policy ---------------------------------------------------

TEST(SolveService, PlanServeFormsFifoBatchesAndReplaysLatencies) {
  // Hand-built schedule: three near-simultaneous arrivals, then a gap.
  std::vector<serve::Request> schedule;
  for (const double t : {1.0, 1.1, 1.2, 5.0}) schedule.push_back({t, 0});
  const auto unit_service = [](int) { return 1.0; };

  const std::vector<serve::Batch> plan = serve::plan_serve(schedule, 2, unit_service);
  // t=1.0: only request 0 has arrived -> batch of 1 (server was idle).
  // t=2.0: requests 1 and 2 are queued -> batch of 2 (capped).
  // t=5.0: request 3 -> batch of 1 after an idle gap.
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].first, 0);
  EXPECT_EQ(plan[0].count, 1);
  EXPECT_EQ(plan[0].start_s, 1.0);
  EXPECT_EQ(plan[1].first, 1);
  EXPECT_EQ(plan[1].count, 2);
  EXPECT_EQ(plan[1].start_s, 2.0);
  EXPECT_EQ(plan[2].first, 3);
  EXPECT_EQ(plan[2].count, 1);
  EXPECT_EQ(plan[2].start_s, 5.0);

  const serve::ServeReport report =
      serve::replay_latencies(plan, schedule, {1.0, 1.0, 1.0});
  ASSERT_EQ(report.latency_s.size(), 4u);
  EXPECT_DOUBLE_EQ(report.latency_s[0], 1.0);  // done at 2.0
  EXPECT_DOUBLE_EQ(report.latency_s[1], 1.9);  // done at 3.0
  EXPECT_DOUBLE_EQ(report.latency_s[2], 1.8);
  EXPECT_DOUBLE_EQ(report.latency_s[3], 1.0);  // done at 6.0
  EXPECT_DOUBLE_EQ(report.total_s, 6.0);

  // An uncapped batch_max merges the burst into one batch.
  const std::vector<serve::Batch> wide = serve::plan_serve(schedule, 8, unit_service);
  ASSERT_EQ(wide.size(), 3u);  // request 1,2 still arrive after batch 0 starts
  EXPECT_EQ(wide[1].count, 2);

  const serve::SortedSample sample({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(sample.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(sample.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(sample.quantile(0.0), 1.0);
}

TEST(SolveService, SortedSampleEdgeCases) {
  // Empty samples have no quantiles: construction throws instead of the
  // old free quantile()'s silent 0.0.
  EXPECT_THROW(serve::SortedSample(std::vector<double>{}), Error);

  // A single sample answers every quantile with itself.
  const serve::SortedSample one({7.5});
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 7.5);

  // The sample is sorted ONCE at construction; values() exposes it.
  const serve::SortedSample sorted({4.0, 2.0, 3.0, 1.0});
  EXPECT_EQ(sorted.size(), 4u);
  EXPECT_DOUBLE_EQ(sorted.values().front(), 1.0);
  EXPECT_DOUBLE_EQ(sorted.values().back(), 4.0);
  EXPECT_DOUBLE_EQ(sorted.quantile(0.0), 1.0);  // q=0 clamps to the minimum
  EXPECT_DOUBLE_EQ(sorted.quantile(1.0), 4.0);  // q=1 is the maximum
  // Nearest-rank: ceil(0.5 * 4) = rank 2 -> second smallest.
  EXPECT_DOUBLE_EQ(sorted.quantile(0.5), 2.0);
  // ceil(0.51 * 4) = rank 3.
  EXPECT_DOUBLE_EQ(sorted.quantile(0.51), 3.0);

  // Ties: the tied value is returned for every rank it occupies.
  const serve::SortedSample ties({5.0, 5.0, 5.0, 9.0});
  EXPECT_DOUBLE_EQ(ties.quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(ties.quantile(0.75), 5.0);
  EXPECT_DOUBLE_EQ(ties.quantile(0.76), 9.0);

  EXPECT_THROW(sorted.quantile(-0.1), Error);
  EXPECT_THROW(sorted.quantile(1.1), Error);
}

TEST(SolveService, ModeledBatchServiceIsSubadditive) {
  serve::BatchCostModel costs =
      serve::modeled_batch_costs(1000, 0, 5000, 5000, 40e-9, 5e-9);
  costs.cache_resolve_s = 0.0;  // the service alone, no cache
  const double s1 = costs.total_s(1);
  const double s8 = costs.total_s(8);
  EXPECT_GT(s8, s1);        // more work than one solve...
  EXPECT_LT(s8, 8.0 * s1);  // ...but cheaper than eight (factor streamed once)
}

TEST(SolveService, ApplyBatchMatchesSingleApplies) {
  const Csr a = small_matrix();
  const idx n = a.n_rows;
  const IluPreconditioner scalar(ilut(a, {.m = 6, .tau = 1e-3}));
  const JacobiPreconditioner jacobi(a);  // exercises the generic fallback
  for (const Preconditioner* factor :
       {static_cast<const Preconditioner*>(&scalar),
        static_cast<const Preconditioner*>(&jacobi)}) {
    const DenseRhsBlock b = seeded_block(n, 5, 53);
    DenseRhsBlock x(n, 5);
    serve::apply_batch(*factor, b, x);
    RealVec x1(static_cast<std::size_t>(n));
    for (int c = 0; c < 5; ++c) {
      factor->apply(b.col(c), x1);
      for (idx i = 0; i < n; ++i) {
        ASSERT_EQ(x.at(i, c), x1[static_cast<std::size_t>(i)]) << "col=" << c;
      }
    }
  }
}

// ---- Concurrent GMRES streams over one shared cached factor ------------
// The tsan CI preset runs this: c threads apply the same immutable factor
// concurrently, which is safe exactly because apply() is const with
// call-local scratch. Results must equal the serial run bit-for-bit.

TEST(ServeStreams, ConcurrentGmresOnSharedFactorMatchesSerial) {
  const Csr a = workloads::convection_diffusion_2d(14, 14, 6.0, 3.0);
  const idx n = a.n_rows;
  serve::FactorCache cache(4);
  const std::shared_ptr<const Preconditioner> shared =
      cache.get(a, {.m = 8, .tau = 1e-4});

  constexpr int kSolves = 6;
  std::vector<RealVec> rhs;
  rhs.reserve(kSolves);
  for (int q = 0; q < kSolves; ++q) {
    rhs.push_back(serve::make_rhs(n, mix64(900 + static_cast<std::uint64_t>(q))));
  }

  std::vector<GmresResult> serial(kSolves);
  std::vector<RealVec> serial_x(kSolves, RealVec(static_cast<std::size_t>(n), 0.0));
  for (int q = 0; q < kSolves; ++q) {
    serial[q] = gmres(a, *shared, rhs[static_cast<std::size_t>(q)],
                      serial_x[static_cast<std::size_t>(q)], {.restart = 10});
  }

  std::vector<GmresResult> threaded(kSolves);
  std::vector<RealVec> threaded_x(kSolves, RealVec(static_cast<std::size_t>(n), 0.0));
  constexpr int kStreams = 3;
  std::vector<std::thread> pool;
  pool.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    pool.emplace_back([&, s]() {
      for (int q = s; q < kSolves; q += kStreams) {
        threaded[static_cast<std::size_t>(q)] =
            gmres(a, *shared, rhs[static_cast<std::size_t>(q)],
                  threaded_x[static_cast<std::size_t>(q)], {.restart = 10});
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (int q = 0; q < kSolves; ++q) {
    EXPECT_EQ(serial[q].matvecs, threaded[q].matvecs) << "solve " << q;
    EXPECT_EQ(serial[q].final_residual, threaded[q].final_residual) << "solve " << q;
    for (idx i = 0; i < n; ++i) {
      ASSERT_EQ(serial_x[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)],
                threaded_x[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)])
          << "solve " << q;
    }
  }
  EXPECT_EQ(cache.stats().misses, 1u);  // every stream shared one factor
}

}  // namespace
}  // namespace ptilu
