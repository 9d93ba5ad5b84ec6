// Tests for the critical-path analyzer / per-rank metrics registry
// (sim::Metrics). The collector promises exact accounting identities —
// busy bounded by elapsed, straggler attribution partitioning both the
// barriers and (up to summation order) the modeled time, and integer
// communication totals that reconcile with the machine's RankCounters —
// and byte-identical reports across execution backends. Every driver in
// the library is run under collection and checked against those promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/pilut/pilu0.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/pilut_nested.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

constexpr int kRankCounts[] = {1, 4, 16};

sim::Machine::Options metrics_opts(sim::Backend backend = sim::Backend::kSequential,
                                   int threads = 4) {
  sim::Machine::Options opts;
  opts.metrics = true;
  opts.backend = backend;
  opts.threads = threads;
  return opts;
}

sim::Machine::Options plain_opts() {
  // Explicit: the suite itself may run under PTILU_METRICS=1 (the sanitizer
  // CI jobs do), and the off-path tests need the collector truly absent.
  sim::Machine::Options opts;
  opts.metrics = false;
  opts.backend = sim::Backend::kSequential;
  return opts;
}

DistCsr make_dist(const Csr& a, int nranks) {
  const Graph g = graph_from_pattern(a);
  return DistCsr::create(a, partition_kway(g, nranks, {.seed = 1}));
}

/// Check every accounting identity the collector guarantees for a machine
/// that has run without an intervening reset. Mirrors scripts/check_report.py
/// but against the in-memory structures rather than the serialized report.
void expect_identities(sim::Machine& machine) {
  sim::Metrics* const metrics = machine.metrics();
  ASSERT_NE(metrics, nullptr);
  metrics->flush(machine);
  const int p = machine.nranks();
  const std::size_t ranks = static_cast<std::size_t>(p);

  double fold = 0.0;
  std::uint64_t steps = 0;
  std::vector<std::uint64_t> messages(ranks, 0), bytes(ranks, 0);
  for (const sim::Metrics::PhaseRow& row : metrics->phase_rows()) {
    const sim::Metrics::PhaseMetrics& pm = *row.stats;
    ASSERT_EQ(pm.busy.size(), ranks) << row.name;
    ASSERT_EQ(pm.critical_s.size(), ranks) << row.name;
    ASSERT_EQ(pm.critical_steps.size(), ranks) << row.name;
    ASSERT_EQ(pm.comm.size(), ranks) << row.name;
    fold += pm.elapsed;
    steps += pm.supersteps;

    // busy is accumulated from the same clock deltas whose max defines
    // elapsed, so the bound is exact — no tolerance.
    for (int r = 0; r < p; ++r) {
      EXPECT_GE(pm.busy[static_cast<std::size_t>(r)], 0.0) << row.name << " rank " << r;
      EXPECT_LE(pm.busy[static_cast<std::size_t>(r)], pm.elapsed)
          << row.name << " rank " << r;
    }

    // The straggler attribution partitions the phase's barriers exactly and
    // its elapsed time up to summation order.
    EXPECT_EQ(std::accumulate(pm.critical_steps.begin(), pm.critical_steps.end(),
                              std::uint64_t{0}),
              pm.supersteps)
        << row.name;
    const double critical_sum =
        std::accumulate(pm.critical_s.begin(), pm.critical_s.end(), 0.0);
    EXPECT_NEAR(critical_sum, pm.elapsed, 1e-12 + 1e-9 * pm.elapsed) << row.name;

    // critical_rank: first argmax, -1 when the phase never won a barrier.
    const int cr = pm.critical_rank();
    double peak = 0.0;
    int want = -1;
    for (int r = 0; r < p; ++r) {
      if (pm.critical_s[static_cast<std::size_t>(r)] > peak) {
        peak = pm.critical_s[static_cast<std::size_t>(r)];
        want = r;
      }
    }
    EXPECT_EQ(cr, want) << row.name;

    for (int r = 0; r < p; ++r) {
      for (const auto& [to, cell] : pm.comm[static_cast<std::size_t>(r)]) {
        EXPECT_GE(to, 0) << row.name;
        EXPECT_LT(to, p) << row.name;
        EXPECT_TRUE(cell.messages > 0 || cell.bytes > 0) << row.name;
        messages[static_cast<std::size_t>(r)] += cell.messages;
        bytes[static_cast<std::size_t>(r)] += cell.bytes;
      }
      // Scalars since report v2: collectives charge every rank identically.
      messages[static_cast<std::size_t>(r)] += pm.collective_messages;
      bytes[static_cast<std::size_t>(r)] += pm.collective_bytes;
    }
  }

  // The phase attribution spans the whole run: the in-order fold is the
  // report's modeled_s (exact), which tracks the machine's modeled time.
  EXPECT_EQ(fold, metrics->total_elapsed());
  EXPECT_NEAR(fold, machine.modeled_time(), 1e-12 + 1e-9 * machine.modeled_time());
  EXPECT_EQ(steps, machine.supersteps());

  // Integer-exact reconciliation: every counted message/byte lands in
  // exactly one phase's comm matrix or collective tally.
  for (int r = 0; r < p; ++r) {
    const sim::RankCounters& c = machine.counters(r);
    EXPECT_EQ(messages[static_cast<std::size_t>(r)], c.messages_sent) << "rank " << r;
    EXPECT_EQ(bytes[static_cast<std::size_t>(r)], c.bytes_sent) << "rank " << r;
  }
}

// --- Identities on every driver ----------------------------------------

TEST(MetricsIdentities, PilutFactor) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 6.0, 3.0);
  for (const int nranks : kRankCounts) {
    sim::Machine machine(nranks, metrics_opts());
    pilut_factor(machine, make_dist(a, nranks), {.m = 6, .tau = 1e-4, .cap_k = 2});
    expect_identities(machine);
    // The factorization drivers thread their fill/drop tallies through the
    // registry; a real ILUT run both fills and drops.
    std::uint64_t fill = 0, dropped = 0;
    for (int r = 0; r < nranks; ++r) {
      fill += machine.metrics()->counter_value("factor/fill", r);
      dropped += machine.metrics()->counter_value("factor/dropped", r);
    }
    EXPECT_GT(fill, 0u) << "nranks=" << nranks;
    EXPECT_GT(dropped, 0u) << "nranks=" << nranks;
  }
}

TEST(MetricsIdentities, PilutFactorNested) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 5.0, 5.0);
  for (const int nranks : kRankCounts) {
    sim::Machine machine(nranks, metrics_opts());
    pilut_factor_nested(machine, make_dist(a, nranks), {.m = 8, .tau = 1e-4}, {});
    expect_identities(machine);
  }
}

TEST(MetricsIdentities, Pilu0Factor) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 4.0, 2.0);
  for (const int nranks : kRankCounts) {
    sim::Machine machine(nranks, metrics_opts());
    pilu0_factor(machine, make_dist(a, nranks), {.pivot_rel = 1e-12});
    expect_identities(machine);
    // ILU(0) keeps the sparsity pattern: fill is structurally zero; the
    // discarded out-of-pattern updates are its analogue of dropping.
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(machine.metrics()->counter_value("factor/fill", r), 0u);
    }
  }
}

TEST(MetricsIdentities, TrisolveDist) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 6.0, 3.0);
  const RealVec b = workloads::random_vector(a.n_rows, 5);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    // Factor on a scratch machine; instrument only the solve so the
    // phase attribution spans a single epoch (no reset involved).
    sim::Machine scratch(nranks, plain_opts());
    const PilutResult fact = pilut_factor(scratch, dist, {.m = 8, .tau = 1e-4});
    const DistTriangularSolver solver(fact.factors, fact.schedule);
    sim::Machine machine(nranks, metrics_opts());
    RealVec x(a.n_rows, 0.0);
    solver.apply(machine, b, x);
    expect_identities(machine);
  }
}

TEST(MetricsIdentities, GmresDist) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 5.0, 2.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    const Halo halo = Halo::build(dist);
    sim::Machine scratch(nranks, plain_opts());
    const PilutResult fact = pilut_factor(scratch, dist, {.m = 8, .tau = 1e-4});
    sim::Machine machine(nranks, metrics_opts());
    RealVec x(a.n_rows, 0.0);
    gmres_dist(machine, dist, halo, fact, b, x,
               {.restart = 15, .max_matvecs = 200, .rtol = 1e-8});
    expect_identities(machine);
  }
}

TEST(MetricsIdentities, DistSpmv) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 7.0, 3.0);
  const RealVec x = workloads::random_vector(a.n_rows, 42);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    const Halo halo = Halo::build(dist);
    sim::Machine machine(nranks, metrics_opts());
    RealVec y(a.n_rows, 0.0);
    dist_spmv(machine, dist, halo, x, y);
    expect_identities(machine);
  }
}

TEST(MetricsIdentities, MisDist) {
  const Csr a = workloads::convection_diffusion_2d(20, 20);
  const Graph g = graph_from_pattern(a);
  for (const int nranks : kRankCounts) {
    const Partition p = partition_kway(g, nranks);
    IdxVec owner = p.part;
    std::vector<IdxVec> verts_of(nranks);
    std::vector<std::vector<IdxVec>> adj(nranks);
    for (idx v = 0; v < g.n; ++v) {
      verts_of[owner[v]].push_back(v);
      const auto nbrs = g.neighbors(v);
      adj[owner[v]].emplace_back(nbrs.begin(), nbrs.end());
    }
    const DistGraph graph = DistGraph::from_adjacency(g.n, &owner, verts_of, adj);
    sim::Machine machine(nranks, metrics_opts());
    mis_dist(machine, graph, {.seed = 7, .rounds = 8});
    expect_identities(machine);
  }
}

// --- Collection must not perturb the model ------------------------------

TEST(MetricsOverhead, DisabledMeansNoCollector) {
  sim::Machine machine(4, plain_opts());
  EXPECT_EQ(machine.metrics(), nullptr);
  sim::Machine on(4, metrics_opts());
  EXPECT_NE(on.metrics(), nullptr);
}

TEST(MetricsOverhead, ModeledOutputBitIdenticalOnOrOff) {
  // The collector observes the cost model; it must never feed back into it.
  const Csr a = workloads::jump_coefficient_2d(18, 18, 5.0, 11);
  const DistCsr dist = make_dist(a, 8);
  const auto run = [&](const sim::Machine::Options& opts) {
    sim::Machine machine(8, opts);
    const PilutResult fact = pilut_factor(machine, dist, {.m = 8, .tau = 1e-3});
    std::vector<double> rank_times;
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>>
        counters;
    for (int r = 0; r < 8; ++r) {
      rank_times.push_back(machine.rank_time(r));
      const sim::RankCounters& c = machine.counters(r);
      counters.emplace_back(c.flops, c.mem_bytes, c.messages_sent, c.bytes_sent);
    }
    return std::tuple{fact.factors.l.values, fact.factors.u.values,
                      fact.schedule.newnum, machine.modeled_time(),
                      machine.supersteps(), rank_times, counters};
  };
  EXPECT_EQ(run(plain_opts()), run(metrics_opts()));
}

// --- Reports -------------------------------------------------------------

std::string full_run_report(const sim::Machine::Options& opts) {
  // Factor + reset + triangular solve + GMRES on one machine: the report
  // must stay internally consistent across the reset (counter epochs are
  // banked, the residual clock advance flushed into the last phase).
  const int nranks = 8;
  const Csr a = workloads::convection_diffusion_2d(16, 16, 10.0, 20.0);
  const DistCsr dist = make_dist(a, nranks);
  const Halo halo = Halo::build(dist);
  sim::Machine machine(nranks, opts);
  const PilutResult fact = pilut_factor(machine, dist, {.m = 5, .tau = 1e-2});
  const DistTriangularSolver solver(fact.factors, fact.schedule);
  machine.reset();
  const RealVec b(dist.n(), 1.0);
  RealVec x(dist.n(), 0.0);
  solver.apply(machine, b, x);
  RealVec x2(dist.n(), 0.0);
  gmres_dist(machine, dist, halo, fact, b, x2,
             {.restart = 10, .max_matvecs = 100, .rtol = 1e-6});
  std::ostringstream report;
  machine.metrics()->write_report(report, machine,
                                  {{"harness", "\"test_metrics\""}});
  std::ostringstream table;
  machine.metrics()->write_straggler_table(table, machine);
  EXPECT_FALSE(table.str().empty());
  return report.str();
}

TEST(MetricsReport, ByteIdenticalAcrossBackends) {
  // The collector only mutates state rank-locally during a step or on the
  // main thread at a barrier, so the serialized report — not just the
  // modeled numbers — is byte-identical between backends and across
  // repeated threaded runs.
  const std::string sequential = full_run_report(metrics_opts());
  const std::string threaded =
      full_run_report(metrics_opts(sim::Backend::kThreads, 4));
  EXPECT_EQ(sequential, threaded);
  EXPECT_EQ(threaded, full_run_report(metrics_opts(sim::Backend::kThreads, 2)));
  EXPECT_NE(sequential.find("\"schema\": \"ptilu-report-v2\""), std::string::npos);
  EXPECT_NE(sequential.find("\"harness\": \"test_metrics\""), std::string::npos);
}

TEST(MetricsReport, PayloadChecksumStableAndRunInfoInvariant) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr dist = make_dist(a, 4);
  const auto checksum = [&](const sim::Machine::Options& opts) {
    sim::Machine machine(4, opts);
    pilut_factor(machine, dist, {.m = 5, .tau = 1e-3});
    return machine.metrics()->payload_checksum(machine);
  };
  const std::uint64_t seq = checksum(metrics_opts());
  EXPECT_EQ(seq, checksum(metrics_opts(sim::Backend::kThreads, 4)));
  EXPECT_NE(seq, 0u);
}

TEST(MetricsReport, ClearDropsEverything) {
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4, metrics_opts());
  pilut_factor(machine, dist, {.m = 4, .tau = 1e-3});
  machine.metrics()->flush(machine);
  EXPECT_FALSE(machine.metrics()->phase_rows().empty());
  machine.reset();
  machine.metrics()->clear();
  EXPECT_TRUE(machine.metrics()->phase_rows().empty());
  EXPECT_EQ(machine.metrics()->total_elapsed(), 0.0);
  // The collector keeps working after a clear.
  RealVec y(a.n_rows, 0.0);
  dist_spmv(machine, dist, Halo::build(dist), workloads::random_vector(a.n_rows, 3), y);
  expect_identities(machine);
}

}  // namespace
}  // namespace ptilu
