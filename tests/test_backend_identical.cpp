// Differential tests for the execution backends: the threaded backend must
// be observationally identical to the sequential one — bit-identical
// factors, solutions, modeled times, per-rank counters, superstep counts,
// traces, and conformance violation reports. Every driver in the library is
// run under both backends across rank counts and compared exactly.
//
// Host note: these tests force a worker pool (Options::threads = 4) so the
// threaded code paths run with real concurrency even on a single-core CI
// machine; correctness never depends on the pool size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/pilut/pilu0.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/pilut_nested.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/conformance.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

constexpr int kRankCounts[] = {1, 2, 4, 8, 16};

sim::Machine::Options sequential_opts() {
  // Explicit backend: the suite itself may run under PTILU_BACKEND=threads,
  // and the differential tests need a true sequential baseline regardless.
  sim::Machine::Options opts;
  opts.backend = sim::Backend::kSequential;
  return opts;
}

sim::Machine::Options threaded_opts(int threads = 4) {
  sim::Machine::Options opts;
  opts.backend = sim::Backend::kThreads;
  opts.threads = threads;
  return opts;
}

DistCsr make_dist(const Csr& a, int nranks, std::uint64_t seed = 1) {
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, nranks, {.seed = seed});
  return DistCsr::create(a, p);
}

/// Everything observable about a machine after a run, as an exactly
/// comparable value (doubles compared bitwise via ==; that is the point).
using CounterRow = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;
struct MachineObservation {
  double modeled_time = 0.0;
  std::vector<double> rank_times;
  std::uint64_t supersteps = 0;
  std::vector<CounterRow> counters;

  bool operator==(const MachineObservation&) const = default;
};

/// A CSR matrix as an exactly comparable value (no operator== on Csr).
std::tuple<std::vector<nnz_t>, IdxVec, RealVec> csr_key(const Csr& m) {
  return {m.row_ptr, m.col_idx, m.values};
}

MachineObservation observe(const sim::Machine& m) {
  MachineObservation obs;
  obs.modeled_time = m.modeled_time();
  obs.supersteps = m.supersteps();
  for (int r = 0; r < m.nranks(); ++r) {
    obs.rank_times.push_back(m.rank_time(r));
    const sim::RankCounters& c = m.counters(r);
    obs.counters.emplace_back(c.flops, c.mem_bytes, c.messages_sent, c.bytes_sent);
  }
  return obs;
}

// --- Factorization drivers --------------------------------------------

TEST(BackendIdentical, PilutFactorsAndCountersMatch) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 6.0, 3.0);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    const PilutOptions opts{.m = 6, .tau = 1e-4, .cap_k = 2};
    sim::Machine seq(nranks, sequential_opts());
    sim::Machine thr(nranks, threaded_opts());
    EXPECT_EQ(seq.scratch_lanes(), 1);
    EXPECT_EQ(thr.scratch_lanes(), nranks);
    const PilutResult rs = pilut_factor(seq, dist, opts);
    const PilutResult rt = pilut_factor(thr, dist, opts);
    EXPECT_TRUE(equal(rs.factors.l, rt.factors.l)) << "nranks=" << nranks;
    EXPECT_TRUE(equal(rs.factors.u, rt.factors.u)) << "nranks=" << nranks;
    EXPECT_EQ(rs.schedule.newnum, rt.schedule.newnum) << "nranks=" << nranks;
    EXPECT_EQ(rs.schedule.level_start, rt.schedule.level_start);
    EXPECT_EQ(rs.stats.levels, rt.stats.levels);
    EXPECT_EQ(rs.stats.pivots_guarded, rt.stats.pivots_guarded);
    EXPECT_EQ(rs.stats.max_reduced_row, rt.stats.max_reduced_row);
    EXPECT_EQ(rs.stats.time_total, rt.stats.time_total);
    EXPECT_EQ(observe(seq), observe(thr)) << "nranks=" << nranks;
  }
}

TEST(BackendIdentical, Pilu0FactorsAndCountersMatch) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 4.0, 2.0);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine seq(nranks, sequential_opts());
    sim::Machine thr(nranks, threaded_opts());
    const PilutResult rs = pilu0_factor(seq, dist, {.pivot_rel = 1e-12});
    const PilutResult rt = pilu0_factor(thr, dist, {.pivot_rel = 1e-12});
    EXPECT_TRUE(equal(rs.factors.l, rt.factors.l)) << "nranks=" << nranks;
    EXPECT_TRUE(equal(rs.factors.u, rt.factors.u)) << "nranks=" << nranks;
    EXPECT_EQ(rs.schedule.newnum, rt.schedule.newnum);
    EXPECT_EQ(rs.stats.levels, rt.stats.levels);
    EXPECT_EQ(observe(seq), observe(thr)) << "nranks=" << nranks;
  }
}

TEST(BackendIdentical, PilutNestedFactorsAndCountersMatch) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 5.0, 5.0);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    const PilutOptions opts{.m = 8, .tau = 1e-4};
    sim::Machine seq(nranks, sequential_opts());
    sim::Machine thr(nranks, threaded_opts());
    const PilutResult rs = pilut_factor_nested(seq, dist, opts, {});
    const PilutResult rt = pilut_factor_nested(thr, dist, opts, {});
    EXPECT_TRUE(equal(rs.factors.l, rt.factors.l)) << "nranks=" << nranks;
    EXPECT_TRUE(equal(rs.factors.u, rt.factors.u)) << "nranks=" << nranks;
    EXPECT_EQ(rs.schedule.newnum, rt.schedule.newnum);
    EXPECT_EQ(observe(seq), observe(thr)) << "nranks=" << nranks;
  }
}

// --- Solvers ----------------------------------------------------------

TEST(BackendIdentical, TrisolveDistSolutionsMatch) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 6.0, 3.0);
  const RealVec b = workloads::random_vector(a.n_rows, 5);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    const auto run = [&](const sim::Machine::Options& opts) {
      sim::Machine machine(nranks, opts);
      const PilutResult fact = pilut_factor(machine, dist, {.m = 8, .tau = 1e-4});
      DistTriangularSolver solver(fact.factors, fact.schedule);
      machine.reset();
      RealVec y(a.n_rows), x(a.n_rows);
      solver.forward(machine, b, y);
      solver.backward(machine, y, x);
      return std::tuple{y, x, observe(machine)};
    };
    EXPECT_EQ(run(sequential_opts()), run(threaded_opts())) << "nranks=" << nranks;
  }
}

TEST(BackendIdentical, GmresDistSolutionsMatch) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 5.0, 2.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    const Halo halo = Halo::build(dist);
    const auto run = [&](const sim::Machine::Options& opts) {
      sim::Machine machine(nranks, opts);
      const PilutResult fact = pilut_factor(machine, dist, {.m = 8, .tau = 1e-4});
      RealVec x(a.n_rows, 0.0);
      const GmresResult g = gmres_dist(machine, dist, halo, fact, b, x,
                                       {.restart = 15, .max_matvecs = 200, .rtol = 1e-8});
      return std::tuple{x, g.final_residual, g.residual_history, g.matvecs,
                        g.converged, observe(machine)};
    };
    EXPECT_EQ(run(sequential_opts()), run(threaded_opts())) << "nranks=" << nranks;
  }
}

TEST(BackendIdentical, DistSpmvMatches) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 7.0, 3.0);
  const RealVec x = workloads::random_vector(a.n_rows, 42);
  for (const int nranks : kRankCounts) {
    const DistCsr dist = make_dist(a, nranks);
    const Halo halo = Halo::build(dist);
    const auto run = [&](const sim::Machine::Options& opts) {
      sim::Machine machine(nranks, opts);
      RealVec y(a.n_rows, 0.0);
      dist_spmv(machine, dist, halo, x, y);
      return std::tuple{y, observe(machine)};
    };
    EXPECT_EQ(run(sequential_opts()), run(threaded_opts())) << "nranks=" << nranks;
  }
}

TEST(BackendIdentical, MisDistSetsMatch) {
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
    const auto run = [&](const sim::Machine::Options& opts) {
      sim::Machine machine(nranks, opts);
      const IdxVec set = mis_dist(machine, graph, {.seed = 7, .rounds = 8});
      return std::tuple{set, observe(machine)};
    };
    EXPECT_EQ(run(sequential_opts()), run(threaded_opts())) << "nranks=" << nranks;
  }
}

// --- Traces -----------------------------------------------------------

TEST(BackendIdentical, TracesAndPhaseRollupsMatch) {
  // The deferred per-rank trace buffering must replay into exactly the
  // spans the sequential backend records live: the Chrome export is
  // compared byte-for-byte, the rollup row-by-row.
  const Csr a = workloads::convection_diffusion_2d(16, 16, 4.0, 2.0);
  const DistCsr dist = make_dist(a, 8);
  const auto run = [&](const sim::Machine::Options& opts) {
    sim::Machine machine(8, opts);
    sim::Trace trace;
    machine.attach_trace(&trace);
    const PilutResult fact = pilut_factor(machine, dist, {.m = 6, .tau = 1e-3});
    DistTriangularSolver solver(fact.factors, fact.schedule);
    machine.reset();
    RealVec x(a.n_rows, 0.0);
    solver.apply(machine, RealVec(a.n_rows, 1.0), x);
    machine.attach_trace(nullptr);
    std::ostringstream chrome;
    trace.write_chrome_trace(chrome);
    std::vector<std::tuple<std::string, double, double, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::uint64_t>> rollup;
    for (const auto& row : trace.phase_rollup()) {
      rollup.emplace_back(row.name, row.stats.elapsed, row.stats.busy_total(),
                          row.stats.flops, row.stats.mem_bytes, row.stats.bytes_sent,
                          row.stats.bytes_recv, row.stats.messages);
    }
    return std::tuple{chrome.str(), rollup, trace.spans().size()};
  };
  EXPECT_EQ(run(sequential_opts()), run(threaded_opts()));
}

// --- Determinism of the threaded backend itself ------------------------

TEST(BackendIdentical, RepeatedThreadedRunsAreBitIdentical) {
  // Regression guard for the shared-scratch races the lane model fixes:
  // repeated threaded runs (different interleavings) must agree exactly
  // with each other and with the sequential baseline.
  const Csr a = workloads::jump_coefficient_2d(18, 18, 5.0, 11);
  const DistCsr dist = make_dist(a, 16);
  const auto run = [&](const sim::Machine::Options& opts) {
    sim::Machine machine(16, opts);
    const PilutResult fact = pilut_factor(machine, dist, {.m = 8, .tau = 1e-3});
    return std::tuple{csr_key(fact.factors.l), csr_key(fact.factors.u),
                      fact.schedule.newnum, observe(machine)};
  };
  const auto baseline = run(sequential_opts());
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(run(threaded_opts()), baseline) << "trial " << trial;
  }
}

TEST(BackendIdentical, PoolSizeDoesNotAffectResults) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr dist = make_dist(a, 8);
  const auto run = [&](const sim::Machine::Options& opts) {
    sim::Machine machine(8, opts);
    const PilutResult fact = pilut_factor(machine, dist, {.m = 5, .tau = 1e-4});
    return std::tuple{csr_key(fact.factors.l), observe(machine)};
  };
  const auto baseline = run(sequential_opts());
  for (const int threads : {1, 2, 8, 64}) {
    EXPECT_EQ(run(threaded_opts(threads)), baseline) << "threads=" << threads;
  }
}

// --- Backend selection plumbing ----------------------------------------

TEST(BackendIdentical, ParseBackendAcceptsSpellingsAndRejectsTypos) {
  for (const char* name : {"seq", "sequential", "serial", "SEQUENTIAL"}) {
    EXPECT_EQ(sim::parse_backend(name), sim::Backend::kSequential) << name;
  }
  for (const char* name : {"threads", "thread", "threaded", "Threads"}) {
    EXPECT_EQ(sim::parse_backend(name), sim::Backend::kThreads) << name;
  }
  // A typo must throw, not silently fall back (a tsan CI job exporting a
  // misspelled PTILU_BACKEND would otherwise test nothing).
  EXPECT_THROW((void)sim::parse_backend("treads"), Error);
  EXPECT_THROW((void)sim::parse_backend("pthread"), Error);
  EXPECT_STREQ(sim::backend_name(sim::Backend::kSequential), "sequential");
  EXPECT_STREQ(sim::backend_name(sim::Backend::kThreads), "threads");
}

// --- Conformance under threads -----------------------------------------
//
// Every seeded protocol violation must throw the same report — same rank,
// same call site, same transcript — no matter which backend ran the step.
// The threaded backend defers per-rank conformance events and commits them
// in rank order at the barrier, electing the lowest violating rank, so the
// report text is reproduced verbatim.

sim::Machine::Options checked_opts(sim::Backend backend) {
  sim::Machine::Options opts;
  opts.check = true;
  opts.backend = backend;
  opts.threads = 4;
  return opts;
}

/// Run `scenario` on a fresh checked machine of each backend; return the
/// violation messages plus the post-throw machine observations (the
/// threaded barrier must also roll clocks/counters back to exactly the
/// state the sequential interpreter leaves behind).
template <typename Scenario>
void expect_same_violation(int nranks, Scenario&& scenario) {
  const auto run = [&](sim::Backend backend) {
    sim::Machine machine(nranks, checked_opts(backend));
    std::string what;
    try {
      scenario(machine);
      ADD_FAILURE() << "expected an SPMD conformance violation ("
                    << sim::backend_name(backend) << ")";
    } catch (const Error& e) {
      what = e.what();
    }
    return std::tuple{what, observe(machine)};
  };
  const auto seq = run(sim::Backend::kSequential);
  const auto thr = run(sim::Backend::kThreads);
  EXPECT_EQ(std::get<0>(seq), std::get<0>(thr));
  EXPECT_EQ(std::get<1>(seq), std::get<1>(thr));
  EXPECT_NE(std::get<0>(seq).find("SPMD conformance violation"), std::string::npos)
      << std::get<0>(seq);
}

TEST(BackendConformance, BadSendReportsMatch) {
  expect_same_violation(4, [](sim::Machine& m) {
    m.step([](sim::RankContext& ctx) {
      if (ctx.rank() == 2) ctx.send_indices(9, /*tag=*/3, {1, 2});
    }, "test/bad_send");
  });
}

TEST(BackendConformance, LowestViolatingRankElected) {
  // Several ranks violate in the same superstep; the sequential interpreter
  // reports the first one it reaches (the lowest rank), so the threaded
  // backend must elect the lowest violating rank too — regardless of which
  // worker thread finished first.
  expect_same_violation(8, [](sim::Machine& m) {
    m.step([](sim::RankContext& ctx) {
      if (ctx.rank() >= 3) ctx.send_indices(-1, /*tag=*/0, {7});
    }, "test/multi_bad");
  });
}

TEST(BackendConformance, DoubleDrainReportsMatch) {
  expect_same_violation(4, [](sim::Machine& m) {
    m.step([](sim::RankContext& ctx) {
      if (ctx.rank() == 0) ctx.send_indices(1, /*tag=*/1, {42});
    }, "test/send");
    m.step([](sim::RankContext& ctx) {
      (void)ctx.recv_all();
      if (ctx.rank() == 1) (void)ctx.recv_all();
    }, "test/double_drain");
  });
}

TEST(BackendConformance, CollectiveFingerprintReportsMatch) {
  expect_same_violation(4, [](sim::Machine& m) {
    m.step([](sim::RankContext& ctx) {
      ctx.declare_collective(sim::CollectiveOp::kUser,
                             ctx.rank() == 3 ? 16u : 8u, "test/reduce");
    }, "test/collective_step");
  });
}

TEST(BackendConformance, SkippedCollectiveReportsMatch) {
  expect_same_violation(4, [](sim::Machine& m) {
    m.step([](sim::RankContext& ctx) {
      if (ctx.rank() != 2) {
        ctx.declare_collective(sim::CollectiveOp::kSum, 8, "test/skipped");
      }
    }, "test/skip_step");
  });
}

TEST(BackendConformance, LostMessageReportsMatch) {
  expect_same_violation(4, [](sim::Machine& m) {
    m.step([](sim::RankContext& ctx) {
      if (ctx.rank() == 0) ctx.send_indices(1, /*tag=*/2, {7});
    }, "test/lost_send");
    m.step([](sim::RankContext&) {}, "test/forgot_drain");
  });
}

TEST(BackendConformance, QuiescenceReportsMatch) {
  expect_same_violation(4, [](sim::Machine& m) {
    m.step([](sim::RankContext& ctx) {
      if (ctx.rank() == 0) ctx.send_indices(3, /*tag=*/9, {1, 2, 3});
    }, "test/orphan_send");
    m.check_quiescent("test/end");
  });
}

TEST(BackendConformance, CleanRunsStayCleanAndReusable) {
  // After a caught violation the machine must keep working on both
  // backends, and a clean protocol must record zero violations threaded.
  sim::Machine m(4, checked_opts(sim::Backend::kThreads));
  try {
    m.step([](sim::RankContext& ctx) {
      if (ctx.rank() == 1) ctx.send_indices(7, /*tag=*/0, {1});
    }, "test/bad");
    FAIL() << "expected a violation";
  } catch (const Error&) {
  }
  EXPECT_EQ(m.checker()->violations(), 1u);
  m.reset();
  m.step([](sim::RankContext& ctx) {
    const int next = (ctx.rank() + 1) % ctx.nranks();
    ctx.send_reals(next, /*tag=*/1, {1.0, 2.0});
  }, "test/ring_send");
  m.step([](sim::RankContext& ctx) {
    EXPECT_EQ(ctx.recv_all().size(), 1u);
  }, "test/ring_recv");
  m.check_quiescent("test/ring_end");
  EXPECT_EQ(m.checker()->violations(), 1u);  // no new ones
}

// --- Stress & property tests -------------------------------------------

TEST(BackendStress, ManySendsPerRankUnderChecking) {
  // Hammer the staged-delivery and deferred-conformance paths with many
  // concurrent per-rank sends per superstep (run under tsan in CI). The
  // observable outcome must equal the sequential baseline exactly.
  constexpr int kRanks = 16;
  constexpr int kSteps = 40;
  const auto run = [&](sim::Backend backend) {
    sim::Machine machine(kRanks, checked_opts(backend));
    std::uint64_t received_words = 0;  // folded from per-rank slots below
    std::vector<std::uint64_t> rank_words(kRanks, 0);
    for (int s = 0; s < kSteps; ++s) {
      machine.step([&](sim::RankContext& ctx) {
        const int r = ctx.rank();
        for (const sim::Message& msg : ctx.recv_all()) {
          rank_words[r] += sim::decode_indices(msg).size();
        }
        ctx.charge_flops(100 + static_cast<std::uint64_t>(r));
        // Deterministic all-to-some pattern: each rank posts several
        // messages, some ranks post to the same destination.
        for (int k = 1; k <= 4; ++k) {
          const int to = (r * 3 + k * 5 + s) % kRanks;
          ctx.send_indices(to, /*tag=*/k, {static_cast<idx>(r), static_cast<idx>(s)});
        }
      }, "stress/step");
    }
    machine.step([&](sim::RankContext& ctx) {
      for (const sim::Message& msg : ctx.recv_all()) {
        rank_words[ctx.rank()] += sim::decode_indices(msg).size();
      }
    }, "stress/drain");
    machine.check_quiescent("stress/end");
    EXPECT_EQ(machine.checker()->violations(), 0u);
    for (const std::uint64_t w : rank_words) received_words += w;
    return std::tuple{received_words, observe(machine)};
  };
  EXPECT_EQ(run(sim::Backend::kSequential), run(sim::Backend::kThreads));
}

TEST(BackendProperty, RandomizedSendPatternsDeliverIdentically) {
  // Property: for arbitrary (seeded) send patterns, every rank's inbox
  // sequence — (sender, tag, payload) in order — is identical across
  // backends and across repeated threaded runs. This pins the delivery
  // order contract: (sender rank, program order) within each superstep.
  constexpr int kRanks = 8;
  constexpr int kSteps = 12;
  using Received = std::tuple<int, int, IdxVec>;
  for (const std::uint64_t seed : {11ull, 23ull, 57ull}) {
    // Precompute the pattern so every run replays the same program.
    Rng rng(seed);
    // [step][rank] -> list of (to, tag, payload)
    std::vector<std::vector<std::vector<std::tuple<int, int, IdxVec>>>> plan(kSteps);
    for (int s = 0; s < kSteps; ++s) {
      plan[s].resize(kRanks);
      for (int r = 0; r < kRanks; ++r) {
        const int nmsg = static_cast<int>(rng.next_below(5));
        for (int k = 0; k < nmsg; ++k) {
          const int to = static_cast<int>(rng.next_below(kRanks));
          const int tag = static_cast<int>(rng.next_below(8));
          IdxVec payload(1 + rng.next_below(6));
          for (idx& v : payload) v = static_cast<idx>(rng.next_below(1000));
          plan[s][r].emplace_back(to, tag, std::move(payload));
        }
      }
    }
    const auto run = [&](const sim::Machine::Options& opts) {
      sim::Machine machine(kRanks, opts);
      std::vector<std::vector<Received>> log(kRanks);  // rank-owned slots
      for (int s = 0; s < kSteps; ++s) {
        machine.step([&](sim::RankContext& ctx) {
          const int r = ctx.rank();
          for (const sim::Message& msg : ctx.recv_all()) {
            log[r].emplace_back(msg.from, msg.tag, sim::decode_indices(msg));
          }
          for (const auto& [to, tag, payload] : plan[s][r]) {
            ctx.send_indices(to, tag, payload);
          }
        }, "property/step");
      }
      machine.step([&](sim::RankContext& ctx) {
        for (const sim::Message& msg : ctx.recv_all()) {
          log[ctx.rank()].emplace_back(msg.from, msg.tag, sim::decode_indices(msg));
        }
      }, "property/drain");
      return std::tuple{log, observe(machine)};
    };
    const auto baseline = run(sequential_opts());
    const auto threaded_a = run(threaded_opts());
    const auto threaded_b = run(threaded_opts(2));
    EXPECT_EQ(baseline, threaded_a) << "seed=" << seed;
    EXPECT_EQ(threaded_a, threaded_b) << "seed=" << seed;
  }
}

TEST(BackendIdentical, AllreducesCombineInRankOrder) {
  // The per-rank allreduce slots must be combined 0..p-1 so floating-point
  // sums are bit-identical; exercised with values whose sum is
  // order-sensitive in floating point.
  const auto run = [&](const sim::Machine::Options& opts) {
    sim::Machine machine(8, opts);
    const double sum = machine.allreduce_sum(
        [](int r) { return r % 2 == 0 ? 1e16 : 1.0 + 1e-8 * r; }, "test/sum");
    const double mx = machine.allreduce_max(
        [](int r) { return std::sin(static_cast<double>(r)); }, "test/max");
    const long long ll = machine.allreduce_sum_ll(
        [](int r) { return (1ll << 40) + r; }, "test/sum_ll");
    return std::tuple{sum, mx, ll, observe(machine)};
  };
  EXPECT_EQ(run(sequential_opts()), run(threaded_opts()));
}

}  // namespace
}  // namespace ptilu
