// Tests for the per-rank phase tracing subsystem (sim::Trace): span
// recording and coalescing, phase-path nesting, rollup arithmetic, the
// elapsed-sums-to-modeled-time invariant on a real factorization, epoch
// handling across Machine::reset, deterministic Chrome JSON export, and
// the no-op guarantees of the disabled path.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/timer.hpp"
#include "ptilu/workloads/grids.hpp"

namespace ptilu::sim {
namespace {

DistCsr tiny_problem(int nranks) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 10.0, 20.0);
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, nranks, {.seed = 1});
  return DistCsr::create(a, p);
}

const PhaseStats* find_phase(const std::vector<Trace::PhaseRow>& rows,
                             const std::string& name) {
  for (const auto& row : rows) {
    if (row.name == name) return &row.stats;
  }
  return nullptr;
}

TEST(Trace, PhasePathsNest) {
  Trace trace;
  EXPECT_EQ(trace.current_phase(), "");
  {
    ScopedPhase outer(&trace, "factor");
    EXPECT_EQ(trace.current_phase(), "factor");
    {
      ScopedPhase inner(&trace, "interface");
      EXPECT_EQ(trace.current_phase(), "factor/interface");
      ScopedPhase deeper(&trace, "mis");
      EXPECT_EQ(trace.current_phase(), "factor/interface/mis");
    }
    EXPECT_EQ(trace.current_phase(), "factor");
  }
  EXPECT_EQ(trace.current_phase(), "");
}

TEST(Trace, NullScopedPhaseIsSafe) {
  ScopedPhase phase(nullptr, "anything");  // must not crash
  ScopedPhase nested(nullptr, "more");
}

TEST(Trace, RollupArithmetic) {
  Trace trace;
  Machine machine(2);
  machine.attach_trace(&trace);
  {
    ScopedPhase phase(&trace, "work");
    machine.step([](RankContext& ctx) { ctx.charge_flops(1000); });
  }
  machine.attach_trace(nullptr);

  const auto rows = trace.phase_rollup();
  const PhaseStats* work = find_phase(rows, "work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->flops, 2000u);  // both ranks charged 1000
  // Busy compute seconds = flops x per-flop cost, summed over ranks.
  EXPECT_NEAR(work->busy[static_cast<int>(SpanKind::kCompute)],
              2000 * machine.params().flop, 1e-15);
  // The whole run happened inside "work": its elapsed is the modeled time.
  EXPECT_NEAR(work->elapsed, machine.modeled_time(), 1e-15);
  EXPECT_NEAR(trace.attributed_time(), machine.modeled_time(), 1e-15);
}

TEST(Trace, SendRecvCountersMatchMachine) {
  Trace trace;
  Machine machine(2);
  machine.attach_trace(&trace);
  machine.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(1, 0, {1, 2, 3, 4});
  });
  machine.step([](RankContext& ctx) { (void)ctx.recv_all(); });
  machine.attach_trace(nullptr);

  const auto rows = trace.phase_rollup();
  const PhaseStats* root = find_phase(rows, "(untagged)");
  ASSERT_NE(root, nullptr);
  const auto totals = machine.total_counters();
  EXPECT_EQ(root->bytes_sent, totals.bytes_sent);
  EXPECT_EQ(root->messages, totals.messages_sent);
  EXPECT_EQ(root->bytes_recv, totals.bytes_sent);  // everything sent is drained
}

TEST(Trace, CollectiveCountersMatchMachine) {
  // collective() must keep the counter/trace ledgers reconciled just like
  // point-to-point traffic: the kAllreduce spans carry the same per-hop
  // message count and payload bytes the rank counters charge.
  Trace trace;
  Machine machine(4);
  machine.attach_trace(&trace);
  machine.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(2, 0, {5, 6});
  });
  machine.step([](RankContext& ctx) { (void)ctx.recv_all(); });
  machine.collective(256);
  machine.collective(0);
  machine.attach_trace(nullptr);

  const auto rows = trace.phase_rollup();
  const PhaseStats* root = find_phase(rows, "(untagged)");
  ASSERT_NE(root, nullptr);
  const auto totals = machine.total_counters();
  // 1 point-to-point send + 2 hops/rank/collective on 4 ranks x 2 collectives.
  EXPECT_EQ(totals.messages_sent, 1u + 4u * 2u * 2u);
  EXPECT_EQ(root->messages, totals.messages_sent);
  EXPECT_EQ(root->bytes_sent, totals.bytes_sent);
}

TEST(Trace, CoalescesAdjacentComputeSpans) {
  Trace trace;
  Machine machine(1);
  machine.attach_trace(&trace);
  machine.step([](RankContext& ctx) {
    ctx.charge_flops(10);
    ctx.charge_flops(20);  // contiguous, same phase/kind -> one span
  });
  machine.attach_trace(nullptr);
  int compute_spans = 0;
  for (const Span& span : trace.spans()) {
    compute_spans += span.kind == SpanKind::kCompute ? 1 : 0;
  }
  EXPECT_EQ(compute_spans, 1);
  EXPECT_EQ(trace.spans().front().flops, 30u);
}

TEST(Trace, AttributedTimeMatchesFactorization) {
  const int nranks = 4;
  const DistCsr dist = tiny_problem(nranks);
  Machine machine(nranks);
  Trace trace;
  machine.attach_trace(&trace);
  const PilutResult result =
      pilut_factor(machine, dist, {.m = 5, .tau = 1e-2, .pivot_rel = 1e-12});
  machine.attach_trace(nullptr);

  EXPECT_GT(result.stats.levels, 0);
  // The per-phase elapsed decomposition reproduces the aggregate modeled
  // time (near-exactly; the 1e-9 slack covers double-rounding only).
  EXPECT_NEAR(trace.attributed_time(), machine.modeled_time(),
              1e-9 * machine.modeled_time());
  // The rollup's counters agree with the machine's own ledger.
  std::uint64_t flops = 0, bytes_sent = 0, messages = 0, mem_bytes = 0;
  for (const auto& row : trace.phase_rollup()) {
    flops += row.stats.flops;
    bytes_sent += row.stats.bytes_sent;
    messages += row.stats.messages;
    mem_bytes += row.stats.mem_bytes;
  }
  const auto totals = machine.total_counters();
  EXPECT_EQ(flops, totals.flops);
  EXPECT_EQ(bytes_sent, totals.bytes_sent);
  EXPECT_EQ(messages, totals.messages_sent);
  EXPECT_EQ(mem_bytes, totals.mem_bytes);
  // The paper's phases all show up.
  const auto rows = trace.phase_rollup();
  EXPECT_NE(find_phase(rows, "factor/interior"), nullptr);
  EXPECT_NE(find_phase(rows, "factor/interface/form_reduced"), nullptr);
  EXPECT_NE(find_phase(rows, "factor/interface/mis/rounds"), nullptr);
  EXPECT_NE(find_phase(rows, "factor/interface/reduce"), nullptr);
}

TEST(Trace, DisabledModeIsBitIdentical) {
  const int nranks = 4;
  const DistCsr dist = tiny_problem(nranks);

  Machine plain(nranks);
  const PilutResult expected =
      pilut_factor(plain, dist, {.m = 5, .tau = 1e-2, .pivot_rel = 1e-12});

  Machine traced(nranks);
  Trace trace;
  traced.attach_trace(&trace);
  const PilutResult actual =
      pilut_factor(traced, dist, {.m = 5, .tau = 1e-2, .pivot_rel = 1e-12});
  traced.attach_trace(nullptr);

  // Tracing must not perturb the modeled clocks at all — bit-identical.
  EXPECT_EQ(plain.modeled_time(), traced.modeled_time());
  EXPECT_EQ(expected.stats.time_interior, actual.stats.time_interior);
  EXPECT_EQ(expected.stats.time_total, actual.stats.time_total);
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(plain.rank_time(r), traced.rank_time(r));
  }
}

TEST(Trace, RollupOnlyModeStoresNoSpans) {
  Trace trace(TraceOptions{.record_spans = false});
  Machine machine(2);
  machine.attach_trace(&trace);
  machine.step([](RankContext& ctx) { ctx.charge_flops(100); });
  machine.attach_trace(nullptr);
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_NEAR(trace.attributed_time(), machine.modeled_time(), 1e-15);
}

TEST(Trace, EpochsAppendAcrossMachineReset) {
  Trace trace;
  Machine machine(2);
  machine.attach_trace(&trace);
  machine.step([](RankContext& ctx) { ctx.charge_flops(100); });
  const double first_epoch = machine.modeled_time();
  machine.reset();
  machine.step([](RankContext& ctx) { ctx.charge_flops(100); });
  machine.attach_trace(nullptr);

  // Attributed time accumulates over both epochs.
  EXPECT_NEAR(trace.attributed_time(), first_epoch + machine.modeled_time(), 1e-15);
  // Second-epoch spans start at or after the first epoch's end.
  double max_first = 0.0;
  for (const Span& span : trace.spans()) {
    if (span.start < first_epoch) max_first = std::max(max_first, span.end);
  }
  EXPECT_LE(max_first, first_epoch + 1e-15);
}

TEST(Trace, ChromeExportIsDeterministic) {
  const auto run = [] {
    const DistCsr dist = tiny_problem(4);
    Machine machine(4);
    Trace trace;
    machine.attach_trace(&trace);
    pilut_factor(machine, dist, {.m = 5, .tau = 1e-2, .pivot_rel = 1e-12});
    machine.attach_trace(nullptr);
    std::ostringstream out;
    trace.write_chrome_trace(out);
    return out.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Trace, ChromeExportShape) {
  const DistCsr dist = tiny_problem(4);
  Machine machine(4);
  Trace trace;
  machine.attach_trace(&trace);
  pilut_factor(machine, dist, {.m = 5, .tau = 1e-2, .pivot_rel = 1e-12});
  machine.attach_trace(nullptr);
  std::ostringstream out;
  trace.write_chrome_trace(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One process_name metadata record per rank.
  for (int r = 0; r < 4; ++r) {
    const std::string name = "\"name\":\"rank " + std::to_string(r) + "\"";
    EXPECT_NE(json.find(name), std::string::npos) << "missing rank " << r;
  }
  EXPECT_NE(json.find("\"factor/interior\""), std::string::npos);
  // Balanced braces/brackets is a cheap structural sanity check; the ctest
  // validator (scripts/check_trace.py) does a full JSON parse.
  long depth = 0;
  for (const char c : json) {
    depth += (c == '{' || c == '[') ? 1 : 0;
    depth -= (c == '}' || c == ']') ? 1 : 0;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Trace, PhaseTablePrints) {
  const DistCsr dist = tiny_problem(4);
  Machine machine(4);
  Trace trace;
  machine.attach_trace(&trace);
  pilut_factor(machine, dist, {.m = 5, .tau = 1e-2, .pivot_rel = 1e-12});
  machine.attach_trace(nullptr);
  std::ostringstream out;
  trace.write_phase_table(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("factor/interior"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

TEST(Trace, SolveAndGmresPhasesAppear) {
  const int nranks = 4;
  const DistCsr dist = tiny_problem(nranks);
  const Halo halo = Halo::build(dist);
  Machine machine(nranks);
  const PilutResult fact =
      pilut_factor(machine, dist, {.m = 5, .tau = 1e-2, .pivot_rel = 1e-12});
  const RealVec b(dist.n(), 1.0);
  RealVec x(dist.n(), 0.0);
  Trace trace;
  machine.attach_trace(&trace);  // gmres_dist resets the machine at entry
  gmres_dist(machine, dist, halo, fact, b, x,
             {.restart = 10, .max_matvecs = 50, .rtol = 1e-6});
  machine.attach_trace(nullptr);

  const auto rows = trace.phase_rollup();
  EXPECT_NE(find_phase(rows, "gmres/residual/spmv"), nullptr);
  EXPECT_NE(find_phase(rows, "gmres/precond/trisolve/forward/interior"), nullptr);
  EXPECT_NE(find_phase(rows, "gmres/precond/trisolve/backward/levels"), nullptr);
  EXPECT_NE(find_phase(rows, "gmres/orthog"), nullptr);
  EXPECT_NEAR(trace.attributed_time(), machine.modeled_time(),
              1e-9 * std::max(machine.modeled_time(), 1e-30));
}

TEST(Trace, WallStampsAreSelfTimesKeptOutOfExports) {
  const auto spin = [](double seconds) {
    const WallTimer timer;
    while (timer.seconds() < seconds) {
    }
  };
  Trace trace;
  Machine machine(2);
  machine.attach_trace(&trace);
  const WallTimer whole;
  const WallTimer outer_scope;
  {
    ScopedPhase outer(machine, "outer");
    machine.step([](RankContext& ctx) { ctx.charge_flops(10); });
    ScopedPhase inner(machine, "inner");
    spin(2e-3);
  }
  const double outer_spent = outer_scope.seconds();
  {
    ScopedPhase quiet(machine, "quiet");
    spin(1e-3);
  }
  const double spent = whole.seconds();
  machine.attach_trace(nullptr);

  // The modeled rollup and its table ignore phases with wall time alone.
  EXPECT_EQ(find_phase(trace.phase_rollup(), "quiet"), nullptr);
  std::ostringstream table;
  trace.write_phase_table(table);
  EXPECT_EQ(table.str().find("quiet"), std::string::npos);

  const auto rows = trace.wall_rollup();
  const PhaseStats* outer = find_phase(rows, "outer");
  const PhaseStats* inner = find_phase(rows, "outer/inner");
  const PhaseStats* quiet = find_phase(rows, "quiet");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(quiet, nullptr);
  EXPECT_GE(inner->wall, 2e-3);
  EXPECT_GE(quiet->wall, 1e-3);
  EXPECT_GE(outer->wall, 0.0);
  // Self times: the nested spin is not counted in the outer phase too.
  EXPECT_LE(outer->wall + inner->wall, outer_spent);
  EXPECT_LE(outer->wall + inner->wall + quiet->wall, spent);

  std::ostringstream wall;
  trace.write_wall_table(wall);
  EXPECT_NE(wall.str().find("quiet"), std::string::npos);
  EXPECT_NE(wall.str().find("TOTAL"), std::string::npos);
}

TEST(Trace, ClearResetsEverything) {
  Trace trace;
  Machine machine(2);
  machine.attach_trace(&trace);
  {
    ScopedPhase phase(&trace, "work");
    machine.step([](RankContext& ctx) { ctx.charge_flops(10); });
  }
  machine.attach_trace(nullptr);
  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_TRUE(trace.phase_rollup().empty());
  EXPECT_EQ(trace.attributed_time(), 0.0);
  EXPECT_EQ(trace.current_phase(), "");
}

}  // namespace
}  // namespace ptilu::sim
