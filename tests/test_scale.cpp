// High-rank identity tests for the sparse neighbor-routing substrate.
//
// The seed-scale differential suites (test_backend_identical.cpp) stop at
// 16 ranks; the sparse inbox and slot-indexed MIS batches exist precisely
// so the machine scales to thousands of ranks, and a structure bug that
// only shows at high p (a map rebalance under concurrent drains, a slot
// remap off by one at high fan-in) would sail through the small suites.
// These tests run the same observational-identity checks at p = 1024 and
// p = 4096: modeled time, per-rank clocks, counters, supersteps, and the
// metrics report must be bit-identical across the sequential and threaded
// backends, and total message traffic must stay proportional to the
// neighbor structure (never O(p^2)).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {
namespace {

sim::Machine::Options backend_opts(sim::Backend backend, bool metrics = false) {
  sim::Machine::Options opts;
  opts.backend = backend;
  opts.threads = 4;  // force a real worker pool even on 1-core CI hosts
  opts.metrics = metrics;
  return opts;
}

using CounterRow = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;
struct MachineObservation {
  double modeled_time = 0.0;
  std::vector<double> rank_times;
  std::uint64_t supersteps = 0;
  std::vector<CounterRow> counters;

  bool operator==(const MachineObservation&) const = default;
};

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

/// Three supersteps of a bidirectional ring exchange plus a tree
/// collective — the halo pattern bench_scale models, at p ranks.
void run_ring_program(sim::Machine& m) {
  const int p = m.nranks();
  for (int step = 0; step < 3; ++step) {
    m.step(
        [&](sim::RankContext& ctx) {
          const int r = ctx.rank();
          for (const sim::Message& msg : ctx.recv_all()) {
            ctx.charge_mem(msg.payload.size());
          }
          const IdxVec halo(8, static_cast<idx>(r));
          ctx.send_indices((r + 1) % p, /*tag=*/1, halo);
          ctx.send_indices((r + p - 1) % p, /*tag=*/2, halo);
          ctx.charge_flops(64 + static_cast<std::uint64_t>(r % 5));
        },
        "scale/ring");
  }
  m.step([&](sim::RankContext& ctx) { ctx.recv_all(); }, "scale/drain");
  m.collective(/*payload_bytes=*/64, "scale/reduce");
}

TEST(ScaleIdentity, RingExchangeAtP1024AcrossBackends) {
  const int p = 1024;
  sim::Machine seq(p, backend_opts(sim::Backend::kSequential));
  sim::Machine thr(p, backend_opts(sim::Backend::kThreads));
  run_ring_program(seq);
  run_ring_program(thr);
  EXPECT_EQ(observe(seq), observe(thr));
  // Ring traffic: exactly 2 point-to-point sends per rank per exchange
  // step plus the log2(p) collective tree hops — nowhere near p^2.
  const sim::RankCounters total = seq.total_counters();
  const std::uint64_t ring_msgs = 3ULL * 2ULL * static_cast<std::uint64_t>(p);
  EXPECT_GE(total.messages_sent, ring_msgs);
  EXPECT_LE(total.messages_sent, ring_msgs + 16ULL * p);
}

TEST(ScaleIdentity, MetricsReportByteIdenticalAtP1024) {
  const int p = 1024;
  std::string reports[2];
  int i = 0;
  for (const sim::Backend backend :
       {sim::Backend::kSequential, sim::Backend::kThreads}) {
    sim::Machine m(p, backend_opts(backend, /*metrics=*/true));
    ASSERT_NE(m.metrics(), nullptr);
    m.metrics()->push_phase("scale/ring");
    run_ring_program(m);
    m.metrics()->pop_phase();
    std::ostringstream os;
    m.metrics()->write_report(os, m);
    reports[i++] = os.str();
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_NE(reports[0].find("\"schema\": \"ptilu-report-v2\""), std::string::npos);
  // The sparse comm summary must reflect the ring: every rank talks to
  // exactly 2 peers, so the phase's pair count is 2p, not p^2.
  std::ostringstream want;
  want << "\"comm_pairs\": " << 2 * p;
  EXPECT_NE(reports[0].find(want.str()), std::string::npos) << reports[0].substr(0, 2000);
}

TEST(ScaleIdentity, SparseInboxSkipsIdleRanksAtP4096) {
  // Only 8 of 4096 ranks ever communicate. With the dense O(p^2) inbox this
  // pattern still walked every (rank, rank) cell; the sparse inbox must
  // deliver it with per-rank counters untouched on the idle 4088 ranks and
  // stay bit-identical across backends.
  const int p = 4096;
  const auto run = [&](sim::Machine& m) {
    for (int step = 0; step < 2; ++step) {
      m.step(
          [&](sim::RankContext& ctx) {
            const int r = ctx.rank();
            for (const sim::Message& msg : ctx.recv_all()) {
              ctx.charge_mem(msg.payload.size());
            }
            if (r % 512 == 0) {
              ctx.send_indices((r + 512) % p, /*tag=*/7, IdxVec(16, r));
            }
          },
          "scale/sparse");
    }
    m.step([&](sim::RankContext& ctx) { ctx.recv_all(); }, "scale/drain");
  };
  sim::Machine seq(p, backend_opts(sim::Backend::kSequential));
  sim::Machine thr(p, backend_opts(sim::Backend::kThreads));
  run(seq);
  run(thr);
  EXPECT_EQ(observe(seq), observe(thr));
  for (int r = 0; r < p; ++r) {
    const sim::RankCounters& c = seq.counters(r);
    if (r % 512 == 0) {
      EXPECT_EQ(c.messages_sent, 2u) << "rank " << r;
    } else {
      EXPECT_EQ(c.messages_sent, 0u) << "rank " << r;
      EXPECT_EQ(c.mem_bytes, 0u) << "rank " << r;
    }
  }
}

TEST(ScaleIdentity, MisDistRingAtP2048AcrossBackends) {
  // A 4096-vertex ring distributed 2 vertices per rank across 2048 ranks:
  // every rank has exactly 2 remote neighbor ranks, so the slot-indexed
  // batches exercise the sparse path at a scale where the old dense
  // per-peer scan would touch 2048^2 batch slots per round.
  const int p = 2048;
  const idx n = 2 * p;
  IdxVec owner(n);
  for (idx v = 0; v < n; ++v) owner[v] = static_cast<idx>(v / 2);
  std::vector<IdxVec> verts_of(p);
  std::vector<std::vector<IdxVec>> adj(p);
  for (int r = 0; r < p; ++r) {
    for (idx k = 0; k < 2; ++k) {
      const idx v = 2 * r + k;
      verts_of[r].push_back(v);
      adj[r].push_back({(v + n - 1) % n, (v + 1) % n});
    }
  }
  const DistGraph g = DistGraph::from_adjacency(n, &owner, verts_of, adj);
  sim::Machine seq(p, backend_opts(sim::Backend::kSequential));
  sim::Machine thr(p, backend_opts(sim::Backend::kThreads));
  const IdxVec picked_seq = mis_dist(seq, g, {.seed = 7, .rounds = 6});
  const IdxVec picked_thr = mis_dist(thr, g, {.seed = 7, .rounds = 6});
  EXPECT_EQ(picked_seq, picked_thr);
  EXPECT_EQ(observe(seq), observe(thr));
  // Independence on the ring: no two chosen ids adjacent (ascending order
  // makes the neighbor check a scan; also guard the wrap-around pair).
  ASSERT_GT(picked_seq.size(), 0u);
  for (std::size_t i = 1; i < picked_seq.size(); ++i) {
    EXPECT_GT(picked_seq[i] - picked_seq[i - 1], 1) << "adjacent pair at " << i;
  }
  EXPECT_FALSE(picked_seq.front() == 0 && picked_seq.back() == n - 1);
}

}  // namespace
}  // namespace ptilu
