// Tests for the simulated distributed-memory machine (BSP cost model).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "ptilu/sim/machine.hpp"

namespace ptilu::sim {
namespace {

TEST(Machine, StartsAtZero) {
  Machine m(4);
  EXPECT_EQ(m.nranks(), 4);
  EXPECT_DOUBLE_EQ(m.modeled_time(), 0.0);
  EXPECT_EQ(m.supersteps(), 0u);
}

TEST(Machine, FlopsAdvanceClock) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.charge_flops(1000);
  });
  // Barrier raises everyone to rank 0's time plus sync cost.
  const double expected = 1000 * m.params().flop;
  EXPECT_GE(m.modeled_time(), expected);
  EXPECT_DOUBLE_EQ(m.rank_time(0), m.rank_time(1));
}

TEST(Machine, BarrierTakesMaxOverRanks) {
  Machine m(3);
  m.step([](RankContext& ctx) {
    ctx.charge_flops(static_cast<std::uint64_t>(ctx.rank()) * 1000);
  });
  const double expected_work = 2000 * m.params().flop;  // slowest rank
  EXPECT_GE(m.modeled_time(), expected_work);
  EXPECT_LT(m.modeled_time(), expected_work + 1e-4);
}

TEST(Machine, MessagesDeliveredNextStep) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(1, /*tag=*/7, {10, 20, 30});
  });
  bool received = false;
  m.step([&](RankContext& ctx) {
    const auto msgs = ctx.recv_all();
    if (ctx.rank() == 1) {
      ASSERT_EQ(msgs.size(), 1u);
      EXPECT_EQ(msgs[0].from, 0);
      EXPECT_EQ(msgs[0].tag, 7);
      const IdxVec data = decode_indices(msgs[0]);
      EXPECT_EQ(data, (IdxVec{10, 20, 30}));
      received = true;
    } else {
      EXPECT_TRUE(msgs.empty());
    }
  });
  EXPECT_TRUE(received);
}

TEST(Machine, RealPayloadRoundTrips) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 1) ctx.send_reals(0, 1, {1.5, -2.25});
  });
  m.step([](RankContext& ctx) {
    const auto msgs = ctx.recv_all();
    if (ctx.rank() == 0) {
      ASSERT_EQ(msgs.size(), 1u);
      EXPECT_EQ(decode_reals(msgs[0]), (RealVec{1.5, -2.25}));
    }
  });
}

TEST(Machine, CountersAccumulate) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    ctx.charge_flops(10);
    ctx.charge_mem(100);
    if (ctx.rank() == 0) ctx.send_reals(1, 0, {1.0, 2.0, 3.0});
  });
  EXPECT_EQ(m.counters(0).flops, 10u);
  EXPECT_EQ(m.counters(0).mem_bytes, 100u);
  EXPECT_EQ(m.counters(0).messages_sent, 1u);
  EXPECT_EQ(m.counters(0).bytes_sent, 24u);
  EXPECT_EQ(m.counters(1).messages_sent, 0u);
  const auto total = m.total_counters();
  EXPECT_EQ(total.flops, 20u);
  EXPECT_EQ(total.bytes_sent, 24u);
}

TEST(Machine, CommunicationCostsScaleWithBytes) {
  Machine small(2), big(2);
  small.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_reals(1, 0, RealVec(10, 1.0));
  });
  big.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_reals(1, 0, RealVec(100000, 1.0));
  });
  EXPECT_GT(big.modeled_time(), small.modeled_time());
}

TEST(Machine, MoreRanksCostMorePerBarrier) {
  Machine m2(2), m64(64);
  m2.step([](RankContext&) {});
  m64.step([](RankContext&) {});
  EXPECT_GT(m64.modeled_time(), m2.modeled_time());
}

TEST(Machine, AllreduceHelpers) {
  Machine m(4);
  const double sum = m.allreduce_sum([](int r) { return static_cast<double>(r); });
  EXPECT_DOUBLE_EQ(sum, 6.0);
  const double max = m.allreduce_max([](int r) { return static_cast<double>(r * r); });
  EXPECT_DOUBLE_EQ(max, 9.0);
  const long long count = m.allreduce_sum_ll([](int) { return 2LL; });
  EXPECT_EQ(count, 8);
  EXPECT_EQ(m.supersteps(), 3u);
}

TEST(Machine, ResetClearsState) {
  Machine m(2);
  m.step([](RankContext& ctx) { ctx.charge_flops(5); });
  m.reset();
  EXPECT_DOUBLE_EQ(m.modeled_time(), 0.0);
  EXPECT_EQ(m.counters(0).flops, 0u);
  EXPECT_EQ(m.supersteps(), 0u);
}

TEST(Machine, WorkstationClusterHasSlowerNetwork) {
  const auto t3d = MachineParams::cray_t3d();
  const auto cluster = MachineParams::workstation_cluster();
  EXPECT_GT(cluster.alpha, t3d.alpha);
  EXPECT_GT(cluster.beta, t3d.beta);
}

TEST(Machine, RejectsBadRank) {
  Machine m(2);
  EXPECT_THROW(m.step([](RankContext& ctx) { ctx.send_reals(5, 0, {1.0}); }), Error);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run = [] {
    Machine m(8);
    for (int s = 0; s < 10; ++s) {
      m.step([s](RankContext& ctx) {
        ctx.charge_flops(static_cast<std::uint64_t>((ctx.rank() * 7 + s) % 5) * 100);
        ctx.send_reals((ctx.rank() + 1) % 8, s, RealVec(static_cast<std::size_t>(ctx.rank() + 1), 1.0));
        (void)ctx.recv_all();
      });
    }
    return m.modeled_time();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace ptilu::sim

namespace ptilu::sim {
namespace {

TEST(Machine, CollectiveAdvancesAllClocks) {
  Machine m(8);
  const double before = m.modeled_time();
  m.collective(1024);
  EXPECT_GT(m.modeled_time(), before);
  EXPECT_EQ(m.supersteps(), 1u);
  // All ranks synchronized.
  for (int r = 1; r < 8; ++r) EXPECT_DOUBLE_EQ(m.rank_time(r), m.rank_time(0));
}

TEST(Machine, CollectiveCostsGrowWithRanksAndBytes) {
  Machine m2(2), m64(64);
  m2.collective(1000);
  m64.collective(1000);
  EXPECT_GT(m64.modeled_time(), m2.modeled_time());
  Machine small(4), big(4);
  small.collective(10);
  big.collective(1000000);
  EXPECT_GT(big.modeled_time(), small.modeled_time());
}

TEST(Machine, CollectiveChargesTreeMessages) {
  // The time model prices a log2(p) combining tree; the counters must
  // charge the same tree: one message per hop per rank, plus the payload.
  Machine m8(8);
  m8.collective(100);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(m8.counters(r).messages_sent, 3u);  // ceil(log2(8)) hops
    EXPECT_EQ(m8.counters(r).bytes_sent, 100u);
  }
  Machine m1(1);
  m1.collective(64);
  EXPECT_EQ(m1.counters(0).messages_sent, 1u);  // degenerate tree: one hop
  Machine m5(5);
  m5.collective(0);
  EXPECT_EQ(m5.counters(3).messages_sent, 3u);  // ceil(log2(5)) == 3
}

TEST(Machine, RecvAllSecondDrainSeesEmptyInbox) {
  // A second drain in the same superstep (or any later one) must see an
  // empty inbox, not the messages again. Checking is explicitly off: this
  // test pins the unchecked fallback behavior, while the conformance
  // checker (test_conformance.cpp) reports the same double drain as a
  // protocol violation.
  Machine m(2, Machine::Options{.check = false});
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(1, 7, {1, 2, 3});
  });
  m.step([](RankContext& ctx) {
    if (ctx.rank() != 1) return;
    const auto first = ctx.recv_all();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(decode_indices(first[0]), (IdxVec{1, 2, 3}));
    const auto second = ctx.recv_all();
    EXPECT_TRUE(second.empty());
  });
  m.step([](RankContext& ctx) { EXPECT_TRUE(ctx.recv_all().empty()); });
}

TEST(Machine, ChargeTransferAccountsBothSides) {
  Machine m(3);
  m.charge_transfer(0, 2, 8000);
  EXPECT_EQ(m.counters(0).messages_sent, 1u);
  EXPECT_EQ(m.counters(0).bytes_sent, 8000u);
  EXPECT_GT(m.rank_time(0), 0.0);
  EXPECT_GT(m.rank_time(2), 0.0);
  EXPECT_DOUBLE_EQ(m.rank_time(1), 0.0);
  // Sender pays latency on top of bandwidth; receiver only bandwidth.
  EXPECT_GT(m.rank_time(0), m.rank_time(2));
}

TEST(Machine, ChargeTransferRejectsBadRanks) {
  Machine m(2);
  EXPECT_THROW(m.charge_transfer(0, 5, 10), Error);
  EXPECT_THROW(m.charge_transfer(-1, 1, 10), Error);
}

// --- Transport contract, on both backends ------------------------------

class Transport : public ::testing::TestWithParam<Backend> {
 protected:
  Machine::Options options() const {
    return Machine::Options{.check = false, .backend = GetParam(), .threads = 4};
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, Transport,
                         ::testing::Values(Backend::kSequential, Backend::kThreads),
                         [](const ::testing::TestParamInfo<Backend>& param) {
                           return std::string(backend_name(param.param));
                         });

TEST_P(Transport, DeliversBySenderRankThenProgramOrder) {
  // Each rank's messages go to interleaved destinations; every inbox must
  // list its messages by sender rank, then in the order they were posted.
  constexpr int kRanks = 4;
  constexpr int kSends = 6;
  Machine m(kRanks, options());
  m.step([&](RankContext& ctx) {
    for (int k = 0; k < kSends; ++k) {
      const int to = (ctx.rank() + k) % kRanks;
      ctx.send_indices(to, 10 * ctx.rank() + k, {ctx.rank(), k});
    }
  });
  std::vector<std::vector<std::tuple<int, int, IdxVec>>> got(kRanks);
  m.step([&](RankContext& ctx) {
    for (const Message& msg : ctx.recv_all()) {
      got[ctx.rank()].emplace_back(msg.from, msg.tag, decode_indices(msg));
    }
  });
  for (int d = 0; d < kRanks; ++d) {
    std::vector<std::tuple<int, int, IdxVec>> expected;
    for (int s = 0; s < kRanks; ++s) {
      for (int k = 0; k < kSends; ++k) {
        if ((s + k) % kRanks == d) expected.emplace_back(s, 10 * s + k, IdxVec{s, k});
      }
    }
    EXPECT_EQ(got[d], expected) << "rank " << d;
  }
}

TEST_P(Transport, PayloadViewsOutliveTheReceiversOwnLargeSends) {
  // A delivered payload is a view into its sender's arena. It must stay
  // intact while the receiver, in the same superstep, posts a message large
  // enough to grow its own arena several times over.
  constexpr int kRanks = 4;
  constexpr std::size_t kLarge = 1 << 18;  // reals: 2 MiB
  Machine m(kRanks, options());
  m.step([&](RankContext& ctx) {
    const int r = ctx.rank();
    ctx.send_indices((r + 1) % kRanks, 1, {r, 2 * r, 3 * r});
    ctx.send_reals((r + 1) % kRanks, 2, {0.5 * r});
  });
  std::vector<int> intact(kRanks, 0);
  m.step([&](RankContext& ctx) {
    const int r = ctx.rank();
    const std::span<const Message> inbox = ctx.recv_all();
    const std::span<real> large = ctx.send_in_place<real>((r + 2) % kRanks, 3, kLarge);
    for (std::size_t i = 0; i < large.size(); ++i) large[i] = static_cast<real>(i);
    const int from = (r + kRanks - 1) % kRanks;
    intact[r] = inbox.size() == 2 &&
                decode_indices(inbox[0]) == IdxVec{from, 2 * from, 3 * from} &&
                decode_reals(inbox[1]) == RealVec{0.5 * from};
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(intact[r], 1) << "rank " << r;
  m.step([&](RankContext& ctx) {
    const std::span<const Message> inbox = ctx.recv_all();
    ASSERT_EQ(inbox.size(), 1u);
    const std::span<const real> large = inbox[0].as<real>();
    ASSERT_EQ(large.size(), kLarge);
    EXPECT_EQ(large[kLarge - 1], static_cast<real>(kLarge - 1));
  });
}

TEST_P(Transport, ZeroByteMessagesAreDeliveredAndCounted) {
  Machine m(2, options());
  m.step([](RankContext& ctx) {
    if (ctx.rank() != 0) return;
    EXPECT_TRUE(ctx.send_in_place(1, 5, 0).empty());
    ctx.send_indices(1, 6, {});
  });
  EXPECT_EQ(m.counters(0).messages_sent, 2u);
  EXPECT_EQ(m.counters(0).bytes_sent, 0u);
  const double two_latencies = 2 * m.params().alpha;
  EXPECT_GE(m.modeled_time(), two_latencies);
  m.step([](RankContext& ctx) {
    const std::span<const Message> inbox = ctx.recv_all();
    if (ctx.rank() == 0) {
      EXPECT_TRUE(inbox.empty());
      return;
    }
    ASSERT_EQ(inbox.size(), 2u);
    EXPECT_EQ(inbox[0].tag, 5);
    EXPECT_EQ(inbox[1].tag, 6);
    EXPECT_TRUE(inbox[0].payload.empty());
    EXPECT_TRUE(inbox[1].payload.empty());
  });
}

TEST_P(Transport, CollectiveBetweenMessageSuperstepsKeepsTheInbox) {
  // collective() counts as a superstep but delivers nothing: messages
  // delivered before it are still there, payloads intact, after it.
  Machine m(3, options());
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(1, 4, {42, 43});
  });
  m.collective(8, "test/collective");
  EXPECT_EQ(m.supersteps(), 2u);
  m.step([](RankContext& ctx) {
    const std::span<const Message> inbox = ctx.recv_all();
    if (ctx.rank() != 1) {
      EXPECT_TRUE(inbox.empty());
      return;
    }
    ctx.send_indices(2, 5, {7});  // posted while the view is held
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_EQ(inbox[0].from, 0);
    EXPECT_EQ(decode_indices(inbox[0]), (IdxVec{42, 43}));
  });
  m.step([](RankContext& ctx) {
    const std::span<const Message> inbox = ctx.recv_all();
    EXPECT_EQ(inbox.size(), ctx.rank() == 2 ? 1u : 0u);
  });
}

TEST_P(Transport, ResetDropsStagedAndDeliveredTraffic) {
  Machine m(3, options());
  m.step([](RankContext& ctx) { ctx.send_indices((ctx.rank() + 1) % 3, 1, {1}); });
  // A body that throws after posting leaves traffic staged but undelivered.
  EXPECT_THROW(m.step([](RankContext& ctx) {
                 ctx.send_indices((ctx.rank() + 2) % 3, 2, {2});
                 if (ctx.rank() == 1) throw Error("rank 1 fails");
               }),
               Error);
  m.reset();
  EXPECT_EQ(m.supersteps(), 0u);
  EXPECT_EQ(m.total_counters().messages_sent, 0u);
  for (int step = 0; step < 2; ++step) {
    m.step([](RankContext& ctx) { EXPECT_TRUE(ctx.recv_all().empty()); });
  }
  EXPECT_EQ(m.total_counters().messages_sent, 0u);
  EXPECT_DOUBLE_EQ(m.rank_time(0), m.rank_time(2));
}

}  // namespace
}  // namespace ptilu::sim
