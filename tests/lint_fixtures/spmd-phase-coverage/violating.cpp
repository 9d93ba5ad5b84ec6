// Fixture: message traffic outside any lexical ScopedPhase scope — traces
// and metrics would attribute it to the empty phase.
#include "ptilu/sim/machine.hpp"

void violating(ptilu::sim::Machine& machine, const ptilu::IdxVec& data) {
  machine.step([&](ptilu::sim::RankContext& ctx) {
    ctx.send_indices((ctx.rank() + 1) % ctx.nranks(), /*tag=*/0, data);
  }, "fixture/send");
  machine.step([&](ptilu::sim::RankContext& ctx) {
    // In-place sends, typed and untyped, are traffic too.
    const auto values = ctx.send_in_place<ptilu::real>(0, /*tag=*/2, data.size());
    (void)values;
    ctx.send_in_place(0, /*tag=*/3, 16);
  }, "fixture/send_in_place");
  machine.step([&](ptilu::sim::RankContext& ctx) {
    for (const ptilu::sim::Message& msg : ctx.recv_all()) {
      (void)msg;
    }
  }, "fixture/drain");
}
