// Fixture: all traffic lexically inside live ScopedPhase scopes, including
// a nested block whose phase outlives the inner lambda, and a phase that
// *closes* before unrelated (non-comm) code runs.
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/trace.hpp"

void clean(ptilu::sim::Machine& machine, const ptilu::IdxVec& data) {
  ptilu::sim::ScopedPhase solve_phase(machine, "fixture/solve");
  {
    ptilu::sim::ScopedPhase span(machine, "exchange");
    machine.step([&](ptilu::sim::RankContext& ctx) {
      ctx.send_indices((ctx.rank() + 1) % ctx.nranks(), /*tag=*/0, data);
      ctx.send_reals((ctx.rank() + 1) % ctx.nranks(), /*tag=*/1, {});
      const auto values = ctx.send_in_place<ptilu::real>(0, /*tag=*/2, data.size());
      (void)values;
      ctx.send_in_place(0, /*tag=*/3, 16);
    }, "fixture/send");
  }
  machine.step([&](ptilu::sim::RankContext& ctx) {
    for (const ptilu::sim::Message& msg : ctx.recv_all()) {
      (void)msg;
    }
  }, "fixture/drain");
  machine.check_quiescent("fixture/end");
}
