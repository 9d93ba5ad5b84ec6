// Fixture: a helper whose callers are always phased — the idiom
// src/pilut/trisolve_dist.cpp's post/drain helpers use.
#include "ptilu/sim/machine.hpp"

// Callers invoke this inside their own ScopedPhase scopes.
void ship(ptilu::sim::RankContext& ctx, int peer, const ptilu::IdxVec& data) {
  // ptilu-lint: allow(spmd-phase-coverage)
  ctx.send_indices(peer, /*tag=*/0, data);
  ctx.send_reals(peer, /*tag=*/1, {});  // ptilu-lint: allow(spmd-phase-coverage)
  // ptilu-lint: allow(spmd-phase-coverage)
  const auto values = ctx.send_in_place<ptilu::real>(peer, /*tag=*/2, data.size());
  (void)values;
}

void drain(ptilu::sim::RankContext& ctx) {
  for (const ptilu::sim::Message& msg :
       ctx.recv_all()) {  // ptilu-lint: allow(spmd-phase-coverage)
    (void)msg;
  }
}
