// Parallel forward/backward substitution (§5 of the paper).
//
// The solves exploit the structure the parallel factorization imposed:
// phase 1 handles each rank's interior block with purely local work;
// phase 2 walks the q independent-set levels — each level's unknowns are
// computed concurrently and the freshly computed boundary values are
// shipped to the ranks whose later rows reference them. The backward
// substitution runs the levels in reverse and finishes with the local
// interior blocks. Each level is one superstep, which is exactly the "q
// implicit synchronization points" the paper discusses.
//
// Every superstep's communication is planned once, when the solver is
// built: which values each rank ships to which peer, in which ghost slot
// each received value lands, and which entries of which rows read a ghost.
// A solve then runs each superstep as flat array work (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sim/machine.hpp"

namespace ptilu {

/// Precomputed communication plans for the level-by-level solves. Built
/// once per factorization (the setup cost is not part of the per-solve
/// modeled time, matching how such solvers amortize setup in practice).
/// The solves only read the plans, so one solver serves concurrent callers,
/// each with its own machine.
class DistTriangularSolver {
 public:
  /// Throws ptilu::Error if some row reads a remote value that the schedule
  /// computes in the same or a later superstep.
  DistTriangularSolver(const IluFactors& factors, const PilutSchedule& schedule);

  /// Solve L y = b (all vectors in the NEW ordering).
  void forward(sim::Machine& machine, const RealVec& b, RealVec& y) const;

  /// Solve U x = y (new ordering). x may be y itself.
  void backward(sim::Machine& machine, const RealVec& y, RealVec& x) const;

  /// x = U^{-1} L^{-1} b — one full preconditioner application.
  void apply(sim::Machine& machine, const RealVec& b, RealVec& x) const;

  /// Batched multi-RHS solves: one level sweep carries all k columns, and
  /// each freshly computed interface row ships its k values in the SAME
  /// per-peer message a single-RHS solve would have used — per level and
  /// peer the batched solve pays one message latency where k single-RHS
  /// solves pay k, which is the serving-throughput amortization
  /// (docs/SERVING.md). The single-RHS solves are the k = 1 case of the
  /// same sweeps, so column c of the result is bit-identical to the
  /// single-RHS solve of column c (held by tests/test_dist_solve.cpp).
  void forward(sim::Machine& machine, const DenseRhsBlock& b, DenseRhsBlock& y) const;
  void backward(sim::Machine& machine, const DenseRhsBlock& y, DenseRhsBlock& x) const;
  void apply(sim::Machine& machine, const DenseRhsBlock& b, DenseRhsBlock& x) const;

  int levels() const { return schedule_->levels(); }

  /// The factorization schedule this solver was built against (callers
  /// such as gmres_dist need its permutation to scatter vectors into the
  /// factored ordering when sharing one solver across many solves).
  const PilutSchedule& schedule() const { return *schedule_; }

 private:
  /// One rank's message of one superstep: the values of slot_col[first ..
  /// first+count) go to `peer` (those are the peer's ghost slots, so the
  /// sender ships exactly the columns the receiver lists, in its order).
  struct Send {
    int step;
    int peer;
    std::size_t first;
    std::size_t count;
  };

  /// The communication of one sweep, flat and packed rank by rank. Steps
  /// count the sweep's supersteps from 0. Storage grows with the traffic:
  /// a rank that sends or reads nothing stores nothing but its offsets.
  struct SweepPlan {
    /// Rank r's ghost slots are [slot_ptr[r], slot_ptr[r+1]); slot_col
    /// names the column each holds, in delivery order (step, then sender
    /// rank, then the sender's program order).
    std::vector<std::size_t> slot_ptr{0};
    IdxVec slot_col;
    /// Rank r's messages are sends[send_ptr[r] .. send_ptr[r+1]), in the
    /// order it posts them: by step, then peer ascending.
    std::vector<std::size_t> send_ptr{0};
    std::vector<Send> sends;
    /// The rows whose L (forward) or strictly upper U (backward) entries
    /// read ghosts; GhostRef slots are rank-local.
    GhostReads reads;
  };

  const IluFactors* factors_;
  const PilutSchedule* schedule_;
  /// Rank r's level rows (new ids, ascending): level_rows_[level_ptr_[r] ..
  /// level_ptr_[r+1]). The forward sweep walks them up, the backward down.
  std::vector<std::size_t> level_ptr_;
  IdxVec level_rows_;
  SweepPlan fwd_;
  SweepPlan bwd_;

  /// level_of[i - n_interior] is the level of row i.
  SweepPlan build_plan(bool forward, const IdxVec& level_of) const;

  /// The sweeps over k column-major columns with row stride `stride`; x may
  /// be y itself (row i reads y[i] before it writes x[i]).
  void sweep_forward(sim::Machine& machine, const real* b, real* y, std::size_t stride,
                     int k) const;
  void sweep_backward(sim::Machine& machine, const real* y, real* x, std::size_t stride,
                      int k) const;

  /// Post rank `ctx.rank()`'s messages of superstep `step` from x,
  /// advancing `next` through its sends.
  static void post(sim::RankContext& ctx, const SweepPlan& plan, int step,
                   std::size_t& next, const real* x, std::size_t stride, int k);
  /// Receive the rank's messages of this superstep into its next ghost
  /// slots (`filled` counts those already filled), checking every index
  /// against the column its slot was planned for. The sweep's last drain
  /// also checks that every slot was filled.
  static void drain(sim::RankContext& ctx, const SweepPlan& plan, std::size_t& filled,
                    real* ghost, int k, const char* site, bool last);
};

}  // namespace ptilu
