// Batched FIFO solve service: queueing plan, latency accounting, and the
// batched preconditioner-application front-end (docs/SERVING.md).
//
// The serving pipeline has two halves, split so the *decisions* stay
// deterministic while the *measurements* can still be wall-clock:
//
//  1. plan_serve() forms batches from an arrival schedule using MODELED
//     per-batch service times — a single-server FIFO queue that, whenever
//     the server frees up, takes everything waiting (up to batch_max) as
//     one batch, or idles until the next arrival. Identical inputs give
//     identical batches on every backend and every run.
//  2. replay_latencies() re-runs the same queueing recursion over the
//     frozen batch plan with measured wall service times substituted,
//     yielding wall latencies without letting timing jitter change WHICH
//     requests were batched together.
//
// Batching matters because the batched trisolves (ilu/trisolve.hpp,
// DenseRhsBlock overloads) stream the factors once per batch instead of
// once per request and carry k register-resident accumulators per row —
// so a batch of k costs far less than k single solves, and throughput
// under load rises with queue depth. The latency numbers expose the other
// side of that trade (requests wait for the server to free up).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/serve/traffic.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu::serve {

/// One planned batch: requests [first, first + count) of the arrival
/// schedule, served together starting at start_s.
struct Batch {
  int first = 0;
  int count = 0;
  double start_s = 0.0;    ///< max(server free, arrival of last member)
  double service_s = 0.0;  ///< modeled service time used by the plan
};

/// Per-request and aggregate latency view of one served schedule.
struct ServeReport {
  std::vector<double> latency_s;  ///< completion - arrival, per request
  double total_s = 0.0;           ///< completion time of the last batch
};

/// Decomposed modeled cost of serving one batch, in the three pieces the
/// telemetry layer attributes (docs/SERVING.md §6): a per-batch cache
/// resolve (fingerprint probe over the operator bytes), a per-batch
/// shared factor stream (L and U read once — the term batching
/// amortizes), and a per-column solve contribution (substitution flops +
/// RHS/solution traffic). total_s(k) is THE definition of a batch's
/// modeled service time: a fixed-order fold (resolve + (shared + k
/// column terms)), so the decomposition re-sums to the total bit-exactly
/// — the identity check_serve_report.py re-verifies.
struct BatchCostModel {
  double cache_resolve_s = 0.0;
  double stream_shared_s = 0.0;
  double column_solve_s = 0.0;

  double total_s(int k) const;
};

/// Cost model for a factorization with (nnz_l, nnz_u) nonzeros of an
/// n-row operator with nnz entries, at the simulator's flop/mem rates —
/// the numbers live on the same axis as machine.modeled_time().
BatchCostModel modeled_batch_costs(idx n, std::uint64_t nnz, std::uint64_t nnz_l,
                                   std::uint64_t nnz_u, double flop_t, double mem_t);

/// Form batches from an arrival schedule (arrival times strictly
/// increasing) with a single-server FIFO greedy policy: when the server is
/// free and requests are queued, serve min(queued, batch_max) of them
/// immediately; otherwise idle until the next arrival. service_s(k) maps
/// batch size to modeled service time. Deterministic in its inputs.
std::vector<Batch> plan_serve(const std::vector<Request>& schedule, int batch_max,
                              const std::function<double(int)>& service_s);

/// Latency accounting for a frozen batch plan: re-run the queueing
/// recursion using `service_per_batch[b]` as batch b's service time (pass
/// the planned times to get modeled latencies, or measured wall times to
/// get wall latencies for the SAME batching decisions).
ServeReport replay_latencies(const std::vector<Batch>& batches,
                             const std::vector<Request>& schedule,
                             const std::vector<double>& service_per_batch);

/// A sample sorted once, read many times: the old free quantile() took
/// its vector by value and re-sorted per call, so reading p50 and p99
/// sorted the same latencies twice. Construct from the raw sample (moved
/// in, sorted in place), then every quantile() read is O(1).
/// Construction throws on an empty sample — an empty latency set has no
/// quantiles, and returning 0 silently (the old behavior) hid it.
class SortedSample {
 public:
  explicit SortedSample(std::vector<double> sample);

  /// Nearest-rank quantile: the ceil(q·N)-th smallest value (1-based),
  /// clamped to the ends; q must be in [0, 1]. quantile(0) is the
  /// minimum, quantile(1) the maximum, and with ties the tied value is
  /// returned for every rank it occupies.
  double quantile(double q) const;

  std::size_t size() const { return sorted_.size(); }
  const std::vector<double>& values() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// Apply one preconditioner to a batch of right-hand sides: columns of
/// `b` are solved into columns of `x` via the batched DenseRhsBlock
/// overloads when the factor supports them, column-by-column otherwise.
/// Column c equals the single-RHS apply of column c bit-for-bit (the
/// batched-kernel contract).
void apply_batch(const Preconditioner& factor, const DenseRhsBlock& b, DenseRhsBlock& x);

}  // namespace ptilu::serve
