#include "ptilu/serve/solve_service.hpp"

#include <algorithm>
#include <cmath>

#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu::serve {

double BatchCostModel::total_s(int k) const {
  PTILU_CHECK(k >= 1, "batch size must be >= 1");
  // Fixed fold order — resolve + (shared + column + column + ...) — so the
  // decomposition the telemetry layer serializes re-sums to this total
  // bit-exactly in any IEEE-754 reimplementation (check_serve_report.py).
  double acc = stream_shared_s;
  for (int c = 0; c < k; ++c) acc += column_solve_s;
  return cache_resolve_s + acc;
}

BatchCostModel modeled_batch_costs(idx n, std::uint64_t nnz, std::uint64_t nnz_l,
                                   std::uint64_t nnz_u, double flop_t, double mem_t) {
  BatchCostModel costs;
  // Cache resolve: the fingerprint probe reads the full operator once —
  // row pointers, column indices, and value bit patterns (see
  // matrix_fingerprint) — pure memory traffic, paid once per batch.
  const double probe_bytes =
      static_cast<double>(n + 1) * sizeof(idx) +
      static_cast<double>(nnz) * (sizeof(real) + sizeof(idx));
  costs.cache_resolve_s = probe_bytes * mem_t;
  // Factor traffic: the batched kernels stream L and U (index + value per
  // entry) ONCE for the whole batch — this is the term batching amortizes.
  const double factor_bytes =
      static_cast<double>(nnz_l + nnz_u) * (sizeof(real) + sizeof(idx));
  costs.stream_shared_s = factor_bytes * mem_t;
  // Per column: one multiply-add per off-diagonal L and U entry plus one
  // divide per row, and RHS/solution/scratch vector traffic — neither is
  // amortizable across the batch.
  const double column_flops =
      2.0 * static_cast<double>(nnz_l + nnz_u) + static_cast<double>(n);
  const double column_bytes = 3.0 * static_cast<double>(n) * sizeof(real);
  costs.column_solve_s = column_flops * flop_t + column_bytes * mem_t;
  return costs;
}

std::vector<Batch> plan_serve(const std::vector<Request>& schedule, int batch_max,
                              const std::function<double(int)>& service_s) {
  PTILU_CHECK(!schedule.empty(), "plan_serve: empty schedule");
  PTILU_CHECK(batch_max >= 1, "plan_serve: batch_max must be >= 1");
  const int n = static_cast<int>(schedule.size());
  std::vector<Batch> batches;
  double server_free = 0.0;
  int next = 0;  // first unserved request
  while (next < n) {
    // Everything that has arrived by the time the server frees up is
    // queued; if nothing has, the server idles until the next arrival.
    const double ready = std::max(server_free, schedule[static_cast<std::size_t>(next)].arrival_s);
    int queued = 0;
    while (next + queued < n &&
           schedule[static_cast<std::size_t>(next + queued)].arrival_s <= ready &&
           queued < batch_max) {
      ++queued;
    }
    Batch batch;
    batch.first = next;
    batch.count = queued;
    batch.start_s = ready;
    batch.service_s = service_s(queued);
    PTILU_CHECK(batch.service_s > 0.0, "plan_serve: service time must be positive");
    batches.push_back(batch);
    server_free = ready + batch.service_s;
    next += queued;
  }
  return batches;
}

ServeReport replay_latencies(const std::vector<Batch>& batches,
                             const std::vector<Request>& schedule,
                             const std::vector<double>& service_per_batch) {
  PTILU_CHECK(service_per_batch.size() == batches.size(),
              "replay_latencies: one service time per batch required");
  ServeReport report;
  report.latency_s.assign(schedule.size(), 0.0);
  double server_free = 0.0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    // Same recursion as plan_serve: the batch starts when the server is
    // free and its last member has arrived. Membership is frozen — only
    // the service times differ between the modeled and wall replays.
    const idx last = batch.first + batch.count - 1;
    const double start =
        std::max(server_free, schedule[static_cast<std::size_t>(last)].arrival_s);
    const double done = start + service_per_batch[b];
    for (int r = batch.first; r < batch.first + batch.count; ++r) {
      report.latency_s[static_cast<std::size_t>(r)] =
          done - schedule[static_cast<std::size_t>(r)].arrival_s;
    }
    server_free = done;
    report.total_s = done;
  }
  return report;
}

SortedSample::SortedSample(std::vector<double> sample) : sorted_(std::move(sample)) {
  PTILU_CHECK(!sorted_.empty(), "SortedSample: empty sample has no quantiles");
  std::sort(sorted_.begin(), sorted_.end());
}

double SortedSample::quantile(double q) const {
  PTILU_CHECK(q >= 0.0 && q <= 1.0, "quantile order out of [0, 1]");
  // Nearest-rank: ceil(q * N)-th smallest (1-based), clamped to the ends.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted_[std::min(index, sorted_.size() - 1)];
}

void apply_batch(const Preconditioner& factor, const DenseRhsBlock& b, DenseRhsBlock& x) {
  PTILU_CHECK(b.n == x.n && b.k == x.k, "apply_batch: block shape mismatch");
  if (const auto* scalar = dynamic_cast<const IluPreconditioner*>(&factor);
      scalar != nullptr && scalar->permutation().empty()) {
    ilu_apply(scalar->factors(), b, x);
    return;
  }
  // Generic fallback (permuted/Jacobi/identity factors): column-at-a-time
  // through the virtual single-RHS interface.
  for (int c = 0; c < b.k; ++c) factor.apply(b.col(c), x.col(c));
}

}  // namespace ptilu::serve
