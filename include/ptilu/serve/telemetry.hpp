// Serving telemetry: the third observability pillar beside sim::Trace and
// sim::Metrics (docs/SERVING.md §6, docs/OBSERVABILITY.md, DESIGN.md §14).
//
// Three instruments, all on the modeled-seconds axis so every number is
// bit-identical across backends, runs, and hosts:
//
//  * LatencyHistogram — a streaming, MERGEABLE log-bucketed histogram.
//    Bucket boundaries are fixed at construction of the *type*, not of the
//    data: kSubBuckets linear sub-buckets per power-of-two octave, with
//    boundaries (1 + i/kSubBuckets)·2^e. kSubBuckets is a power of two, so
//    every boundary is exactly representable and recomputable (ldexp of a
//    dyadic rational) — a validator in any language reproduces them
//    bit-for-bit. Merging histograms is element-wise count addition and
//    therefore order-independent; quantile reads return the upper edge of
//    the bucket holding the nearest-rank sample, which bounds the true
//    quantile from above within a documented relative resolution of
//    1/kSubBuckets. Σ bucket counts == values recorded, always.
//
//  * EventLog — the request-lifecycle journal. Every request carries its
//    deterministic id (index in the arrival schedule) through
//    enqueue → cache resolve (hit/miss + matrix fingerprint) → batch
//    admission → solve start → completion, each event stamped with a
//    modeled timestamp and, optionally, a wall timestamp taken via the
//    sanctioned support/timer.hpp access point (the library itself never
//    reads a clock — callers pass wall readings in). The log exports
//    Chrome trace_event spans, so serving timelines open in the same
//    viewer as the factorization traces (docs/TRACING.md).
//
//  * Batch/stream attribution — the serving counterpart of sim::Metrics'
//    superstep straggler attribution. attribute_batches() decomposes each
//    planned batch's service time into cache-resolve + shared
//    factor-stream + per-column solve contributions (an exact fold: the
//    parts re-sum to the planned service time bit-for-bit), elects the
//    straggler column per batch by FIRST-argmax (ties break to the lowest
//    index, mirroring Metrics::on_sync), and rolls the column lanes up
//    into per-lane busy/idle/imbalance (idle = elapsed − busy is exact by
//    the same monotone-fold argument the machine metrics use).
//    attribute_streams() does the same for concurrent GMRES streams,
//    where per-solve matvec counts give the rounds real variance.
//
// ServeTelemetry tallies what the instruments did (requests attributed,
// batches, straggler elections, histogram merges) and mirrors the tallies
// into the sim::Metrics named-counter registry ("serve/telemetry/*"),
// exactly as FactorCache mirrors "serve/cache/*".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ptilu/serve/solve_service.hpp"
#include "ptilu/serve/traffic.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu::sim {
class Metrics;
}  // namespace ptilu::sim

namespace ptilu::serve {

/// Monotone totals over a telemetry session's lifetime.
struct TelemetryStats {
  std::uint64_t requests = 0;            ///< requests attributed through batches
  std::uint64_t batches = 0;             ///< batches decomposed
  std::uint64_t straggler_elections = 0; ///< first-argmax elections (batches + rounds)
  std::uint64_t histogram_merges = 0;    ///< LatencyHistogram::merge calls
};

/// Counter hub for the serving instruments. Attribution helpers and
/// histogram merges bump it; attach_metrics() mirrors every bump into the
/// sim::Metrics named-counter registry at rank 0 ("serve/telemetry/requests",
/// ".../batches", ".../straggler_elections", ".../histogram_merges"),
/// replaying counts recorded before attachment so both views always agree
/// (the FactorCache serve/cache/* idiom).
class ServeTelemetry {
 public:
  /// Mirror counters into `metrics` (nullptr detaches). Pre-attachment
  /// history is topped up so registry == stats() from the first read.
  void attach_metrics(sim::Metrics* metrics);

  const TelemetryStats& stats() const { return stats_; }

  void count_requests(std::uint64_t n);
  void count_batches(std::uint64_t n);
  void count_elections(std::uint64_t n);
  void count_histogram_merge();

 private:
  void bump(std::uint64_t TelemetryStats::* slot, std::uint32_t counter, std::uint64_t n);

  TelemetryStats stats_;
  sim::Metrics* metrics_ = nullptr;
  std::uint32_t requests_id_ = 0, batches_id_ = 0, elections_id_ = 0,
                merges_id_ = 0;  ///< interned counter ids (valid when attached)
};

/// Streaming mergeable latency histogram with fixed log-spaced buckets.
///
/// Value v lands in the bucket [lower, upper) with
/// lower = (1 + i/kSubBuckets)·2^e — kSubBuckets linear sub-buckets per
/// octave across octaves [kMinExp, kMaxExp). Values below 2^kMinExp
/// (including 0 and negatives) count as underflow; values ≥ 2^kMaxExp as
/// overflow. Bucketing uses frexp (exact exponent/mantissa extraction) and
/// the boundaries are dyadic rationals, so indices and edges are
/// bit-deterministic across compilers and reproducible in the Python
/// validator via math.ldexp.
///
/// quantile(q) returns the UPPER edge of the bucket containing the
/// nearest-rank sample (rank ceil(q·N), 1-based): for a value in a regular
/// bucket, exact < returned ≤ exact·(1 + 1/kSubBuckets) — the documented
/// resolution bound, asserted by scripts/check_serve_report.py. An
/// underflow-bucket quantile returns 2^kMinExp (an upper edge but no
/// relative bound); an overflow-bucket quantile returns 2^kMaxExp (a lower
/// bound — the overflow bucket has no finite upper edge).
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 32;  ///< power of two → exact boundaries
  static constexpr int kMinExp = -30;     ///< first octave [2^-30, 2^-29): ~0.93 ns
  static constexpr int kMaxExp = 12;      ///< overflow at 2^12 s (~68 min)
  static constexpr int kBucketCount = (kMaxExp - kMinExp) * kSubBuckets;

  LatencyHistogram() : counts_(static_cast<std::size_t>(kBucketCount), 0) {}

  /// Count one value (NaN is rejected; ±0 and negatives underflow).
  void record(double v);

  /// Element-wise count addition: merge order never matters, and a merged
  /// histogram is bit-identical to one that recorded the union directly.
  /// Passing `telemetry` tallies the merge in its histogram_merges counter.
  void merge(const LatencyHistogram& other, ServeTelemetry* telemetry = nullptr);

  std::uint64_t total() const { return total_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Nearest-rank quantile read (see class comment for the edge rules and
  /// the 1/kSubBuckets resolution bound). Throws on an empty histogram or
  /// q outside [0, 1].
  double quantile(double q) const;

  /// Bucket index for a value: -1 underflow, kBucketCount overflow,
  /// otherwise [0, kBucketCount). Deterministic (frexp + exact arithmetic).
  static int bucket_index(double v);

  /// Inclusive lower edge of bucket `index` (index kBucketCount gives the
  /// overall upper limit 2^kMaxExp). Exactly representable.
  static double bucket_lower(int index);

  /// Exclusive upper edge of bucket `index` (== bucket_lower(index + 1)).
  static double bucket_upper(int index);

  /// quantile() ≤ exact·(1 + bound) for regular buckets.
  static constexpr double relative_error_bound() {
    return 1.0 / static_cast<double>(kSubBuckets);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

/// Lifecycle stages a request moves through, in order.
enum class ServeStage : std::uint8_t {
  kEnqueue = 0,       ///< request entered the arrival queue
  kCacheResolve = 1,  ///< batch's factor resolved (hit/miss + fingerprint)
  kAdmit = 2,         ///< request admitted into a batch
  kSolveStart = 3,    ///< batched trisolve begins (after the resolve)
  kComplete = 4,      ///< solution returned; latency stops here
};

/// Short stage name ("enqueue", "cache_resolve", ...).
const char* serve_stage_name(ServeStage stage);

/// One lifecycle event. `request` is the deterministic request id (index
/// in the arrival schedule); batch-scoped events (cache resolve, solve
/// start) carry request == -1 and the batch id. Wall timestamps are
/// optional (< 0 = absent) and must come from a support/timer.hpp
/// WallTimer owned by the caller — library code never reads a clock.
struct ServeEvent {
  int request = -1;
  int batch = -1;
  ServeStage stage = ServeStage::kEnqueue;
  double t_model_s = 0.0;
  double t_wall_s = -1.0;
  std::uint64_t fingerprint = 0;  ///< matrix fingerprint (kCacheResolve only)
  bool cache_hit = false;         ///< kCacheResolve only
};

/// Append-only request-lifecycle journal with Chrome trace_event export.
/// Events are kept in record order (a vector — no unordered iteration
/// anywhere on this path), and groups partition the log into independent
/// timelines (one per batch-cap sweep in bench_serve) that export as
/// separate process groups in the trace viewer.
class EventLog {
 public:
  /// Start a new group; subsequent events belong to it. Returns its id.
  int begin_group(const std::string& label);

  void record(const ServeEvent& event);

  const std::vector<ServeEvent>& events() const { return events_; }
  const std::vector<std::string>& groups() const { return group_labels_; }
  std::size_t size() const { return events_.size(); }

  /// Chrome trace_event JSON ("X" complete events, timestamps in µs of
  /// modeled time): per request a "wait" span (enqueue → admission) and a
  /// "solve" span (admission → completion) on pid 2g ("<group> requests",
  /// tid = request id), and per batch a "resolve" + "solve batch" pair on
  /// pid 2g+1 ("<group> batches", tid = batch id). Opens in the same
  /// viewer as sim::Trace's factorization traces.
  void write_chrome_trace(std::ostream& os) const;
  void write_chrome_trace_file(const std::string& path) const;

 private:
  std::vector<ServeEvent> events_;
  std::vector<int> event_group_;  ///< group id per event (parallel to events_)
  std::vector<std::string> group_labels_;
};

/// Modeled decomposition of one planned batch. The identity
///   service_s == cache_resolve_s + (stream_shared_s + Σ column_solve_s)
/// holds bit-exactly with the inner sum folded in column order — the same
/// fold BatchCostModel::total_s used when the plan was formed — and is
/// re-verified by check_serve_report.py from the serialized parts.
struct BatchAttribution {
  int first = 0;
  int count = 0;
  double start_s = 0.0;
  bool arrival_gated = false;  ///< start set by the last arrival (server was idle)
  std::vector<double> arrival_s;     ///< member arrivals (ascending)
  std::vector<double> queue_wait_s;  ///< start_s − arrival_s[c], exact
  std::vector<double> column_solve_s;  ///< per-column solve contribution
  double service_s = 0.0;
  int straggler_column = 0;  ///< first-argmax of column_solve_s
};

/// Per-lane rollup over a batch plan: lane c is the c-th column slot of
/// every batch. elapsed_s folds each batch's slowest column; busy_s[c]
/// folds lane c's own contributions (0 when the batch was narrower than
/// c), so busy ≤ elapsed and idle = elapsed − busy hold bit-exactly —
/// partial batches show up as lane idle time, the serving analogue of
/// rank imbalance.
struct LaneRollup {
  double elapsed_s = 0.0;
  std::vector<double> busy_s;
  std::vector<double> idle_s;
  std::vector<std::uint64_t> elections;  ///< straggler wins per lane
  double imbalance = 1.0;                ///< max busy / mean busy
};

struct ApplyAttribution {
  std::vector<BatchAttribution> batches;
  LaneRollup lanes;
};

/// Decompose every batch of `plan` (formed from `schedule` with service
/// times from `costs` — re-derived and checked here) and roll up `lanes`
/// column lanes. Tallies requests/batches/elections into `telemetry` when
/// given. Throws if the plan is inconsistent with schedule or costs.
ApplyAttribution attribute_batches(const std::vector<Request>& schedule,
                                   const std::vector<Batch>& plan,
                                   const BatchCostModel& costs, int lanes,
                                   ServeTelemetry* telemetry = nullptr);

/// One round of a concurrent-stream sweep: stream s's solve is
/// round·streams + s (the fixed bench partition). cost_s is 0 for streams
/// with no solve in the tail round.
struct StreamRound {
  std::vector<double> cost_s;
  std::vector<long long> matvecs;
  double elapsed_s = 0.0;  ///< max over streams (the straggler's cost)
  int straggler = 0;       ///< first-argmax of cost_s
};

/// Stream-level rollup: same identities as LaneRollup (busy ≤ elapsed,
/// idle derived exactly), with real variance — per-solve GMRES matvec
/// counts differ, so elections are spread across streams.
struct StreamAttribution {
  int streams = 0;
  int solves = 0;
  double step_s = 0.0;  ///< modeled seconds per preconditioned GMRES iteration
  std::vector<StreamRound> rounds;
  double elapsed_s = 0.0;
  std::vector<double> busy_s;
  std::vector<double> idle_s;
  std::vector<std::uint64_t> elections;
  double imbalance = 1.0;
};

/// Attribute a stream sweep from its per-solve matvec counts: solve q
/// costs matvecs[q]·step_s modeled seconds; rounds barrier at the slowest
/// stream (first-argmax election, like Metrics::on_sync supersteps).
/// Tallies elections into `telemetry` when given.
StreamAttribution attribute_streams(int streams,
                                    const std::vector<long long>& matvecs_per_solve,
                                    double step_s, ServeTelemetry* telemetry = nullptr);

/// Modeled cost of one preconditioned GMRES iteration against (n, nnz)
/// with factor nonzero counts (nnz_l, nnz_u): one SpMV + one ILU apply in
/// flops, matrix + factor + vector traffic in bytes, at the simulator's
/// flop/mem rates. The unit cost behind attribute_streams.
double modeled_stream_step_s(idx n, std::uint64_t nnz, std::uint64_t nnz_l,
                             std::uint64_t nnz_u, double flop_t, double mem_t);

/// Append the full lifecycle of one served plan to `log` (one group is
/// NOT begun here — call log.begin_group first): kEnqueue per request at
/// its arrival, then per batch kCacheResolve (hit flag + fingerprint) at
/// batch start, kAdmit per member at batch start, kSolveStart at
/// start + costs.cache_resolve_s (the decomposition's resolve boundary),
/// and kComplete per member at start + service. `wall_complete_s`
/// optionally stamps each batch's completion with a wall reading (empty =
/// no wall data; else one entry per batch).
void append_lifecycle_events(EventLog& log, const std::vector<Request>& schedule,
                             const ApplyAttribution& attribution,
                             const BatchCostModel& costs, std::uint64_t fingerprint,
                             const std::vector<bool>& cache_hit_per_batch,
                             const std::vector<double>& wall_complete_s = {});

}  // namespace ptilu::serve
