// Simulated distributed-memory machine.
//
// The paper's experiments ran on a 128-processor Cray T3D. The development
// host has 4 cores and no MPI, so the parallel algorithms in this library
// run on a deterministic BSP-style simulator instead: every rank executes the same
// SPMD code against explicit per-rank message queues, and a cost model
// (per-flop time, per-byte memory-copy time, message latency alpha and
// per-byte cost beta) accumulates *modeled* time per rank. A superstep
// barrier synchronizes the per-rank clocks to the maximum. The algorithms
// therefore execute exactly the computation and communication pattern they
// would on a real machine — who computes what, what crosses the network,
// how many synchronization points occur — and the modeled clock stands in
// for wall-clock. See DESIGN.md §1 and §4 for the substitution rationale;
// the T3D calibration itself is documented on MachineParams below, which is
// its single authoritative home.
//
// Observability: attach a sim::Trace (attach_trace) to record every modeled
// clock advance as a per-rank span (compute/send/recv/barrier/allreduce)
// tagged with the active algorithm phase, roll the spans up into a
// per-phase time/flop/byte ledger, and export a Chrome trace_event JSON
// viewable in Perfetto. The hooks are a null-pointer check when no trace is
// attached, so untraced runs are bit-identical to a build without the
// tracing layer. See DESIGN.md §7 ("Simulator observability") and
// docs/TRACING.md.
//
// Execution backends: the superstep bodies can run on the calling thread
// one rank after another (Backend::kSequential, the default) or
// concurrently on a persistent worker pool (Backend::kThreads, opt-in via
// Options::backend or the PTILU_BACKEND environment variable). Both
// backends produce bit-identical modeled time, counters, factors, traces,
// and conformance transcripts: every shared mutable path is rank-local
// during the step and merged deterministically in rank order at the
// barrier. See DESIGN.md §10 for the determinism argument and the list of
// merge points.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ptilu/support/check.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu::sim {

class Trace;
class Conformance;
class Metrics;
enum class SpanKind : std::uint8_t;

/// Operation kind of a fingerprinted collective (SPMD conformance checking;
/// see conformance.hpp). All ranks must declare the same op/bytes/site
/// sequence between any two barriers.
enum class CollectiveOp : std::uint8_t {
  kBarrier = 0,    ///< plain superstep barrier (implicit, never declared)
  kSum = 1,        ///< allreduce_sum
  kMax = 2,        ///< allreduce_max
  kSumLL = 3,      ///< allreduce_sum_ll
  kExchange = 4,   ///< Machine::collective data exchange
  kUser = 5,       ///< SPMD code's own RankContext::declare_collective
};

/// Short lowercase name ("sum", "exchange", ...).
const char* collective_op_name(CollectiveOp op);

/// True when the PTILU_CHECK environment variable requests conformance
/// checking ("1", "on", "true", "yes", case-insensitive). This is the
/// default for Machine::Options::check, so existing benchmarks and tests
/// can be re-run checked without rebuilding.
bool conformance_enabled_by_env() noexcept;

/// True when the PTILU_METRICS environment variable requests metrics
/// collection ("1", "on", "true", "yes", case-insensitive). This is the
/// default for Machine::Options::metrics, so existing benchmarks and tests
/// can be re-run with the critical-path analyzer attached without
/// rebuilding. See metrics.hpp.
bool metrics_enabled_by_env() noexcept;

/// How superstep bodies execute. Both backends are observationally
/// identical (bit-identical modeled time, counters, traces, conformance
/// transcripts); kThreads additionally uses the host's cores for wall-clock
/// speed when ranks do real work per superstep.
enum class Backend : std::uint8_t {
  kSequential = 0,  ///< ranks run one after another on the calling thread
  kThreads = 1,     ///< ranks run concurrently on a persistent worker pool
};

/// Short lowercase name ("sequential", "threads").
const char* backend_name(Backend backend);

/// Parse a backend name: "seq"/"sequential"/"serial" or
/// "threads"/"thread"/"threaded", case-insensitive. Throws ptilu::Error on
/// anything else — a typo silently falling back to sequential would defeat
/// the point of e.g. a tsan CI job exporting PTILU_BACKEND=threads.
Backend parse_backend(std::string_view name);

/// Backend requested by the PTILU_BACKEND environment variable (unset or
/// empty means Backend::kSequential; anything unparseable throws). This is
/// the default for Machine::Options::backend, so the whole test suite can
/// be re-run threaded without rebuilding.
Backend backend_from_env();

/// Worker-pool size requested by PTILU_THREADS (0 = pick from hardware
/// concurrency). Default for Machine::Options::threads.
int backend_threads_from_env();

/// Cost-model parameters, all in seconds. The defaults approximate one node
/// of the paper's 128-processor Cray T3D (150 MHz DEC Alpha EV4, 3-D torus
/// interconnect with shmem-style puts); DESIGN.md §4 points here. Per-field
/// meaning and calibration:
///
/// - `flop`: modeled time for one floating-point operation inside the
///   sparse kernels. The EV4 peaked at 150 Mflop/s, but sparse
///   indirect-addressed kernels of the era sustained ~25 Mflop/s,
///   hence 40 ns.
/// - `mem`: modeled time per byte of local memory traffic that is charged
///   explicitly (reduced-matrix row rebuilds, permutation scatters). The
///   T3D's sustained local copy bandwidth on such access patterns was
///   ~200 MB/s, hence 5 ns/byte. Ordinary operand access inside compute
///   kernels is folded into `flop` and is not charged separately.
/// - `alpha`: per-message latency. T3D shmem put end-to-end latency was
///   ~1–3 µs; we use 2 µs. Also the per-hop cost of the log2(p) barrier
///   and collective trees.
/// - `beta`: per-byte network cost. T3D links moved ~150 MB/s sustained
///   per direction, hence 6.7 ns/byte. Senders pay alpha + bytes*beta at
///   injection; receivers pay bytes*beta when draining delivery queues.
struct MachineParams {
  double flop = 40e-9;   ///< s per floating-point operation (~25 Mflop/s sustained)
  double mem = 5e-9;     ///< s per byte of charged local memory traffic (~200 MB/s)
  double alpha = 2e-6;   ///< per-message latency (s)
  double beta = 6.7e-9;  ///< per-byte network cost (~150 MB/s links)

  /// Calibration approximating one Cray T3D node (see field docs above).
  static MachineParams cray_t3d() { return MachineParams{}; }

  /// A "workstation cluster" profile the paper's conclusions mention:
  /// similar compute, far slower network (Ethernet-class latency/bandwidth).
  static MachineParams workstation_cluster() {
    return MachineParams{40e-9, 5e-9, 500e-6, 100e-9};
  }
};

/// One message in flight: raw bytes plus a tag for sanity checking.
struct Message {
  int from = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

/// Aggregate per-rank activity counters (monotone over a run).
struct RankCounters {
  std::uint64_t flops = 0;
  std::uint64_t mem_bytes = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

class Machine;

/// Handle a rank's step function uses to do modeled work and communicate.
/// Sends post to the *next* superstep; receives drain messages delivered
/// into the current one.
class RankContext {
 public:
  int rank() const { return rank_; }
  int nranks() const;

  /// Scratch-lane index for rank-body-local working storage: 0 under the
  /// sequential backend (ranks run one after another and may share one
  /// lane), rank() under the threaded backend (each rank needs its own).
  /// Allocate Machine::scratch_lanes() lanes and index them with this; the
  /// results are identical either way because lane scratch is reset between
  /// uses by construction.
  int lane() const;

  /// Account n floating-point operations of local work.
  void charge_flops(std::uint64_t n);
  /// Account n bytes of local memory traffic (e.g. reduced-matrix copies).
  void charge_mem(std::uint64_t n);

  /// Post a message for delivery at the start of the next superstep.
  void send_bytes(int to, int tag, std::vector<std::byte> payload);
  void send_indices(int to, int tag, const IdxVec& data);
  void send_reals(int to, int tag, const RealVec& data);

  /// All messages delivered to this rank this superstep. The inbox is moved
  /// out and replaced by a fresh empty vector, so a second call in the same
  /// superstep sees a well-defined empty inbox rather than a moved-from one.
  /// Under conformance checking a second drain is reported as a protocol
  /// violation — PR 2's recv_all double-drain bug lost messages exactly
  /// this way, and code that compiles against the well-defined-empty
  /// fallback is almost always wrong.
  std::vector<Message> recv_all();

  /// Declare participation in a logical collective from SPMD step code.
  /// Purely an annotation for the conformance checker (no modeled cost, a
  /// no-op when checking is off): all ranks must declare identical
  /// (op, bytes, site) sequences within a superstep, so rank-dependent
  /// control flow that skips or reshapes a collective is caught at the
  /// next barrier with both call sites named.
  void declare_collective(CollectiveOp op, std::uint64_t bytes,
                          std::string_view site = {});

 private:
  friend class Machine;
  RankContext(Machine& machine, int rank) : machine_(&machine), rank_(rank) {}
  Machine* machine_;
  int rank_;
};

/// Decode helpers for Message payloads.
IdxVec decode_indices(const Message& m);
RealVec decode_reals(const Message& m);

/// Append-decoding variants: decode the payload directly onto the end of
/// `out` with no intermediate vector. Hot receive loops reuse one buffer
/// across messages instead of allocating a fresh vector per decode.
void decode_indices_append(const Message& m, IdxVec& out);
void decode_reals_append(const Message& m, RealVec& out);

class Machine {
 public:
  /// Construction options. `params` is the cost model; `check` enables the
  /// SPMD conformance checker (conformance.hpp) — default off so modeled
  /// output stays bit-identical, overridable per process with the
  /// PTILU_CHECK environment variable; `transcript_tail` bounds the
  /// per-rank protocol transcript dumped when a violation is reported;
  /// `backend` selects the superstep execution backend (default from
  /// PTILU_BACKEND, sequential when unset); `threads` sizes the worker pool
  /// for Backend::kThreads (0 = hardware concurrency, clamped to nranks;
  /// default from PTILU_THREADS); `metrics` attaches the critical-path /
  /// load-imbalance collector (metrics.hpp) — default off via PTILU_METRICS,
  /// and modeled output is bit-identical either way.
  struct Options {
    MachineParams params = MachineParams::cray_t3d();
    bool check = conformance_enabled_by_env();
    std::size_t transcript_tail = 16;
    Backend backend = backend_from_env();
    int threads = backend_threads_from_env();
    bool metrics = metrics_enabled_by_env();
  };

  Machine(int nranks, MachineParams params = MachineParams::cray_t3d());
  Machine(int nranks, const Options& options);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int nranks() const { return nranks_; }
  const MachineParams& params() const { return params_; }

  /// The execution backend this machine runs superstep bodies on.
  Backend backend() const { return backend_; }
  /// Number of independent scratch lanes rank bodies should allocate for
  /// their working storage: 1 under the sequential backend, nranks under
  /// the threaded one. Index lanes with RankContext::lane().
  int scratch_lanes() const { return backend_ == Backend::kThreads ? nranks_ : 1; }

  /// Execute one superstep: the body runs once per rank — sequentially in
  /// rank order, or concurrently on the worker pool under
  /// Backend::kThreads — then all posted messages are delivered in
  /// (sender rank, program order) and a barrier synchronizes the modeled
  /// clocks (max over ranks plus a log2(p) latency-tree cost). The two
  /// backends are observationally identical. `site` tags the superstep for
  /// conformance transcripts and violation reports; it costs nothing when
  /// checking is off and should name the protocol action
  /// ("pilut/exchange/request").
  void step(const std::function<void(RankContext&)>& body,
            std::string_view site = {});

  /// Convenience collectives (each is one superstep of modeled time):
  /// every rank contributes a value, all receive the combined result.
  /// Under conformance checking each is fingerprinted per rank.
  double allreduce_sum(const std::function<double(int)>& value_of_rank,
                       std::string_view site = {});
  double allreduce_max(const std::function<double(int)>& value_of_rank,
                       std::string_view site = {});
  long long allreduce_sum_ll(const std::function<long long(int)>& value_of_rank,
                             std::string_view site = {});

  /// Account a point-to-point transfer without materializing a payload
  /// (used for bulk data migration where the bytes stay in shared storage):
  /// the sender pays latency plus per-byte cost, the receiver the per-byte
  /// drain cost.
  void charge_transfer(int from, int to, std::uint64_t bytes,
                       std::string_view site = {});

  /// Charge a collective data exchange (allgather/alltoall-style): all
  /// clocks advance to the max plus a log2(p) tree of (alpha + bytes*beta),
  /// and every rank's counters charge one message per tree hop plus the
  /// payload bytes — consistent with the time model and with the trace
  /// spans, so counter/trace reconciliation covers collectives too.
  /// Counts as one superstep.
  void collective(std::uint64_t payload_bytes, std::string_view site = {});

  /// Assert protocol quiescence: no queued message anywhere (posted but
  /// undelivered, or delivered but undrained). Drivers call this when an
  /// algorithm finishes so a rank cannot return while peers still hold its
  /// traffic — the stall/orphan class of SPMD bugs. A no-op when
  /// conformance checking is off; under checking a violation throws
  /// ptilu::Error with the orphaned messages and per-rank transcripts.
  void check_quiescent(std::string_view site = {});

  /// True when the SPMD conformance checker is attached.
  bool checking() const { return checker_ != nullptr; }
  /// The attached checker, or nullptr (introspection for tests/tools).
  const Conformance* checker() const { return checker_.get(); }

  /// Modeled elapsed time so far (seconds) — max over rank clocks.
  double modeled_time() const;
  /// Modeled time of one rank.
  double rank_time(int rank) const { return clock_[rank]; }

  /// Counters for one rank / aggregated.
  const RankCounters& counters(int rank) const { return counters_[rank]; }
  RankCounters total_counters() const;

  /// Number of supersteps executed (each one is a synchronization point).
  std::uint64_t supersteps() const { return supersteps_; }

  /// Attach a span/phase trace (nullptr detaches). The machine does not own
  /// the trace; it must outlive the attachment. While attached, every clock
  /// advance is recorded as a span tagged with trace->current_phase().
  void attach_trace(Trace* trace);
  /// The attached trace, or nullptr. Instrumented algorithm code passes
  /// this to sim::ScopedPhase, which is a no-op on nullptr.
  Trace* trace() const { return trace_; }

  /// The metrics collector, or nullptr when Options::metrics is off
  /// (introspection plus report/straggler-table export — see metrics.hpp).
  Metrics* metrics() const { return metrics_.get(); }

  /// Enter/leave an algorithm phase on everything that observes phases —
  /// the attached trace and the metrics collector (no-op when neither is
  /// on). Main thread only, between supersteps. Instrumented code should
  /// use sim::ScopedPhase(machine, "factor/interior") rather than call
  /// these directly.
  void push_phase(std::string_view name);
  void pop_phase();

  /// Reset clocks/counters (keeps nranks and params) so one Machine can
  /// time several phases independently. An attached trace keeps its data:
  /// spans recorded after the reset land in a new epoch appended after
  /// everything already recorded.
  void reset();

 private:
  friend class RankContext;
  void charge_flops(int rank, std::uint64_t n);
  void charge_mem(int rank, std::uint64_t n);
  void post(int from, int to, int tag, std::vector<std::byte> payload);

  /// One posted message staged in its *sender's* slot. Staging per sender
  /// keeps post() free of cross-rank writes; the barrier merges the stages
  /// destination-wise in sender-rank order, which reproduces exactly the
  /// (sender rank, program order) delivery the sequential interpreter got
  /// from pushing straight into per-destination outboxes.
  struct Posted {
    int to = 0;
    Message msg;
  };

  /// A trace record charged by a rank body under the threaded backend,
  /// buffered rank-locally and replayed through Trace::record in rank
  /// order at the barrier (phases never change mid-step, so deferred
  /// replay sees the same phase tag the sequential backend recorded).
  struct PendingSpan {
    double start = 0.0;
    double end = 0.0;
    std::uint64_t flops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    SpanKind kind{};
  };

  void run_bodies(const std::function<void(RankContext&)>& body);
  void run_bodies_threaded(const std::function<void(RankContext&)>& body);
  void flush_pending_trace(int upto_rank);
  int resolved_pool_size() const;

  class WorkerPool;

  int nranks_;
  MachineParams params_;
  Backend backend_;
  int threads_option_;
  std::vector<double> clock_;
  std::vector<RankCounters> counters_;
  /// Messages delivered this superstep, keyed by destination rank. Sparse
  /// by construction: only ranks with inbound traffic own an entry, so a
  /// p=4096 machine whose ranks talk to a handful of grid neighbors stores
  /// O(active destinations) vectors, not O(p). A sorted map (not a hash
  /// map) so the receiver drain loop in step() visits destinations in
  /// ascending rank order — the exact order the dense per-rank array was
  /// walked in, keeping modeled clocks and traces bit-identical. Structure
  /// is only mutated on the main thread at the barrier; rank bodies move
  /// out their own mapped vector (recv_all), which never rebalances the
  /// tree, so the threaded backend needs no locking here.
  std::map<int, std::vector<Message>> inbox_;
  std::vector<std::vector<Posted>> staged_;   // posted this superstep, per sender
  std::uint64_t supersteps_ = 0;
  Trace* trace_ = nullptr;
  bool in_allreduce_ = false;  // tags the enclosing step's barrier spans
  bool trace_deferred_ = false;  // buffer charges instead of recording live
  std::vector<std::vector<PendingSpan>> pending_trace_;  // per rank
  std::vector<double> reduce_real_;   // per-rank allreduce slots
  std::vector<long long> reduce_ll_;  // per-rank allreduce slots
  std::unique_ptr<WorkerPool> pool_;  // lazily created for Backend::kThreads
  std::unique_ptr<Conformance> checker_;  // SPMD conformance; null = off
  std::unique_ptr<Metrics> metrics_;  // critical-path analyzer; null = off
};

}  // namespace ptilu::sim
