// Per-rank phase tracing for the simulated machine.
//
// A Trace attached to a sim::Machine (Machine::attach_trace) records every
// modeled-time advance as a span on the owning rank's timeline — compute
// (flops and local memory traffic), send, recv, barrier, allreduce — tagged
// with the algorithm phase that was active when the cost was charged.
// Phases are nestable path tags pushed with ScopedPhase, e.g.
//
//   sim::ScopedPhase phase(machine.trace(), "factor/interior");
//
// (a null trace pointer makes ScopedPhase a no-op, so instrumented call
// sites cost a pointer compare when tracing is off). Two consumers:
//
//   * per-phase rollups (phase_rollup / write_phase_table): busy seconds per
//     span kind summed over ranks, flop/byte/message counts, and the advance
//     of the synchronized clock attributed to each phase. The attributed
//     advances sum to Machine::modeled_time(), so the table is an exact
//     decomposition of the aggregate modeled run time.
//   * a Chrome trace_event JSON export (write_chrome_trace) with one process
//     track per rank, loadable in Perfetto or chrome://tracing.
//
// Besides the modeled figures, every phase also accrues the host wall
// seconds spent inside it (PhaseStats::wall, read through WallTimer at
// push/pop), printed only by write_wall_table. Everything the other
// exports contain is deterministic: identical runs produce byte-identical
// exports. See docs/TRACING.md for the span/phase model, the JSON schema,
// and a worked example.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ptilu/support/timer.hpp"

namespace ptilu::sim {

class Machine;

/// What a span's modeled time was spent on.
enum class SpanKind : std::uint8_t {
  kCompute = 0,    ///< charge_flops / charge_mem local work
  kSend = 1,       ///< message injection (latency + per-byte cost)
  kRecv = 2,       ///< draining inbound payloads at superstep delivery
  kBarrier = 3,    ///< waiting at a superstep barrier (idle + sync tree)
  kAllreduce = 4,  ///< collective exchanges (Machine::collective / allreduce_*)
};
inline constexpr int kSpanKindCount = 5;

/// Short lowercase name ("compute", "send", ...).
const char* span_kind_name(SpanKind kind);

/// One contiguous stretch of one rank's modeled timeline. Times are absolute
/// modeled seconds (monotone across Machine::reset epochs — see Trace).
/// `bytes` holds local-memory bytes for compute spans and network bytes for
/// send/recv/allreduce spans; `messages` counts posted messages for send
/// spans and drained messages for recv spans.
struct Span {
  double start = 0.0;
  double end = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  int rank = 0;
  std::uint32_t phase = 0;  ///< index into Trace::phase_name
  SpanKind kind = SpanKind::kCompute;
};

/// Per-phase rollup. `busy` is summed over ranks, so it can exceed
/// `elapsed` (p ranks computing concurrently accrue p seconds of busy time
/// per elapsed second); `elapsed` is the phase's share of the synchronized
/// clock, and elapsed summed over phases equals the machine's modeled time.
struct PhaseStats {
  double busy[kSpanKindCount] = {0, 0, 0, 0, 0};
  double elapsed = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t mem_bytes = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t messages = 0;
  std::uint64_t spans = 0;
  /// Host wall seconds spent in this phase itself, excluding nested
  /// phases. Not deterministic, so no export but write_wall_table shows it.
  double wall = 0.0;

  double busy_total() const {
    double total = 0.0;
    for (const double b : busy) total += b;
    return total;
  }
};

/// Options for a Trace. Rollups are always maintained; span storage (needed
/// only for the Chrome export) can be turned off to bound memory on long
/// runs while keeping the per-phase table.
struct TraceOptions {
  bool record_spans = true;
};

class Trace {
 public:
  explicit Trace(TraceOptions options = {});

  // ---- Phase tagging (prefer ScopedPhase over calling these directly) ----
  /// Enter a nested phase. `name` is appended to the current phase path
  /// with a '/' separator and may itself contain '/' segments.
  void push_phase(std::string_view name);
  void pop_phase();
  /// Full path of the currently active phase ("" at the root).
  const std::string& current_phase() const { return phase_names_[phase_stack_.back()]; }
  const std::string& phase_name(std::uint32_t id) const { return phase_names_[id]; }

  // ---- Recording hooks (called by Machine; not for direct use) ----
  void set_nranks(int nranks);
  /// Record a span on `rank` covering machine-relative [start, end).
  /// Adjacent spans of the same rank/kind/phase are coalesced.
  void record(int rank, SpanKind kind, double start, double end, std::uint64_t flops,
              std::uint64_t bytes, std::uint64_t messages);
  /// A barrier/collective synchronized all clocks to `horizon`
  /// (machine-relative): attribute the advance to the current phase.
  void sync(double horizon);
  /// Machine::reset was called: subsequent machine-relative times restart at
  /// zero. The trace keeps recording; new spans land after everything
  /// already recorded (absolute time is the concatenation of epochs).
  void on_machine_reset();

  // ---- Results ----
  int nranks() const { return nranks_; }
  const std::vector<Span>& spans() const { return spans_; }

  struct PhaseRow {
    std::string name;
    PhaseStats stats;
  };
  /// Rollup rows in first-execution order, only phases with activity.
  /// Residual clock advance after the last barrier (e.g. a trailing
  /// charge_transfer) is attributed to the phase of the last recorded span.
  std::vector<PhaseRow> phase_rollup() const;
  /// Sum of per-phase elapsed attributions — equals the machine's modeled
  /// time (summed across reset epochs) up to floating-point rounding.
  double attributed_time() const;

  /// Chrome trace_event JSON (one pid per rank); schema in docs/TRACING.md.
  void write_chrome_trace(std::ostream& os) const;
  /// Convenience: write_chrome_trace to a file (throws ptilu::Error on I/O
  /// failure).
  void write_chrome_trace_file(const std::string& path) const;
  /// Plain-text per-phase table (ptilu::Table formatting).
  void write_phase_table(std::ostream& os) const;
  /// phase_rollup plus the phases that spent host wall time but no
  /// modeled time (the rows write_wall_table prints).
  std::vector<PhaseRow> wall_rollup() const;
  /// Plain-text host wall seconds beside modeled seconds per phase; its
  /// numbers differ from run to run.
  void write_wall_table(std::ostream& os) const;

  /// Drop all recorded data (phases, spans, rollups) but keep options.
  void clear();

 private:
  std::uint32_t intern(std::string path);
  std::vector<PhaseRow> rows(bool with_wall_only) const;

  /// Wall stamp of one pushed phase: its start and the wall time of the
  /// nested phases already closed inside it.
  struct OpenWall {
    WallTimer timer;
    double nested = 0.0;
  };

  TraceOptions options_;
  int nranks_ = 0;
  std::vector<std::string> phase_names_;  // id -> full path ("" is the root)
  std::unordered_map<std::string, std::uint32_t> phase_ids_;  // interning only, never iterated
  std::vector<std::uint32_t> phase_stack_;
  std::vector<OpenWall> wall_stack_;  // one per pushed phase (the root has none)
  std::vector<PhaseStats> stats_;  // indexed by phase id
  std::vector<Span> spans_;
  std::vector<std::size_t> open_span_;  // per rank: candidate for coalescing
  double epoch_offset_ = 0.0;  // absolute start time of the current epoch
  double last_horizon_ = 0.0;  // machine-relative horizon at the last sync
  double max_end_ = 0.0;       // absolute latest recorded span end / horizon
  std::uint32_t last_phase_ = 0;
};

/// RAII phase tag. The Machine form tags every observer the machine has
/// attached — the trace *and* the metrics collector (metrics.hpp) — and is
/// what instrumented algorithm code should use:
///
///   sim::ScopedPhase phase(machine, "factor/interior");
///
/// It is near-zero-cost when neither observer is on (two pointer compares
/// inside Machine::push_phase). The Trace* form remains for code that feeds
/// a trace directly and is a no-op on nullptr.
class ScopedPhase {
 public:
  ScopedPhase(Trace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) trace_->push_phase(name);
  }
  ScopedPhase(Machine& machine, std::string_view name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Trace* trace_ = nullptr;
  Machine* machine_ = nullptr;
};

}  // namespace ptilu::sim
