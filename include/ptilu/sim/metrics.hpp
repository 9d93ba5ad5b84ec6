// Critical-path analyzer and per-rank metrics registry for the simulated
// machine.
//
// A Trace (trace.hpp) answers "which span kinds did each phase spend busy
// time in?". Metrics answers the load-imbalance questions the paper's
// speedup tables hinge on: which rank set the makespan at each superstep
// barrier, how long the other ranks idled waiting for it, and who talked to
// whom. Per superstep the barrier already computes the max over rank
// clocks; Metrics records which rank won (the *straggler*), attributes the
// step's elapsed time to that rank under the active algorithm phase, and
// accumulates each rank's busy share of the step. Idle time is *derived* at
// serialization as `elapsed - busy`, so per phase and rank the identity
//
//     busy + idle == elapsed            (hence sum_r busy+idle == ranks*elapsed)
//
// holds bit-exactly, with no float drift: busy is accumulated from the same
// `clock - previous_horizon` differences whose maximum defines `elapsed`,
// and floating-point subtraction/addition are monotone, so `busy <= elapsed`
// exactly and the derived idle is exactly representable. check_report.py
// and tests/test_metrics.cpp enforce both properties on every driver.
//
// Alongside the time accounting Metrics maintains a per-phase rank-by-rank
// communication matrix (messages and bytes, fed from the staged-outbox send
// path and charge_transfer) plus a registry of named per-rank counters the
// drivers thread their ILUT fill/drop tallies through. Integer totals
// reconcile exactly with Machine's RankCounters: every messages_sent
// increment has a matching comm-matrix or collective-tree increment.
//
// Enabled via Machine::Options::metrics (default from the PTILU_METRICS
// environment variable, off otherwise). All hooks are null-pointer checks
// when disabled, and the collector never feeds back into the cost model, so
// modeled output is bit-identical either way. Collection is deterministic
// across the sequential and threaded backends — every mutation is either
// rank-local during a step or runs on the main thread at a barrier — so
// report.json is byte-identical between backends (held by tests). See
// docs/OBSERVABILITY.md for the report schema and a straggler-table reading
// guide, and DESIGN.md §11 for the attribution model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ptilu/sim/machine.hpp"

namespace ptilu::sim {

class Metrics {
 public:
  explicit Metrics(int nranks);

  /// One cell of a phase's rank-by-rank communication matrix.
  struct CommCell {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  /// Accumulated accounting for one algorithm phase. All per-rank vectors
  /// have nranks entries; `comm[from]` maps destination rank to the traffic
  /// `from` sent while the phase was active.
  struct PhaseMetrics {
    double elapsed = 0.0;           ///< phase's share of the synchronized clock
    std::uint64_t supersteps = 0;   ///< barriers attributed to this phase
    std::vector<double> busy;       ///< per rank; busy[r] <= elapsed, exactly
    std::vector<double> critical_s;          ///< elapsed won as the straggler
    std::vector<std::uint64_t> critical_steps;  ///< barriers won as straggler
    /// Collective-tree accounting. Machine::collective charges every rank
    /// the identical hop/payload amounts (the log2(p) combining tree), so
    /// the per-rank arrays the v1 report carried were rank-uniform by
    /// construction; v2 stores the single per-rank value — O(1) instead of
    /// O(p) per phase, which matters at p=4096.
    std::uint64_t collective_messages = 0;  ///< log2(p)-tree hops, per rank
    std::uint64_t collective_bytes = 0;     ///< collective payload bytes, per rank
    std::vector<std::map<int, CommCell>> comm;       ///< [from] -> to -> cell

    bool active() const {
      if (elapsed != 0.0 || supersteps != 0) return true;
      // A phase can carry traffic without owning a barrier (a trailing
      // charge_transfer); keep it so comm totals still reconcile.
      for (const auto& row : comm) {
        if (!row.empty()) return true;
      }
      return false;
    }
    /// Load imbalance: max over ranks of busy divided by the mean busy
    /// (1 = perfectly balanced; 0 when the phase did no rank-local work).
    double imbalance() const;
    /// First rank with the largest critical_s share, or -1 when none.
    int critical_rank() const;
  };

  // ---- Phase tagging (main thread, between supersteps; Machine forwards
  // ---- its push_phase/pop_phase here — prefer sim::ScopedPhase(machine, n))
  void push_phase(std::string_view name);
  void pop_phase();
  const std::string& current_phase() const { return phase_names_[phase_stack_.back()]; }

  // ---- Recording hooks (called by Machine; not for direct use) ----
  /// A barrier synchronized all clocks to `horizon`: attribute the advance
  /// to the current phase, credit the straggler (first rank at the max),
  /// and accumulate each rank's `clock - previous_horizon` busy share.
  void on_sync(const std::vector<double>& clocks, double horizon);
  /// A message was posted (Machine::post). Rank-local: only `from`'s comm
  /// row is touched, so the threaded backend needs no merge step here.
  void on_send(int from, int to, std::uint64_t bytes);
  /// A bulk transfer was charged without a payload (Machine::charge_transfer).
  void on_transfer(int from, int to, std::uint64_t bytes);
  /// A collective exchange charged `hop_messages` tree hops and
  /// `payload_bytes` to every rank's counters (Machine::collective).
  void on_collective(std::uint64_t hop_messages, std::uint64_t payload_bytes);
  /// Machine::reset: flush the residual clock advance into the last active
  /// phase, bank the about-to-be-zeroed RankCounters so the report still
  /// reconciles across epochs, and restart machine-relative time at zero.
  void on_reset(const std::vector<double>& clocks,
                const std::vector<RankCounters>& counters);

  // ---- Named per-rank counters (ILUT fill/drop tallies and friends) ----
  /// Intern a counter name (idempotent; main thread, between supersteps).
  /// Drivers register their counters up front and pass the id into rank
  /// bodies, which accumulate locally and commit once per step.
  std::uint32_t counter_id(std::string_view name);
  /// Add to one rank's slot of a registered counter. Rank-local, safe from
  /// concurrently-running rank bodies as long as each sticks to its rank.
  void add_counter(std::uint32_t id, int rank, std::uint64_t n);
  /// A registered counter's value for one rank (0 for unknown names).
  std::uint64_t counter_value(std::string_view name, int rank) const;

  // ---- Results ----
  int nranks() const { return nranks_; }

  /// Attribute clock advance since the last barrier (e.g. a trailing
  /// charge_transfer) to the last active phase, mirroring Trace's rollup
  /// residual. Idempotent; the serializers below call it themselves.
  void flush(const Machine& machine);

  struct PhaseRow {
    std::string name;
    const PhaseMetrics* stats = nullptr;
  };
  /// Active phases in first-use order ("(untagged)" for the root).
  std::vector<PhaseRow> phase_rows() const;
  /// Sum of per-phase elapsed attributions in phase order — the report's
  /// "modeled_s", recomputable bit-exactly from the serialized phases.
  double total_elapsed() const;

  /// Versioned machine-readable run report ("ptilu-report-v2"; see
  /// docs/OBSERVABILITY.md for the v1 -> v2 delta). `run_info`
  /// is a list of (key, raw JSON value) pairs embedded verbatim under
  /// "run" — that is where backend/params/config belong, so the
  /// machine-derived payload stays backend-invariant. Deterministic:
  /// byte-identical across backends and repeated runs.
  void write_report(std::ostream& os, const Machine& machine,
                    const std::vector<std::pair<std::string, std::string>>& run_info = {});
  /// write_report to a file (throws ptilu::Error on I/O failure).
  void write_report_file(const std::string& path, const Machine& machine,
                         const std::vector<std::pair<std::string, std::string>>& run_info = {});
  /// FNV-1a 64 checksum of the report's machine-derived payload (phases +
  /// counters + rank_counters, excluding "run"): identical across backends,
  /// and any shift in phase-level time distribution changes it.
  std::uint64_t payload_checksum(const Machine& machine);

  /// Human-readable critical-path/straggler table (see docs/OBSERVABILITY.md
  /// for a reading guide).
  void write_straggler_table(std::ostream& os, const Machine& machine);

  /// Drop all recorded data (phases, comm, counters) but keep registered-ness
  /// of nothing — a clean slate. Call right after Machine::reset so the
  /// machine-relative clock base is zero.
  void clear();

 private:
  std::uint32_t intern(std::string path);
  PhaseMetrics& ensure_storage(std::uint32_t id);
  void flush_clocks(const std::vector<double>& clocks);
  std::string payload_json(const Machine& machine);

  int nranks_;
  std::vector<std::string> phase_names_;  // id -> full path ("" is the root)
  std::unordered_map<std::string, std::uint32_t> phase_ids_;  // interning only, never iterated
  std::vector<std::uint32_t> phase_stack_;
  std::vector<PhaseMetrics> phases_;  // indexed by phase id
  std::uint32_t last_active_ = 0;     // phase to credit trailing residual to
  double last_horizon_ = 0.0;         // machine-relative horizon at last sync

  std::vector<std::string> counter_names_;
  std::unordered_map<std::string, std::uint32_t> counter_ids_;  // interning only, never iterated
  std::vector<std::vector<std::uint64_t>> counter_values_;  // [id][rank]

  std::vector<RankCounters> banked_counters_;  // epochs closed by reset()
};

}  // namespace ptilu::sim
