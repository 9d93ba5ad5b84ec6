// Helpers shared by the parallel factorizations (PILUT, PILUT-nested, PILU0).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/ilu/factor_scratch.hpp"
#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/pivot.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu::pilut_detail {

/// Fill/drop tally a rank body accumulates while factoring its rows:
/// `fill` counts entries created beyond a row's original pattern by the
/// elimination updates; `dropped` counts entries discarded by the dropping
/// rules (1st rule in eliminate_cascading, 2nd/3rd rules and tail caps via
/// select_largest at the call sites). Body-local so the threaded backend
/// never shares a tally; committed per rank through FactorCounters.
struct FillDropTally {
  std::uint64_t fill = 0;
  std::uint64_t dropped = 0;
  std::uint64_t guarded = 0;  ///< safeguarded pivot substitutions (pivot.hpp)
};

/// The per-rank fill/drop counter registration for a factorization driver
/// (a no-op carrier when the machine has no metrics collector). Register
/// once on the main thread before the steps, commit per rank inside them.
struct FactorCounters {
  sim::Metrics* metrics = nullptr;
  std::uint32_t fill = 0;
  std::uint32_t dropped = 0;
  std::uint32_t guarded = 0;

  void commit(int rank, const FillDropTally& tally) const {
    if (metrics == nullptr) return;
    metrics->add_counter(fill, rank, tally.fill);
    metrics->add_counter(dropped, rank, tally.dropped);
    metrics->add_counter(guarded, rank, tally.guarded);
  }
};

/// Register "factor/fill" / "factor/dropped" on the machine's metrics
/// collector (idempotent; null-metrics carrier when collection is off).
FactorCounters factor_counters(sim::Machine& machine);

/// A read-only view of one stored row.
struct RowView {
  std::span<const idx> cols;
  std::span<const real> vals;

  RowView() = default;
  RowView(std::span<const idx> c, std::span<const real> v) : cols(c), vals(v) {}
  RowView(const SparseRow& row)  // NOLINT(google-explicit-constructor)
      : cols(row.cols), vals(row.vals) {}

  std::size_t size() const { return cols.size(); }
};

/// Finished factor rows, each stored once, where the rank that finished it
/// keeps it. Every rank appends its rows to its own arrays, which only grow,
/// in chunks of kChunk entries (a longer row gets a chunk of its own): no
/// row spans two chunks, and a stored row never moves. A row is found by its
/// (rank, chunk, offset, length) locator. A rank body appends only to its
/// own rank's chunks and writes only its own rows' locators, so the threaded
/// backend needs no lock; rows of another rank are read only after a
/// superstep boundary (as messages) or after the factorization.
class RowStore {
 public:
  static constexpr std::uint32_t kChunk = 1024;

  RowStore(idx n, int nranks)
      : where_(static_cast<std::size_t>(n)), chunks_(static_cast<std::size_t>(nranks)) {}

  /// Store row i, finished by rank r.
  void put(int r, idx i, RowView row);
  /// Store U row i, finished by rank r: its diagonal first, then `upper`.
  void put_diag_first(int r, idx i, real diag, const SparseRow& upper);

  RowView row(idx i) const {
    const Locator& at = where_[static_cast<std::size_t>(i)];
    if (at.len == 0) return {};
    const Chunk& chunk = chunks_[static_cast<std::size_t>(at.rank)][at.chunk];
    return {{chunk.cols.get() + at.offset, at.len},
            {chunk.vals.get() + at.offset, at.len}};
  }
  std::size_t row_size(idx i) const { return where_[static_cast<std::size_t>(i)].len; }

  /// Free every row and locator.
  void release() {
    std::vector<Locator>().swap(where_);
    std::vector<std::vector<Chunk>>().swap(chunks_);
  }

 private:
  struct Chunk {
    std::unique_ptr<idx[]> cols;
    std::unique_ptr<real[]> vals;
    std::uint32_t used = 0;
    std::uint32_t cap = 0;
  };
  struct Locator {
    std::int32_t rank = 0;
    std::uint32_t chunk = 0;
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };
  /// Room for row i's `len` entries at the end of rank r's arrays.
  std::pair<idx*, real*> open(int r, idx i, std::size_t len);

  std::vector<Locator> where_;             // by row
  std::vector<std::vector<Chunk>> chunks_;  // by rank
};

/// Rows that change while the level loop runs — reduced rows, their L
/// parts, in-edge lists — kept in per-rank chunks like RowStore's instead
/// of one heap vector each. A row has room for a few more entries than it
/// holds (rooms come in size classes four to an octave); when it outgrows
/// its room it moves to room for twice its entries, and the room it
/// leaves, like that of a released row, goes on its rank's free list for
/// that size. A rank carves new room from its own chunks and keeps its own
/// free lists, so a rank body that writes only its own rows (and passes
/// its rank) needs no lock, and a row may be written by a different rank
/// later on (a migrated row of the nested variant). Rows are reached by
/// pointer, so reading one never touches a rank's chunks. Free rooms are
/// not merged, so a rank whose rows keep growing compacts its storage now
/// and then (compact()). Without values, only columns are stored.
class SlackRows {
 public:
  static constexpr std::uint32_t kMinCap = 4;
  /// compact() acts once a rank's storage exceeds this multiple of its rows' rooms.
  static constexpr std::size_t kCompactAt = 2;

  SlackRows(std::size_t rows, int nranks, bool values)
      : rows_(rows), pools_(static_cast<std::size_t>(nranks)), values_(values) {}

  std::size_t size(idx f) const { return at(f).size; }
  std::span<idx> cols(idx f) { return {at(f).cols, at(f).size}; }
  std::span<const idx> cols(idx f) const { return {at(f).cols, at(f).size}; }
  std::span<real> vals(idx f) { return {at(f).vals, at(f).size}; }
  RowView view(idx f) const { return {cols(f), {at(f).vals, at(f).size}}; }

  /// Room for at least n entries in row f, taken from rank r's storage if
  /// the row has to move.
  void reserve(int r, idx f, std::size_t n) {
    if (n > at(f).cap) move(r, f, n);
  }
  void push(int r, idx f, idx c, real v) {
    Row& row = grown(r, f);
    row.cols[row.size] = c;
    row.vals[row.size++] = v;
  }
  void push(int r, idx f, idx c) {
    Row& row = grown(r, f);
    row.cols[row.size++] = c;
  }
  /// Insert column c at position pos (rows without values).
  void insert(int r, idx f, std::size_t pos, idx c) {
    Row& row = grown(r, f);
    std::copy_backward(row.cols + pos, row.cols + row.size, row.cols + row.size + 1);
    row.cols[pos] = c;
    ++row.size;
  }
  /// Remove the entry at position pos (rows without values).
  void erase(idx f, std::size_t pos) {
    Row& row = at(f);
    std::copy(row.cols + pos + 1, row.cols + row.size, row.cols + pos);
    --row.size;
  }
  /// Keep the first n entries.
  void truncate(idx f, std::size_t n) { at(f).size = static_cast<std::uint32_t>(n); }
  void assign(int r, idx f, const SparseRow& src);
  /// Free row f's room into rank r's free lists.
  void release(int r, idx f);
  /// Once rank r's storage exceeds kCompactAt times its rows' rooms, move
  /// the rows into one chunk and drop the free rooms. `ids` must name,
  /// through `index`, every row whose room rank r handed out (a released
  /// row may be named too); a rank whose rows migrate must not compact.
  void compact(int r, std::span<const idx> ids, const IdxVec& index);

 private:
  struct Row {
    idx* cols = nullptr;
    real* vals = nullptr;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };
  struct Room {
    idx* cols = nullptr;
    real* vals = nullptr;
  };
  struct Chunk {
    std::unique_ptr<idx[]> cols;
    std::unique_ptr<real[]> vals;
  };
  struct Pool {
    std::vector<Chunk> chunks;
    std::size_t next = 0;    // first entry of chunks.back() not yet carved
    std::size_t end = 0;     // entries in chunks.back()
    std::size_t carved = 0;  // entries in all chunks
    std::vector<std::vector<Room>> free;  // by size class
  };

  Row& at(idx f) { return rows_[static_cast<std::size_t>(f)]; }
  const Row& at(idx f) const { return rows_[static_cast<std::size_t>(f)]; }
  Row& grown(int r, idx f) {
    Row& row = at(f);
    if (row.size == row.cap) move(r, f, static_cast<std::size_t>(row.size) + 1);
    return row;
  }
  /// Move row f to room for at least n entries from rank r's storage.
  void move(int r, idx f, std::size_t n);
  Room take(Pool& pool, std::size_t k);
  void give(Pool& pool, const Row& row);
  Room piece(const Chunk& chunk, std::size_t at) const;

  std::vector<Row> rows_;
  std::vector<Pool> pools_;  // by rank
  bool values_;
};

/// Shared state of a parallel factorization. Finished rows live in the
/// row stores, indexed by ORIGINAL row id. An interface row's reduced row
/// (its tail) and the L part it gathers level by level change until the row
/// is factored; they are indexed by interface number, and the row frees
/// both once it is factored. Rank bodies write only rows they own (or, in
/// the nested variant, host), so concurrent ranks never touch the same
/// element.
struct FactorState {
  RowStore l;                     // final L rows (factored columns, orig ids)
  RowStore u;                     // final U rows (diag first, orig ids)
  IdxVec iface_of;                // row -> interface number, -1 for interior rows
  idx interfaces = 0;             // interface rows
  SlackRows tails;                // by interface number: unfactored reduced rows
  SlackRows lparts;               // by interface number: their L parts so far

  explicit FactorState(const DistCsr& dist);
  idx interface_count() const { return interfaces; }
};

/// A column -> position-in-row map over interface numbers, emptied per row
/// by an epoch bump (the whole array is reset once every 2^32 rows).
class PositionMap {
 public:
  explicit PositionMap(idx n) : slots_(static_cast<std::size_t>(n)) {}

  void clear() {
    if (++epoch_ == 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }
  /// Position of column c, or -1 when the row does not hold it.
  idx find(idx c) const {
    const Slot& slot = slots_[static_cast<std::size_t>(c)];
    return slot.epoch == epoch_ ? slot.pos : -1;
  }
  void set(idx c, idx pos) { slots_[static_cast<std::size_t>(c)] = {epoch_, pos}; }

 private:
  struct Slot {  // stamp and position side by side: one load per lookup
    std::uint32_t epoch = 0;
    idx pos = -1;
  };
  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
};

/// Message tags of the U-row exchange (pilut's level loop, pilu0's classes).
constexpr int kTagUReq = 10;
constexpr int kTagUCols = 11;
constexpr int kTagUVals = 12;

/// One lane's side of the U-row exchange. reply() answers every request
/// received with the rows from the store, written in place: per request
/// message one column payload (row, length, columns of each row) and one
/// value payload. receive() indexes this superstep's replies, and row()
/// then reads a received row in place in its payload, found by interface
/// number, until the superstep ends. Each receive() drops the rows of the
/// previous one.
class RemoteURows {
 public:
  explicit RemoteURows(idx n_iface) : slot_(static_cast<std::size_t>(n_iface), -1) {}

  void reply(sim::RankContext& ctx, const RowStore& u);
  void receive(std::span<const sim::Message> messages, const IdxVec& iface_of);
  /// Received U row k, whose interface number is f.
  RowView row(idx k, idx f) const {
    const idx slot = slot_[static_cast<std::size_t>(f)];
    PTILU_CHECK(slot >= 0, "missing remote U row " << k);
    return views_[static_cast<std::size_t>(slot)];
  }

 private:
  IdxVec slot_;             // interface number -> index into views_, or -1
  std::vector<RowView> views_;
  IdxVec bound_;            // interface numbers whose slot_ is set
};

/// Per-lane working storage for rank bodies. Sequential backend: one lane,
/// shared by the ranks as they run one after another (exactly the seed
/// behavior). Threaded backend: one lane per rank, so bodies never share
/// mutable scratch. Results are identical either way — every field is
/// cleared between rows, and the stat fields are integer partials whose
/// merge (sum / max) is order-independent.
struct Lane {
  WorkingRow w;
  FactorScratch scratch;
  std::uint64_t pivots_guarded = 0;
  nnz_t max_reduced_row = 0;

  explicit Lane(idx n) : w(n) {}
};

/// machine.scratch_lanes() lanes, each with an n-column working row.
std::vector<Lane> make_lanes(const sim::Machine& machine, idx n);

/// Fold the per-lane stat partials into `stats` (in lane order) and zero
/// them. Call once per factorization, after the last lane-using step.
void merge_lane_stats(std::vector<Lane>& lanes, PilutStats& stats);

/// Cascading elimination of the working row against factored rows chosen by
/// the `eliminatable` predicate; the heap orders columns by the comparator
/// key (original id for interior phases, assigned new number for nested
/// interface blocks — the caller pre-seeds the heap accordingly). Applies
/// the 1st dropping rule, tallying fill-in and rule-1 drops. Returns the
/// flop count.
template <typename Eliminatable, typename Compare>
std::uint64_t eliminate_cascading(WorkingRow& w, FactorState& state, real tau_i,
                                  PooledHeap<Compare>& heap,
                                  Eliminatable&& eliminatable,
                                  FillDropTally& tally) {
  std::uint64_t flops = 0;
  while (!heap.empty()) {
    const idx k = heap.pop();
    const RowView urow = state.u.row(k);
    const real multiplier = w.value(k) / urow.vals[0];  // diag stored first
    ++flops;
    if (std::abs(multiplier) < tau_i) {  // 1st dropping rule
      w.set(k, 0.0);
      ++tally.dropped;
      continue;
    }
    w.set(k, multiplier);
    // The update loop below skips the stored diagonal, so charge only the
    // strictly-upper entries (2 flops each) — keeps the simulated Mflop
    // rate in agreement with the serial ilut() accounting.
    flops += 2 * static_cast<std::uint64_t>(urow.size() - 1);
    for (std::size_t p = 1; p < urow.size(); ++p) {  // skip stored diagonal
      const idx c = urow.cols[p];
      const real update = -multiplier * urow.vals[p];
      if (w.present(c)) {
        w.accumulate(c, update);
      } else {
        w.insert(c, update);
        ++tally.fill;
        if (eliminatable(c)) heap.push(c);
      }
    }
  }
  return flops;
}

/// Phase 1 of every parallel factorization: each rank ILUT-factors its
/// interior rows (communication-free). Also assigns interior new numbers
/// rank-major into sched (caller must have sized sched.newnum).
void run_interior_phase(sim::Machine& machine, const DistCsr& dist,
                        const PilutOptions& opts, const RealVec& norms,
                        FactorState& state, std::vector<Lane>& lanes,
                        PilutSchedule& sched, PilutStats& stats);

/// Phase 1b: interface rows eliminate their local interior columns, forming
/// the initial reduced rows (tails). tail_cap 0 keeps everything (ILUT).
void run_initial_reduction(sim::Machine& machine, const DistCsr& dist,
                           const PilutOptions& opts, const RealVec& norms,
                           idx tail_cap, FactorState& state,
                           std::vector<Lane>& lanes);

/// Finalize stats fields from the machine counters.
void finish_stats(const sim::Machine& machine, PilutStats& stats);

/// Renumber the stored rows into the new ordering and write them straight
/// into the final CSR factors (L strictly lower sorted, U diag-first
/// sorted). Each store is emptied once its factor is written.
void assemble_factors(FactorState& state, const IdxVec& newnum, IluFactors& out);

}  // namespace ptilu::pilut_detail
