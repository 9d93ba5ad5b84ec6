// The persistent reduced interface graph of PILUT's level loop.
//
// Every level of the interface phase draws an independent set from the
// symmetrized graph of the current reduced matrix, whose directed edges
// are the reduced rows' tails: row v points at every other column of its
// tail. The graph hardly changes from one level to the next — a level
// removes the rows of its set I_l, the I_l columns leave the remaining
// tails and some fill enters them — so it is kept across levels and
// updated from that delta instead of being re-derived from every tail.
//
// Per rank it keeps:
//   * out-edges: the tails themselves, never copied;
//   * local in-edges of each owned vertex, sorted by source, in per-rank
//     storage with slack (SlackRows) rather than one vector per vertex;
//   * each row's remote columns, in tail order, packed by active position
//     (the reverse pairs of the communication setup are read from these);
//   * an index from each remote column to the local rows that reference
//     it (which U rows to request, and which rows an I_l column reduces),
//     with a live count: a retiring row only decrements it and stays in
//     the list, to be skipped, until the column leaves;
//   * this level's remote in-edges, rebuilt from the reverse-pair messages
//     (the receiver never reads another rank's state).
//
// Walk-order contract: the DistGraph part assembled for mis_dist gives
// each vertex v its neighbors in exactly the order of the per-level rebuild
// this replaced (kept as the checked-mode reference, check_against_rebuild):
//   1. local in-edges from sources before v, ascending;
//   2. v's tail, minus the diagonal, in tail order;
//   3. local in-edges from sources after v, ascending;
//   4. remote in-edges, in (sender rank, sender scan order).
// The MIS comparison counts, notify order and message contents depend on
// that order, so factors, charges and messages stay bit-identical.
//
// Only interface vertices ever enter the graph, so every per-vertex array
// is indexed by interface number (FactorState::iface_of), not global id,
// and so are the reduced rows.
//
// Threading: a rank body writes only the state of its own rank — entries
// of the per-vertex arrays for vertices it owns, and its RankState — so
// concurrent bodies of the threaded backend never share a mutable element.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "detail.hpp"
#include "ptilu/dist/distcsr.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/ilu/factors.hpp"
#include "ptilu/sim/machine.hpp"

namespace ptilu::pilut_detail {

class ReducedGraph {
 public:
  /// `iface_of` maps a row to its interface number (-1 for interior rows);
  /// it must outlive the graph.
  ReducedGraph(const DistCsr& dist, const IdxVec& iface_of, int lanes);

  // ---- pilut/setup/reverse_edges ----
  /// Start a level on rank r: record the positions of its active rows and,
  /// on the first level, index them from their tails (the one full scan).
  /// Tails are indexed by interface number.
  void begin_level(int r, const IdxVec& active, const SlackRows& tails);
  /// Send the (column, row) reverse pair of every remote out-edge of rank
  /// ctx.rank() to the owner of the column: one message per peer, peers
  /// ascending, rows ascending, columns in tail order.
  void send_reverse_pairs(sim::RankContext& ctx, const IdxVec& active);
  /// Off-diagonal tail entries of rank r's active rows: the out-edges.
  std::uint64_t out_edges(int r) const { return ranks_[r].out_edges; }

  // ---- pilut/setup/apply_reverse ----
  /// Rebuild rank r's remote in-edges from the reverse-pair messages and
  /// point `part` at this level's neighbor sequences (with its peer index).
  void assemble(int r, int lane, const IdxVec& active, const SlackRows& tails,
                std::span<const sim::Message> messages, DistGraph::Part& part);

  // ---- pilut/factor_set ----
  /// Row v (owned by r) joins I_l: remove its out-edges. Call before its
  /// tail is cleared.
  void retire_row(int r, idx v, std::span<const idx> tail);

  // ---- pilut/exchange/request ----
  /// Whether a row of rank r references remote column c.
  bool references(int r, idx c) const { return ranks_[r].slot[(*iface_of_)[c]] >= 0; }

  // ---- pilut/reduce ----
  /// The I_l columns in the tail of each of rank r's n_active rows (by
  /// active position), as CSR ptr/cols, found from the I_l side: a local
  /// member's in-edges, a remote member's referencing rows.
  void eliminations(int r, std::size_t n_active, const IdxVec& iset, IdxVec& ptr,
                    IdxVec& cols) const;
  /// Row i of rank r, at active position `pos`, was reduced. Its old tail
  /// had old_size entries; `cols` is the row once the I_l columns left it:
  /// the old tail's old_kept surviving columns, then the fill in insertion
  /// order. Its new tail is `tail`: `cols` itself unless capped (then
  /// re-selected by select_largest, so fill may have been dropped again and
  /// the order is new). The *_diag flags say whether the old and new tails
  /// hold the diagonal. Move the row's edges from the old tail to the new.
  void update_row(int r, int lane, std::size_t pos, idx i, std::span<const idx> cols,
                  std::size_t old_kept, std::size_t old_size, bool old_diag,
                  std::span<const idx> tail, bool new_diag, bool capped,
                  const std::vector<std::uint8_t>& in_set);
  /// The row at active position `pos` stays as it is this level. Every
  /// row that stays active gets exactly one update_row or keep_row call,
  /// in position order.
  void keep_row(int r, std::size_t pos);
  /// After the level's reductions: forget the I_l columns rank r indexed,
  /// make the rows' new remote lists current, and compact the in-edge
  /// storage of the rank's `active` rows when it has grown slack.
  void end_level(int r, const IdxVec& iset, const IdxVec& active);

 private:
  struct RankState {
    IdxVec slot;                      // remote column -> index into rows, or -1
    std::vector<IdxVec> rows;         // slot -> referencing rows, any order; may hold retired rows
    IdxVec live;                      // slot -> referencing rows still active
    IdxVec free_slots;
    IdxVec remote_ptr;                // by active position: the row's remote tail
    IdxVec remote_cols;               //   columns, in tail order
    IdxVec next_ptr{0};               // the same for the next level, built by
    IdxVec next_cols;                 //   update_row / keep_row
    IdxVec rin_ptr;                   // this level's remote in-edges by active position
    IdxVec rin_src;
    IdxVec out_peer_ptr;              // by active position: ranks its pairs went to
    std::vector<int> out_peers;
    std::uint64_t out_edges = 0;      // off-diagonal tail entries
    bool built = false;
  };
  struct LaneScratch {
    IdxVec cursor;                    // counting-sort fill cursors
    std::vector<int> rin_from;        // sender of each remote in-edge
    IdxVec last_row;                  // by rank: last row that sent it a pair
    IdxVec pair_count;                // by rank: pairs for it, zero between calls
    std::vector<idx*> pair_out;       // by rank: fill cursor in its message
    std::vector<int> peers;           // ranks with pairs this level
    std::vector<std::uint8_t> rank_stamp;  // peer dedup, by rank
    std::vector<std::uint8_t> kept;        // capped update: new-tail membership
  };

  /// The rows of rank r whose tails hold column v.
  std::span<const idx> rows_referencing(int r, idx v) const;
  // Index maintenance of one edge; the callers keep the edge counts.
  void add_edge(int r, idx row, idx col);
  void remove_edge(int r, idx row, idx col);
  void remove_local_ref(idx row, idx col);
  void add_remote_ref(RankState& rs, idx row, idx col);
  void release_slot(RankState& rs, idx col);

  idx iface(idx v) const { return (*iface_of_)[v]; }

  const DistCsr* dist_;
  const IdxVec* iface_of_;
  SlackRows in_;                 // [owned vertex] local in-edges, sources ascending
  IdxVec pos_;                   // [active vertex] position in its owner's active list
                                 // (both by interface number)
  std::vector<RankState> ranks_;
  std::vector<LaneScratch> lanes_;
};

/// Checked-mode reference: re-derive the level's graph from the tails
/// (indexed by interface number through `iface_of`) with
/// the per-level rebuild the persistent graph replaced (local edges in one
/// scan, then reverse pairs in sender-rank order), and fail with PTILU_CHECK
/// unless every vertex's neighbor sequence in `graph` and the total edge
/// count `edges` match it.
void check_against_rebuild(const DistCsr& dist, const IdxVec& iface_of,
                           const std::vector<IdxVec>& active,
                           const SlackRows& tails, const DistGraph& graph,
                           long long edges);

}  // namespace ptilu::pilut_detail
