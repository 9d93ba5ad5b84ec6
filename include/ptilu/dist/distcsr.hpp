// Distributed view of a sparse matrix: rows are distributed by a graph
// partition; nodes are classified interior/interface exactly as in §3 of
// the paper (an interior node is connected — in the symmetrized pattern —
// only to nodes of its own processor).
//
// The simulation runs in one address space, so the matrix itself is stored
// once; the SPMD algorithms only ever *read* rows they own and obtain
// everything else through explicit sim::Machine messages, which is what
// keeps the communication accounting faithful.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ptilu/part/partition.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

struct DistCsr {
  Csr a;                            ///< the global matrix (original indices)
  int nranks = 1;
  IdxVec owner;                     ///< owning rank of each row
  std::vector<IdxVec> owned_rows;   ///< per rank: owned rows, ascending
  std::vector<bool> interface;      ///< node touches another rank (symmetrized pattern)
  /// Per rank: a hash of owned_rows[r]. Communication plans built from this
  /// distribution record it, so a plan used with another partition is
  /// caught in O(p) instead of reading the wrong rows.
  std::vector<std::uint64_t> owned_hash;

  idx n() const { return a.n_rows; }
  idx interior_count(int rank) const;
  idx interface_count_total() const;

  static DistCsr create(Csr a, const Partition& p);
};

/// One read of a value another rank owns: the entry `offset` places after
/// the start of its row reads the reading rank's ghost slot `slot`.
struct GhostRef {
  idx offset;
  idx slot;
};

/// The rows of each rank that read ghost values, and which of their entries
/// do. Rank r's rows are rows[rank_ptr[r] .. rank_ptr[r+1]), ascending; the
/// refs of rows[t] are refs_of(t), in entry order. Rows that read nothing
/// remote are not listed, so a loop over a rank's rows keeps a cursor here
/// and runs the plain local loop for every row the cursor does not name.
struct GhostReads {
  std::vector<std::size_t> rank_ptr{0};
  IdxVec rows;
  std::vector<std::size_t> ref_ptr{0};
  std::vector<GhostRef> refs;

  std::span<const GhostRef> refs_of(std::size_t t) const {
    return {refs.data() + ref_ptr[t], refs.data() + ref_ptr[t + 1]};
  }

  /// One remote entry as the plan builds collect it: the entry `offset`
  /// places after the start of `row` reads column `col`.
  struct Read {
    idx row;
    idx offset;
    idx col;
  };
  /// Append the next rank: its reads in row order (entry order within a
  /// row), each column's ghost slot taken from slot_of.
  void add_rank(std::span<const Read> rank_reads, const IdxVec& slot_of);
};

/// Static communication lists and ghost layout for halo exchanges of
/// vector values, built once from the matrix pattern (the paper's
/// "communication setup phase").
struct Halo {
  /// send_lists[r] = { (peer, indices r owns and must ship to peer) },
  /// sorted by peer; indices ascending.
  std::vector<std::vector<std::pair<int, IdxVec>>> send_lists;
  /// recv_lists[r] = { (peer, indices r needs from peer) }, mirror image.
  std::vector<std::vector<std::pair<int, IdxVec>>> recv_lists;
  /// Rank r's ghost values fill slots [ghost_ptr[r], ghost_ptr[r+1]) of one
  /// flat array, in delivery order: recv_lists[r]'s indices concatenated.
  /// A GhostRef slot is relative to its rank's first slot.
  std::vector<std::size_t> ghost_ptr{0};
  /// The owned rows that reference a remote column (owned_rows order).
  GhostReads reads;
  /// DistCsr::owned_hash of the distribution the halo was built from.
  std::vector<std::uint64_t> owned_hash;

  static Halo build(const DistCsr& dist);

  int nranks() const { return static_cast<int>(send_lists.size()); }

  /// Total values exchanged per full exchange (sum over ranks).
  std::size_t total_exchanged() const;
};

/// Parallel sparse matrix-vector product y = A x on the simulated machine:
/// one superstep ships boundary x values per the halo lists, the next
/// computes owned rows. x and y are global arrays; rank r only reads x at
/// owned indices (remote values come from its received ghosts) and writes
/// y at owned indices. Throws ptilu::Error if the halo was built for
/// another distribution or a received message does not match it.
void dist_spmv(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
               std::span<const real> x, std::span<real> y);

}  // namespace ptilu
