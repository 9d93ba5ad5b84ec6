// Pooled scratch buffers for the factorization hot paths.
//
// Every factorization routine (serial ILUT/ILU(k) and the simulated-parallel
// PILUT/PILU0 drivers) processes thousands of rows, and each row needs a
// small elimination heap, a survivor buffer for the dropping rules, and
// staging space while the working row is split into L/U parts. Allocating
// those per row is exactly the overhead Saad-style ILUT implementations
// eliminate; a FactorScratch owns all of them once per factorization and is
// threaded through the row loops, so the steady state performs no heap
// allocation at all. Pooling is invisible to results: every buffer is
// (logically) cleared before reuse, so the arithmetic, the dropping
// decisions, and therefore the factors, stats, and modeled times are
// bit-identical to the allocate-per-row code. See DESIGN.md §8.
#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "ptilu/ilu/factors.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// Binary min/max heap of column indices over caller-owned pooled storage
/// (std::priority_queue hides its container, so it cannot reuse one).
/// Construction clears the storage; push/pop are std::push_heap/pop_heap,
/// and since a working row never enqueues the same column twice the keys
/// are unique and the extraction order is exactly the comparator order —
/// identical to std::priority_queue regardless of internal heap layout.
template <typename Compare>
class PooledHeap {
 public:
  PooledHeap(IdxVec& storage, Compare cmp) : v_(&storage), cmp_(cmp) { v_->clear(); }

  bool empty() const { return v_->empty(); }

  void push(idx c) {
    v_->push_back(c);
    std::push_heap(v_->begin(), v_->end(), cmp_);
  }

  /// Remove and return the top (comparator-extreme) column.
  idx pop() {
    std::pop_heap(v_->begin(), v_->end(), cmp_);
    const idx c = v_->back();
    v_->pop_back();
    return c;
  }

 private:
  IdxVec* v_;
  Compare cmp_;
};

/// Min-heap on raw column ids — the ascending elimination order of the
/// serial and interior-phase factorizations.
using ColumnHeap = PooledHeap<std::greater<idx>>;

inline ColumnHeap make_column_heap(IdxVec& storage) {
  return ColumnHeap(storage, std::greater<idx>{});
}

/// One factorization's worth of reusable buffers. Default-constructed empty;
/// each buffer grows to the high-water mark of the run and stays there.
struct FactorScratch {
  IdxVec heap;                             ///< elimination-heap backing storage
  std::vector<std::pair<idx, real>> kept;  ///< select_largest survivor buffer
  SparseRow lstage;                        ///< staging for the L part of a split row
  SparseRow ustage;                        ///< staging for the U part of a split row
};

}  // namespace ptilu
