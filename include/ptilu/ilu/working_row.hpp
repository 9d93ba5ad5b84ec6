// The dense working row with a companion nonzero list — the data structure
// the ILUT paper (and Saad's SPARSKIT implementation) uses to accumulate
// linear combinations of sparse rows during elimination. Shared by the
// serial ILUT/ILU(k) factorizations and the simulated-parallel PILUT.
//
// Presence is tracked by an epoch-stamped byte array instead of a
// std::vector<bool> bitmap: present(c) is a single byte compare against the
// current epoch, and clear() is a counter bump (plus dropping the nonzero
// list) rather than an O(touched) sweep. The stamp wraps every 255 clears,
// at which point the whole array is memset once — amortized O(n/255) per
// clear, invisible next to the elimination work between clears.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ptilu/support/check.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

class WorkingRow {
 public:
  explicit WorkingRow(idx n) : value_(n, 0.0), stamp_(n, 0) {}

  idx capacity() const { return static_cast<idx>(value_.size()); }

  bool present(idx c) const { return stamp_[c] == epoch_; }
  real value(idx c) const { return value_[c]; }

  /// Introduce a column (must not be present yet).
  void insert(idx c, real v) {
    PTILU_ASSERT(!present(c), "column " << c << " already present");
    stamp_[c] = epoch_;
    value_[c] = v;
    nonzeros_.push_back(c);
  }

  /// Add into an existing column (must be present).
  void accumulate(idx c, real v) {
    PTILU_ASSERT(present(c), "column " << c << " not present");
    value_[c] += v;
  }

  void set(idx c, real v) {
    PTILU_ASSERT(present(c), "column " << c << " not present");
    value_[c] = v;
  }

  /// Columns touched since the last clear(), in insertion order.
  const IdxVec& touched() const { return nonzeros_; }

  /// O(1) reset: advance the epoch so every stamp goes stale at once.
  void clear() {
    nonzeros_.clear();
    if (++epoch_ == 0) {  // stamp wrapped: invalidate stale stamps in bulk
      std::fill(stamp_.begin(), stamp_.end(), std::uint8_t{0});
      epoch_ = 1;
    }
  }

 private:
  RealVec value_;
  std::vector<std::uint8_t> stamp_;  // presence = (stamp_[c] == epoch_)
  IdxVec nonzeros_;
  std::uint8_t epoch_ = 1;  // 0 is reserved as "never stamped"
};

}  // namespace ptilu
