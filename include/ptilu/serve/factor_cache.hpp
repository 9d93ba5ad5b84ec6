// Factor cache for the solve-service layer (docs/SERVING.md).
//
// The paper's economics — factor once, amortize the setup over many
// triangular solves — is a serving workload: requests name an operator and
// a right-hand side, and the expensive ILUT factorization should run only
// when the (matrix, parameters) pair has not been seen recently.
// FactorCache keys completed factorizations by a 64-bit fingerprint of the
// matrix (structure AND values — a coefficient update is a different
// operator) combined with the exact factorization parameters, and evicts
// least-recently-used entries beyond a fixed capacity (default from
// PTILU_SERVE_CACHE_CAP).
//
// Every request fingerprints its operator, hit or miss, so the hash must
// run at memory bandwidth: it reads 8-byte words into four independent
// lanes (the xxHash64 round: multiply, rotate, multiply) instead of
// chaining one multiply per byte (measured cost in docs/SERVING.md §2).
// The batched trisolves behind a hit stream L and U once per group of up
// to 8 columns (trisolve.cpp).
//
// Entries hold immutable `shared_ptr<const Preconditioner>`s: once handed
// out, a factor stays valid even if evicted mid-flight, and concurrent
// GMRES streams on host threads can apply one shared factor without
// synchronization (Preconditioner::apply is const and allocation-local;
// the tsan CI preset sweats exactly this sharing). The cache itself is NOT
// thread-safe by design: serving front-ends resolve factors on the
// dispatch thread, so hit/miss/eviction sequences stay deterministic —
// a locked cache racing two misses on one key would factor twice or not,
// depending on timing, and every counter downstream would wobble.
//
// Storage is a plain list scanned linearly (capacities are small — this is
// a cache of factorizations, each megabytes of CSR), keeping iteration
// order deterministic; the determinism-unordered-iter lint rule forbids
// hash-map iteration in src/ for exactly this class of structure.
//
// Observability: hit/miss/eviction totals are always available via
// stats(), and attach_metrics() additionally mirrors them into a
// sim::Metrics named-counter registry ("serve/cache/hits" etc. at rank 0),
// where they survive Machine::reset() — named counters are not banked by
// reset, so a serving session spanning many solve epochs keeps one running
// tally. tests/test_serve.cpp reconciles both views.
#pragma once

#include <cstdint>
#include <list>
#include <memory>

#include "ptilu/ilu/ilut.hpp"
#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu::sim {
class Metrics;
}  // namespace ptilu::sim

namespace ptilu::serve {

/// 64-bit fingerprint of a CSR matrix: dimensions, then the byte length
/// and contents of row pointers, column indices and value bit patterns.
/// Each step is a bijection in both the hashed word and the running
/// state, so changing any single word, length or dimension always changes
/// the fingerprint; other edits collide with probability about 2^-64.
/// The value is pinned by tests/test_serve.cpp.
std::uint64_t matrix_fingerprint(const Csr& a);

/// Full cache key. Equality is exact: every field that changes the factors
/// participates.
struct FactorKey {
  std::uint64_t matrix = 0;  ///< matrix_fingerprint of the operator
  idx m = 0;
  real tau = 0.0;
  real pivot_rel = 0.0;

  bool operator==(const FactorKey&) const = default;
};

/// Monotone totals over the cache's lifetime.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class FactorCache {
 public:
  /// Capacity = max resident factorizations; least-recently-used entries
  /// beyond it are evicted on insert. Default from PTILU_SERVE_CACHE_CAP.
  explicit FactorCache(std::size_t capacity = capacity_from_env());

  /// Mirror hit/miss/eviction counts into a metrics registry (rank 0 of
  /// the "serve/cache/hits" / "serve/cache/misses" / "serve/cache/evictions"
  /// named counters). Pass nullptr to detach. Counts recorded before
  /// attachment are replayed into the registry so both views always agree.
  void attach_metrics(sim::Metrics* metrics);

  /// The cached scalar-ILUT preconditioner for (a, opts), factoring on
  /// miss. The returned factor is immutable and remains valid after
  /// eviction; apply() from concurrent threads is safe.
  std::shared_ptr<const Preconditioner> get(const Csr& a, const IlutOptions& opts);

  /// True when `key` is resident — no factoring, no counter
  /// movement, no LRU reordering (introspection for tests and reporting).
  bool contains(const FactorKey& key) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  const CacheStats& stats() const { return stats_; }

  /// PTILU_SERVE_CACHE_CAP, or 8 when unset/empty. Throws ptilu::Error on
  /// an unparseable or non-positive value.
  static std::size_t capacity_from_env();

 private:
  struct Entry {
    FactorKey key;
    std::shared_ptr<const Preconditioner> factor;
  };

  void bump(std::uint64_t CacheStats::* slot, std::uint32_t counter);

  std::size_t capacity_;
  std::list<Entry> entries_;  ///< front = most recently used
  CacheStats stats_;
  sim::Metrics* metrics_ = nullptr;
  std::uint32_t hit_id_ = 0, miss_id_ = 0, evict_id_ = 0;  ///< counter ids
};

}  // namespace ptilu::serve
