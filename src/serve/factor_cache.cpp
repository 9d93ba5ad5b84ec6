#include "ptilu/serve/factor_cache.hpp"

#include <cstdlib>
#include <cstring>

#include "ptilu/sim/metrics.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu::serve {

namespace {

// xxHash64's primes (odd, so multiplying by one is a bijection mod 2^64).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

/// One lane step, the xxHash64 round: for a fixed word it is a bijection of
/// the state, and for a fixed state a bijection of the word. Every fold
/// below is a chain of these, so changing any one word, length or
/// dimension always changes the fingerprint.
constexpr std::uint64_t mix(std::uint64_t state, std::uint64_t word) {
  return rotl(state + word * kPrime2, 31) * kPrime1;
}

std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Fold an array's byte length and contents into `hash`. Four independent
/// lanes take consecutive words in turn, so the loop runs at memory speed
/// rather than at one multiply latency per word; the lanes, the words left
/// after the last 32-byte stripe and a zero-padded tail then fold into
/// `hash` one after another.
std::uint64_t mix_bytes(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  hash = mix(hash, len);
  std::uint64_t lane0 = kPrime1 + kPrime2, lane1 = kPrime2;
  std::uint64_t lane2 = 0, lane3 = 0 - kPrime1;
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    lane0 = mix(lane0, load_word(p + i));
    lane1 = mix(lane1, load_word(p + i + 8));
    lane2 = mix(lane2, load_word(p + i + 16));
    lane3 = mix(lane3, load_word(p + i + 24));
  }
  hash = mix(mix(mix(mix(hash, lane0), lane1), lane2), lane3);
  for (; i + 8 <= len; i += 8) hash = mix(hash, load_word(p + i));
  if (i < len) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, len - i);
    hash = mix(hash, tail);
  }
  return hash;
}

/// xxHash64's final avalanche (xor-shifts and odd multiplies: a bijection).
std::uint64_t avalanche(std::uint64_t hash) {
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace

std::uint64_t matrix_fingerprint(const Csr& a) {
  std::uint64_t hash = mix(mix(kPrime4, static_cast<std::uint64_t>(a.n_rows)),
                           static_cast<std::uint64_t>(a.n_cols));
  hash = mix_bytes(hash, a.row_ptr.data(), a.row_ptr.size() * sizeof(nnz_t));
  hash = mix_bytes(hash, a.col_idx.data(), a.col_idx.size() * sizeof(idx));
  // Values hash by bit pattern: 0.0 vs -0.0 are distinct operators to the
  // fingerprint, which errs toward refactoring — never toward reusing a
  // factor for a numerically different matrix.
  hash = mix_bytes(hash, a.values.data(), a.values.size() * sizeof(real));
  return avalanche(hash);
}

std::size_t FactorCache::capacity_from_env() {
  const char* value = std::getenv("PTILU_SERVE_CACHE_CAP");
  if (value == nullptr || *value == '\0') return 8;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  PTILU_CHECK(end != value && *end == '\0' && parsed > 0,
              "PTILU_SERVE_CACHE_CAP must be a positive integer, got '" << value << "'");
  return static_cast<std::size_t>(parsed);
}

FactorCache::FactorCache(std::size_t capacity) : capacity_(capacity) {
  PTILU_CHECK(capacity_ >= 1, "FactorCache capacity must be >= 1");
}

void FactorCache::attach_metrics(sim::Metrics* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  hit_id_ = metrics_->counter_id("serve/cache/hits");
  miss_id_ = metrics_->counter_id("serve/cache/misses");
  evict_id_ = metrics_->counter_id("serve/cache/evictions");
  // Replay pre-attachment history so stats() and the registry agree from
  // the first moment both are observable. Top up only — the registry may
  // already carry counts (e.g. this cache re-attaching after a detach).
  const auto top_up = [this](std::uint32_t id, const char* name, std::uint64_t want) {
    const std::uint64_t have = metrics_->counter_value(name, 0);
    if (want > have) metrics_->add_counter(id, 0, want - have);
  };
  top_up(hit_id_, "serve/cache/hits", stats_.hits);
  top_up(miss_id_, "serve/cache/misses", stats_.misses);
  top_up(evict_id_, "serve/cache/evictions", stats_.evictions);
}

void FactorCache::bump(std::uint64_t CacheStats::* slot, std::uint32_t counter) {
  ++(stats_.*slot);
  if (metrics_ != nullptr) metrics_->add_counter(counter, 0, 1);
}

std::shared_ptr<const Preconditioner> FactorCache::get(const Csr& a,
                                                       const IlutOptions& opts) {
  FactorKey key;
  key.matrix = matrix_fingerprint(a);
  key.m = opts.m;
  key.tau = opts.tau;
  key.pivot_rel = opts.pivot_rel;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      bump(&CacheStats::hits, hit_id_);
      entries_.splice(entries_.begin(), entries_, it);  // refresh to MRU
      return entries_.front().factor;
    }
  }
  bump(&CacheStats::misses, miss_id_);
  std::shared_ptr<const Preconditioner> factor =
      std::make_shared<IluPreconditioner>(ilut(a, opts));
  entries_.push_front(Entry{key, factor});
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    bump(&CacheStats::evictions, evict_id_);
  }
  return factor;
}

bool FactorCache::contains(const FactorKey& key) const {
  for (const Entry& entry : entries_) {
    if (entry.key == key) return true;
  }
  return false;
}

}  // namespace ptilu::serve
