// Memory contract of pilut_factor: the working memory it needs above what
// was live at entry stays within a fixed multiple of the factors it
// returns, and the number of allocations it makes does not grow with the
// problem. The distributed solves built on it allocate a fixed handful of
// blocks per call, however many messages they send. A counting global
// operator new/delete measures all three, so this test is its own
// executable.
//
// The bounds come from the row-store layout (DESIGN.md §8, "PILUT
// storage"): every finished row is stored once in per-rank chunked arrays
// and written straight into the CSR factors, and a factored interface row
// frees its reduced row. Each case's bound is its measured ratio with 20%
// headroom. The ratios differ by case because the reduced rows and the
// level loop's per-rank and per-lane arrays do not scale with the factors;
// on the small TORSO, whose factors are only 0.3 MB, they dominate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/torso.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
std::atomic<std::int64_t> g_count{0};

// A header in front of each block records its size; 16 bytes keep the
// block aligned for any fundamental type.
constexpr std::size_t kHeader = 16;

void* counted_alloc(std::size_t size) noexcept {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) return nullptr;
  *static_cast<std::size_t*>(base) = size;
  const std::int64_t live = g_live.fetch_add(static_cast<std::int64_t>(size)) +
                            static_cast<std::int64_t>(size);
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  g_count.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(base)));
  std::free(base);
}

void* counted_alloc_or_throw(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace ptilu {
namespace {

struct Usage {
  std::int64_t peak_above_entry = 0;
  std::int64_t allocations = 0;
  std::int64_t factor_bytes = 0;
};

std::int64_t csr_bytes(const Csr& m) {
  return static_cast<std::int64_t>(m.row_ptr.capacity() * sizeof(nnz_t) +
                                   m.col_idx.capacity() * sizeof(idx) +
                                   m.values.capacity() * sizeof(real));
}

Csr g0(idx side) { return workloads::convection_diffusion_2d(side, side, 10.0, 20.0); }

Csr torso() {
  workloads::TorsoOptions opts;
  opts.nx = 12;
  opts.ny = 12;
  opts.nz = 16;
  return workloads::fem_torso_3d(opts).a;
}

/// pilut_factor's peak live bytes above entry and its allocation count.
Usage measure(const Csr& a, int nranks, sim::Backend backend) {
  const DistCsr dist =
      DistCsr::create(a, partition_kway(graph_from_pattern(a), nranks, {.seed = 1}));
  sim::Machine::Options machine_opts;
  machine_opts.backend = backend;
  machine_opts.threads = 4;
  // Checked mode re-derives the reduced graph every level: a diagnostic
  // whose allocations are not the factorization's.
  machine_opts.check = false;
  sim::Machine machine(nranks, machine_opts);
  const std::int64_t entry = g_live.load();
  g_peak.store(entry);
  const std::int64_t count_at_entry = g_count.load();
  const PilutResult result = pilut_factor(machine, dist, {.m = 10, .tau = 1e-4});
  Usage usage;
  usage.peak_above_entry = g_peak.load() - entry;
  usage.allocations = g_count.load() - count_at_entry;
  usage.factor_bytes = csr_bytes(result.factors.l) + csr_bytes(result.factors.u);
  return usage;
}

std::string label(const char* matrix, int nranks, sim::Backend backend) {
  return std::string(matrix) + " p=" + std::to_string(nranks) + " " +
         sim::backend_name(backend);
}

struct PeakCase {
  const char* matrix;  // "g0" (60 x 60) or "torso" (12 x 12 x 16)
  int nranks;
  sim::Backend backend;
  double measured;  // peak working bytes / factor bytes, when the bound was set
};

constexpr PeakCase kPeakCases[] = {
    {"g0", 4, sim::Backend::kSequential, 2.01},
    {"g0", 4, sim::Backend::kThreads, 2.32},
    {"g0", 16, sim::Backend::kSequential, 2.78},
    {"g0", 16, sim::Backend::kThreads, 4.59},
    {"torso", 4, sim::Backend::kSequential, 6.95},
    {"torso", 4, sim::Backend::kThreads, 7.97},
    {"torso", 16, sim::Backend::kSequential, 12.19},
    {"torso", 16, sim::Backend::kThreads, 16.62},
};

TEST(PilutMemory, PeakWorkingMemoryIsBoundedByFactorBytes) {
  const Csr g0_small = g0(60), torso_small = torso();
  for (const PeakCase& c : kPeakCases) {
    const bool is_g0 = std::string(c.matrix) == "g0";
    const Usage usage = measure(is_g0 ? g0_small : torso_small, c.nranks, c.backend);
    const double ratio = static_cast<double>(usage.peak_above_entry) /
                         static_cast<double>(usage.factor_bytes);
    std::cout << label(c.matrix, c.nranks, c.backend) << ": peak "
              << usage.peak_above_entry << " B, factors " << usage.factor_bytes
              << " B, ratio " << ratio << "\n";
    EXPECT_LE(ratio, 1.2 * c.measured) << label(c.matrix, c.nranks, c.backend);
  }
}

TEST(PilutMemory, AllocationCountDoesNotGrowWithRows) {
  // From 60^2 to 120^2 the rows grow 4x; finished rows, and the reduced
  // rows, L parts and in-edge lists of interface rows, live in chunked
  // per-rank storage and cost no allocations of their own, so the count
  // follows the level loop and the chunks. At p = 4 the interface rows
  // double, so the count grows more there.
  const Csr small = g0(60), large = g0(120);
  for (const int nranks : {4, 16}) {
    const double bound = nranks == 4 ? 2.0 : 1.5;
    for (const sim::Backend backend : {sim::Backend::kSequential, sim::Backend::kThreads}) {
      const Usage s = measure(small, nranks, backend);
      const Usage l = measure(large, nranks, backend);
      std::cout << label("g0", nranks, backend) << ": allocations 60^2 " << s.allocations
                << ", 120^2 " << l.allocations << "\n";
      EXPECT_LE(static_cast<double>(l.allocations),
                bound * static_cast<double>(s.allocations))
          << label("g0", nranks, backend);
    }
  }
}

TEST(PilutMemory, WarmSolvesAllocateIndependentlyOfTheirMessages) {
  // The message transport reuses its arenas and the supersteps reference
  // their bodies, so a warm apply or matvec allocates only its own few
  // arrays (the ghost values and the sweep cursors), not a block per
  // message or per superstep.
  constexpr std::int64_t kFewAllocations = 8;
  constexpr int kRanks = 16;
  const Csr a = torso();
  const DistCsr dist =
      DistCsr::create(a, partition_kway(graph_from_pattern(a), kRanks, {.seed = 1}));
  const Halo halo = Halo::build(dist);
  const RealVec b(static_cast<std::size_t>(a.n_rows), 1.0);
  for (const sim::Backend backend : {sim::Backend::kSequential, sim::Backend::kThreads}) {
    sim::Machine::Options machine_opts;
    machine_opts.backend = backend;
    machine_opts.threads = 4;
    // The checker and the metrics collector keep records of their own.
    machine_opts.check = false;
    machine_opts.metrics = false;
    sim::Machine machine(kRanks, machine_opts);
    const PilutResult fact = pilut_factor(machine, dist, {.m = 10, .tau = 1e-4});
    const DistTriangularSolver solver(fact.factors, fact.schedule);
    RealVec x(b.size()), y(b.size());
    // Allocations and messages of one call, after two warm-up calls (the
    // two arenas of each sender alternate between supersteps).
    const auto measure_call = [&](const auto& call) {
      call();
      call();
      const std::int64_t count_before = g_count.load();
      const std::uint64_t messages_before = machine.total_counters().messages_sent;
      call();
      return std::pair{g_count.load() - count_before,
                       machine.total_counters().messages_sent - messages_before};
    };
    const auto [apply_allocations, apply_messages] =
        measure_call([&] { solver.apply(machine, b, x); });
    const auto [spmv_allocations, spmv_messages] =
        measure_call([&] { dist_spmv(machine, dist, halo, b, y); });
    const std::string name = sim::backend_name(backend);
    std::cout << name << ": apply " << apply_allocations << " allocations, "
              << apply_messages << " messages; spmv " << spmv_allocations
              << " allocations, " << spmv_messages << " messages\n";
    EXPECT_GE(apply_messages, 1000u) << name;
    EXPECT_LE(apply_allocations, kFewAllocations) << name;
    EXPECT_GE(spmv_messages, 50u) << name;
    EXPECT_LE(spmv_allocations, kFewAllocations) << name;
  }
}

}  // namespace
}  // namespace ptilu
