// Scaling-study harness: modeled strong/weak scaling of the PILUT
// pipeline (factorization, triangular solve, GMRES) at processor counts
// far beyond the table harnesses — p up to 4096 ranks and problems up to
// 10M unknowns, simulated on one host.
//
// At these sizes neither the global matrix nor the real numerics fit the
// budget of a sweep, so this harness runs a *modeled skeleton*: each rank
// streams its own row slab of the operator (workloads/stream.hpp — never
// materializing the global matrix), keeps only the slab's row/nnz totals,
// and then drives the real sim::Machine through the pipeline's
// communication structure — halo exchanges with strip neighbors,
// MIS-style interface rounds, level-scheduled sweeps, dot-product
// collectives — with per-rank flop/byte charges derived from the streamed
// slab statistics. The messages are real Machine messages, so the sparse
// neighbor-routing substrate (DESIGN.md §12) is exercised end to end: the
// run allocates O(p + messages), never O(p^2), which is what makes the
// p=4096 / n=10M point feasible in host RAM. The modeled numbers are
// skeleton estimates for curve shape, not the table harnesses' full
// simulated factorization — see docs/SCALING.md for how to read them.
//
// Output: a table per sweep plus a machine-readable JSON file
// ("ptilu-bench-scale-v1", validated by scripts/check_bench_json.py) with
// one point per (mode, p): modeled per-phase seconds, superstep/message/
// byte totals, and speedup/efficiency relative to the sweep's first point.
//
// Flags:
//   --smoke                tiny CI-sized sweep (p up to 64, small n)
//   --procs=64,256,...     rank counts (default 64,256,1024,4096)
//   --n=N                  strong-scaling unknowns target (default 10M)
//   --workload=g0|torso    operator family (default g0)
//   --gmres-iters=K        modeled GMRES iterations (default 10)
//   --json=PATH            write the BENCH_scale.json artifact
//   --report-dir=DIR       write a ptilu-report-v2 metrics report for the
//                          largest strong-scaling point (check_report.py)
//   --exact                cross-validate streamed slabs against the dense
//                          generators at a small size before sweeping
//   --backend=..., --threads=N   execution backend (PTILU_BACKEND/THREADS)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ptilu/workloads/stream.hpp"

namespace {

using namespace ptilu;

constexpr const char* kUsage =
    "bench_scale: modeled strong/weak scaling sweep (see docs/SCALING.md)\n"
    "  --smoke              tiny CI-sized sweep\n"
    "  --procs=LIST         rank counts, ascending (default 64,256,1024,4096)\n"
    "  --n=N                strong-scaling unknowns target (default 10000000)\n"
    "  --workload=g0|torso  operator family (default g0)\n"
    "  --gmres-iters=K      modeled GMRES iterations (default 10)\n"
    "  --json=PATH          write BENCH_scale.json (ptilu-bench-scale-v1)\n"
    "  --report-dir=DIR     write ptilu-report-v2 for the largest strong point\n"
    "  --exact              cross-validate streamed slabs vs dense generators\n"
    "  --backend=<sequential|threads>, --threads=N\n";

/// Everything the modeled skeleton needs to know about one rank's slab:
/// totals only — the slab itself is discarded right after streaming.
struct SlabStats {
  idx rows = 0;
  nnz_t nnz = 0;
};

/// One operator configuration: a strip (contiguous global rows) per rank.
/// `halo` is the number of unknowns coupled across a strip boundary (one
/// grid row / voxel plane), which sizes every neighbor message.
struct Problem {
  std::string workload;
  idx n = 0;
  idx halo = 0;
  std::vector<SlabStats> slabs;  // [rank]
  nnz_t nnz_total = 0;
  idx rows_max = 0;
};

/// Contiguous row split: first `n % p` ranks take one extra row.
std::pair<idx, idx> strip_of(idx n, int p, int r) {
  const idx base = n / p;
  const idx extra = n % p;
  const idx begin = static_cast<idx>(r) * base + std::min<idx>(r, extra);
  return {begin, begin + base + (r < extra ? 1 : 0)};
}

/// Stream every rank's slab of the operator, keeping only its totals.
/// Peak memory is one slab — this is the loop that lets n=10M run here.
Problem build_problem(const std::string& workload, idx target_n, int p) {
  Problem prob;
  prob.workload = workload;
  if (workload == "torso") {
    // Voxel box with z chosen to hit the target size; strip = voxel planes.
    const idx nx = std::max<idx>(4, static_cast<idx>(std::cbrt(static_cast<double>(target_n))));
    const idx ny = nx;
    const idx nz = std::max<idx>(4, (target_n + nx * ny - 1) / (nx * ny));
    workloads::TorsoOptions opts;
    opts.nx = nx;
    opts.ny = ny;
    opts.nz = nz;
    prob.n = nx * ny * nz;
    prob.halo = nx * ny;
    prob.slabs.resize(p);
    for (int r = 0; r < p; ++r) {
      const auto [begin, end] = strip_of(prob.n, p, r);
      const Csr slab = workloads::torso_fv_3d_rows(opts, begin, end);
      prob.slabs[r] = {slab.n_rows, slab.nnz()};
    }
  } else {
    // Square convection-diffusion grid; strip = grid rows of width nx.
    const idx nx = std::max<idx>(4, static_cast<idx>(std::sqrt(static_cast<double>(target_n))));
    const idx ny = std::max<idx>(4, (target_n + nx - 1) / nx);
    prob.n = nx * ny;
    prob.halo = nx;
    prob.slabs.resize(p);
    for (int r = 0; r < p; ++r) {
      const auto [begin, end] = strip_of(prob.n, p, r);
      const Csr slab = workloads::convection_diffusion_2d_rows(nx, ny, 10.0, 20.0, begin, end);
      prob.slabs[r] = {slab.n_rows, slab.nnz()};
    }
  }
  for (const SlabStats& s : prob.slabs) {
    prob.nnz_total += s.nnz;
    prob.rows_max = std::max(prob.rows_max, s.rows);
  }
  return prob;
}

/// Modeled results of one (problem, p) skeleton run.
struct ScalePoint {
  int p = 0;
  idx n = 0;
  nnz_t nnz = 0;
  idx rows_max = 0;
  double factor_s = 0.0;
  double trisolve_s = 0.0;
  double gmres_s = 0.0;
  double total_s = 0.0;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  int max_fanout = 0;
  double speedup = 0.0;     // strong sweeps only (vs the sweep's first point)
  double efficiency = 0.0;  // relative to the sweep's first point
};

/// Drive the machine through the pipeline's communication skeleton.
/// Per-rank charges come from the streamed slab stats; every message is a
/// real Machine send to a strip neighbor, so the sparse substrate carries
/// the traffic. Phase boundaries are read off the modeled clock, so the
/// phase seconds sum to the total exactly.
ScalePoint run_skeleton(sim::Machine& machine, const Problem& prob, int gmres_iters) {
  const int p = machine.nranks();
  const idx halo = prob.halo;
  constexpr idx kFill = 10;  // modeled ILUT fill per row (m of ILUT(m, t))
  sim::Metrics* const metrics = machine.metrics();
  const auto phase = [&](const char* name) {
    if (metrics != nullptr) {
      if (metrics->current_phase() != "") metrics->pop_phase();
      metrics->push_phase(name);
    }
  };
  const auto drain = [](sim::RankContext& ctx) {
    for (const sim::Message& msg : ctx.recv_all()) {
      ctx.charge_mem(msg.payload.size());
    }
  };
  const auto send_halo = [&](sim::RankContext& ctx, std::uint64_t bytes_per_peer, int tag) {
    const int r = ctx.rank();
    if (r > 0) ctx.send_bytes(r - 1, tag, std::vector<std::byte>(bytes_per_peer));
    if (r + 1 < p) ctx.send_bytes(r + 1, tag, std::vector<std::byte>(bytes_per_peer));
  };

  // --- Factorization: interior rows eliminate locally in one modeled
  // step; interface rows (the halo-coupled boundary strips) go through
  // MIS-style rounds, each a key exchange + a status exchange with the
  // strip neighbors and a commit collective, halving the remaining
  // interface set per level (DESIGN.md §5).
  phase("factor/interior");
  machine.step(
      [&](sim::RankContext& ctx) {
        const SlabStats& s = prob.slabs[ctx.rank()];
        ctx.charge_flops(static_cast<std::uint64_t>(s.nnz) * 2u * kFill);
        ctx.charge_mem(static_cast<std::uint64_t>(s.nnz) * 12u);
      },
      "scale/factor/interior");
  phase("factor/interface");
  for (idx remaining = halo; remaining > 0; remaining = remaining / 2) {
    const std::uint64_t key_bytes = static_cast<std::uint64_t>(remaining) * 4u;
    machine.step(
        [&](sim::RankContext& ctx) {
          drain(ctx);
          send_halo(ctx, key_bytes, /*tag=*/1);
          ctx.charge_flops(static_cast<std::uint64_t>(remaining) * 3u);
        },
        "scale/factor/mis-keys");
    machine.step(
        [&](sim::RankContext& ctx) {
          drain(ctx);
          send_halo(ctx, key_bytes, /*tag=*/2);
          ctx.charge_flops(static_cast<std::uint64_t>(remaining) * 2u * kFill);
        },
        "scale/factor/mis-status");
    // Drain the status exchange before the commit collective: a collective
    // superstep runs no rank bodies, so pending messages would cross its
    // barrier undrained (the SPMD checker rejects that, DESIGN.md §9).
    machine.step(drain, "scale/factor/mis-commit");
    machine.collective(8, "scale/factor/commit");
  }
  const double t_factor = machine.modeled_time();

  // --- Triangular solves: a level-scheduled sweep per factor; each level
  // forwards one halo plane of solution values to the downstream strip.
  phase("trisolve");
  const int sweep_levels =
      std::max(1, static_cast<int>(std::ceil(std::log2(static_cast<double>(halo) + 1.0))));
  for (int dir = 0; dir < 2; ++dir) {  // L then U sweep
    for (int level = 0; level < sweep_levels; ++level) {
      machine.step(
          [&](sim::RankContext& ctx) {
            drain(ctx);
            const int r = ctx.rank();
            const int to = dir == 0 ? r + 1 : r - 1;
            if (to >= 0 && to < p) {
              ctx.send_bytes(to, /*tag=*/3, std::vector<std::byte>(static_cast<std::size_t>(halo) * 8u));
            }
            const SlabStats& s = prob.slabs[r];
            ctx.charge_flops(static_cast<std::uint64_t>(s.nnz / sweep_levels) + 1u);
          },
          "scale/trisolve/level");
    }
  }
  machine.step(drain, "scale/trisolve/drain");
  const double t_trisolve = machine.modeled_time();

  // --- GMRES: per iteration one halo exchange, then the preconditioned
  // matvec (draining the halo), then two dot-product reductions. The
  // halo send and the matvec are separate supersteps so the inbox is
  // empty by the time the reduction collectives run (see §9 note above).
  phase("gmres");
  for (int iter = 0; iter < gmres_iters; ++iter) {
    machine.step(
        [&](sim::RankContext& ctx) {
          send_halo(ctx, static_cast<std::uint64_t>(halo) * 8u, /*tag=*/4);
        },
        "scale/gmres/halo");
    machine.step(
        [&](sim::RankContext& ctx) {
          drain(ctx);
          const SlabStats& s = prob.slabs[ctx.rank()];
          ctx.charge_flops(static_cast<std::uint64_t>(s.nnz) * 4u +
                           static_cast<std::uint64_t>(s.rows) * 2u);
        },
        "scale/gmres/spmv");
    machine.collective(8, "scale/gmres/dot");
    machine.collective(8, "scale/gmres/norm");
  }
  if (metrics != nullptr && metrics->current_phase() != "") metrics->pop_phase();

  ScalePoint point;
  point.p = p;
  point.n = prob.n;
  point.nnz = prob.nnz_total;
  point.rows_max = prob.rows_max;
  point.factor_s = t_factor;
  point.trisolve_s = t_trisolve - t_factor;
  point.gmres_s = machine.modeled_time() - t_trisolve;
  point.total_s = machine.modeled_time();
  point.supersteps = machine.supersteps();
  const sim::RankCounters totals = machine.total_counters();
  point.messages = totals.messages_sent;
  point.bytes = totals.bytes_sent;
  point.max_fanout = p > 2 ? 2 : p - 1;  // strip neighbors (p2p structure)
  return point;
}

void print_points(const char* mode, const std::vector<ScalePoint>& points) {
  std::printf("\n%-6s %6s %10s %12s %11s %11s %11s %11s %8s %8s\n", mode, "p", "n",
              "nnz", "factor_s", "trisolve_s", "gmres_s", "total_s", "speedup", "eff");
  for (const ScalePoint& pt : points) {
    std::printf("%-6s %6d %10d %12lld %11.4e %11.4e %11.4e %11.4e %8.2f %8.3f\n", "",
                pt.p, pt.n, static_cast<long long>(pt.nnz), pt.factor_s, pt.trisolve_s,
                pt.gmres_s, pt.total_s, pt.speedup, pt.efficiency);
  }
  std::fflush(stdout);
}

void write_point(std::FILE* f, const ScalePoint& pt, bool strong, bool last) {
  std::fprintf(f,
               "      {\"p\": %d, \"n\": %d, \"nnz\": %lld, \"rows_max\": %d,\n"
               "       \"modeled_factor_s\": %.17g, \"modeled_trisolve_s\": %.17g,\n"
               "       \"modeled_gmres_s\": %.17g, \"modeled_total_s\": %.17g,\n"
               "       \"supersteps\": %llu, \"messages\": %llu, \"bytes\": %llu, "
               "\"max_fanout\": %d,\n",
               pt.p, pt.n, static_cast<long long>(pt.nnz), pt.rows_max, pt.factor_s,
               pt.trisolve_s, pt.gmres_s, pt.total_s,
               static_cast<unsigned long long>(pt.supersteps),
               static_cast<unsigned long long>(pt.messages),
               static_cast<unsigned long long>(pt.bytes), pt.max_fanout);
  if (strong) {
    std::fprintf(f, "       \"speedup\": %.17g, \"efficiency\": %.17g}%s\n", pt.speedup,
                 pt.efficiency, last ? "" : ",");
  } else {
    std::fprintf(f, "       \"efficiency\": %.17g}%s\n", pt.efficiency, last ? "" : ",");
  }
}

/// Byte-compare streamed slabs against the dense generators at a small
/// size (the unit tests hold this too; --exact re-proves it in situ).
void run_exact_check() {
  const idx nx = 19, ny = 17;
  const Csr dense = workloads::convection_diffusion_2d(nx, ny, 10.0, 20.0);
  workloads::TorsoOptions opts;
  opts.nx = opts.ny = 10;
  opts.nz = 12;
  const Csr torso_dense = workloads::torso_fv_3d(opts);
  for (const int p : {3, 8}) {
    nnz_t at = 0;
    for (int r = 0; r < p; ++r) {
      const auto [begin, end] = strip_of(nx * ny, p, r);
      const Csr slab = workloads::convection_diffusion_2d_rows(nx, ny, 10.0, 20.0, begin, end);
      for (idx i = 0; i < slab.n_rows; ++i) {
        for (nnz_t k = slab.row_ptr[i]; k < slab.row_ptr[i + 1]; ++k, ++at) {
          PTILU_CHECK(slab.col_idx[k] == dense.col_idx[at] &&
                          slab.values[k] == dense.values[at],
                      "conv-diff slab mismatch at entry " << at);
        }
      }
    }
    PTILU_CHECK(at == dense.nnz(), "conv-diff slab nnz mismatch");
    at = 0;
    const idx tn = opts.nx * opts.ny * opts.nz;
    for (int r = 0; r < p; ++r) {
      const auto [begin, end] = strip_of(tn, p, r);
      const Csr slab = workloads::torso_fv_3d_rows(opts, begin, end);
      for (idx i = 0; i < slab.n_rows; ++i) {
        for (nnz_t k = slab.row_ptr[i]; k < slab.row_ptr[i + 1]; ++k, ++at) {
          PTILU_CHECK(slab.col_idx[k] == torso_dense.col_idx[at] &&
                          slab.values[k] == torso_dense.values[at],
                      "torso slab mismatch at entry " << at);
        }
      }
    }
    PTILU_CHECK(at == torso_dense.nnz(), "torso slab nnz mismatch");
  }
  std::printf("exact: streamed slabs byte-identical to dense generators (OK)\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }
  const Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  std::vector<int> procs =
      cli.get_int_list("procs", smoke ? std::vector<int>{4, 16, 64}
                                      : std::vector<int>{64, 256, 1024, 4096});
  const idx target_n =
      static_cast<idx>(cli.get_int("n", smoke ? 4096 : 10000000));
  const std::string workload = cli.get_choice("workload", "g0", {"g0", "torso"});
  const int gmres_iters = static_cast<int>(cli.get_int("gmres-iters", smoke ? 3 : 10));
  const std::string json_path = cli.get_string("json", "");
  const std::string report_dir = cli.get_string("report-dir", "");
  bench::make_output_dir(report_dir, "report-dir");
  const bool exact = cli.get_bool("exact", false);
  const sim::Machine::Options machine_opts = bench::machine_options_from_cli(cli);
  cli.check_all_consumed();
  PTILU_CHECK(!procs.empty(), "--procs must list at least one rank count");
  for (std::size_t i = 0; i < procs.size(); ++i) {
    PTILU_CHECK(procs[i] >= 1, "rank counts must be >= 1");
    PTILU_CHECK(i == 0 || procs[i] > procs[i - 1], "--procs must be ascending");
  }
  PTILU_CHECK(target_n >= procs.back(), "--n must be at least the largest p");

  std::printf("bench_scale: workload=%s n=%d procs=", workload.c_str(), target_n);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    std::printf("%s%d", i == 0 ? "" : ",", procs[i]);
  }
  std::printf(" backend=%s%s\n", sim::backend_name(machine_opts.backend),
              smoke ? " (smoke)" : "");

  if (exact) run_exact_check();

  // --- Strong scaling: fixed n, growing p.
  std::vector<ScalePoint> strong;
  for (const int p : procs) {
    const Problem prob = build_problem(workload, target_n, p);
    sim::Machine machine(p, machine_opts);
    strong.push_back(run_skeleton(machine, prob, gmres_iters));
  }
  for (ScalePoint& pt : strong) {
    pt.speedup = strong.front().total_s / pt.total_s;
    pt.efficiency = pt.speedup * static_cast<double>(strong.front().p) / pt.p;
  }
  print_points("strong", strong);

  // --- Weak scaling: per-rank load fixed at the largest configuration's,
  // so n grows proportionally with p (n(p_max) == the strong sweep's n).
  std::vector<ScalePoint> weak;
  for (const int p : procs) {
    const idx n_weak = std::max<idx>(
        p, static_cast<idx>(static_cast<std::int64_t>(target_n) * p / procs.back()));
    const Problem prob = build_problem(workload, n_weak, p);
    sim::Machine machine(p, machine_opts);
    weak.push_back(run_skeleton(machine, prob, gmres_iters));
  }
  for (ScalePoint& pt : weak) {
    pt.efficiency = weak.front().total_s / pt.total_s;
  }
  print_points("weak", weak);

  // --- Metrics report for the largest strong point (report identities at
  // scale: scripts/check_report.py holds the v2 invariants at p=4096).
  if (!report_dir.empty()) {
    const int p = procs.back();
    sim::Machine::Options observed = machine_opts;
    observed.metrics = true;
    const Problem prob = build_problem(workload, target_n, p);
    sim::Machine machine(p, observed);
    run_skeleton(machine, prob, gmres_iters);
    const std::string label = workload + "_scale_p_" + std::to_string(p);
    const std::string path =
        report_dir + "/scale_" + bench::artifact_slug(label) + ".report.json";
    machine.metrics()->write_report_file(
        path, machine,
        {{"label", "\"" + label + "\""},
         {"harness", "\"bench_scale\""},
         {"procs", std::to_string(p)},
         {"n", std::to_string(prob.n)}});
    std::printf("report: %s\n", path.c_str());
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    PTILU_CHECK(f != nullptr, "cannot open " << json_path << " for writing");
    std::fprintf(f, "{\n  \"schema\": \"ptilu-bench-scale-v1\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n  \"workload\": \"%s\",\n", smoke ? "true" : "false",
                 workload.c_str());
    std::fprintf(f, "  \"backend\": \"%s\",\n  \"threads\": %d,\n  \"gmres_iters\": %d,\n",
                 sim::backend_name(machine_opts.backend), machine_opts.threads,
                 gmres_iters);
    std::fprintf(f, "  \"sweeps\": [\n    {\"mode\": \"strong\", \"points\": [\n");
    for (std::size_t i = 0; i < strong.size(); ++i) {
      write_point(f, strong[i], /*strong=*/true, i + 1 == strong.size());
    }
    std::fprintf(f, "    ]},\n    {\"mode\": \"weak\", \"points\": [\n");
    for (std::size_t i = 0; i < weak.size(); ++i) {
      write_point(f, weak[i], /*strong=*/false, i + 1 == weak.size());
    }
    std::fprintf(f, "    ]}\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
