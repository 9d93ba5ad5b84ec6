// perfbench: the repository's benchmark driver binary.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1> --out=<file>
//
// Runs one workload against the ptilu library through its public API only,
// checks every output, and writes samples, checks and (with --trace=1)
// spans to --out as JSON. perfbench/run.py builds this binary, runs it and
// turns that file into the metrics line. See perfbench/README.md for what
// each workload is for and which metric each layer should move.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/serve/factor_cache.hpp"
#include "ptilu/serve/solve_service.hpp"
#include "ptilu/serve/traffic.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/cli.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/torso.hpp"
#include "cpu_pick.hpp"
#include "record.hpp"

namespace perfbench {
namespace {

using namespace ptilu;

constexpr int kSetupRounds = 8;      // setup_s is the median over these
constexpr int kInstances = 4;        // seeded partitions of a distributed run, each set up twice
constexpr int kRanks = 16;           // simulated processors of the distributed workloads
constexpr int kCallSamples = 16;     // calls timed one by one where a single call is short
constexpr int kThreadedFactorSamples = 3;  // threaded-backend factorizations per traced run
constexpr int kBarrierSteps = 200;   // empty supersteps timed together
constexpr double kTrueResidualBound = 1e-3;  // ||b - Ax|| / ||b|| after a solve
const GmresOptions kGmres{.restart = 20, .max_matvecs = 20000, .rtol = 1e-5};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  int threads = 1;
};

/// The process's one picker; run() stops its scout thread at the end.
CpuPicker& cpu_picker() {
  static CpuPicker picker;
  return picker;
}

/// Move the benchmark thread to the fastest core before a timed unit of
/// work (see cpu_pick.hpp). The probe is not part of any timed interval.
void settle(Recorder& rec) {
  Timed t(rec, "bench.pick_cpu");
  cpu_picker().pick();
}

/// Independent seed streams derived from the one on the command line.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix64(seed * 0x100000001B3ULL + stream);
}

double median(std::vector<double> v) {
  PTILU_CHECK(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Bit-exact checksum of L and U (structure and value bits).
std::uint64_t factors_checksum(const IluFactors& f) {
  return mix64(serve::matrix_fingerprint(f.l)) ^ serve::matrix_fingerprint(f.u);
}

std::size_t csr_bytes(const Csr& a) {
  return a.row_ptr.size() * sizeof(nnz_t) + a.col_idx.size() * sizeof(idx) +
         a.values.size() * sizeof(real);
}

bool all_finite(std::span<const real> v) {
  return std::all_of(v.begin(), v.end(), [](real x) { return std::isfinite(x); });
}

/// ||b - A x|| / ||b||, computed serially on the global matrix.
double true_residual(const Csr& a, std::span<const real> x, std::span<const real> b) {
  RealVec r(b.size());
  residual(a, x, b, r);
  return norm2(r) / norm2(b);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Csr make_g0() { return workloads::convection_diffusion_2d(240, 240, 10.0, 20.0); }

Csr make_torso() {
  workloads::TorsoOptions opts;
  opts.nx = 28;
  opts.ny = 28;
  opts.nz = 40;
  return workloads::fem_torso_3d(opts).a;
}

/// Wall times of one repetition of a solver workload.
struct Rep {
  double factor_s = 0.0;
  double solve_s = 0.0;
  double trisolve_setup_s = 0.0;  ///< counted in setup_s
};

/// Working set of a solve: A, L + U, and the GMRES(20) vectors.
double working_set_mb(const Csr& a, const IluFactors& f) {
  const std::size_t vectors = static_cast<std::size_t>(kGmres.restart + 6) *
                              static_cast<std::size_t>(a.n_rows) * sizeof(real);
  return static_cast<double>(csr_bytes(a) + csr_bytes(f.l) + csr_bytes(f.u) + vectors) / 1e6;
}

// ---------------------------------------------------------------------------
// Distributed workloads: g0_dist_solve and torso_dist_factor.
//
// Each run spreads its repetitions over kInstances instances, each with
// its own seeded partition and MIS. One partition moves the modeled
// factor time by 10-13% from seed to seed; averaging over several keeps
// that from deciding the figures of a run.
//
// The repetitions run on the sequential backend. On a host whose cores
// are shared with other machines, the threaded backend's barrier-per-
// superstep execution made gmres_dist on G0 take 1.2 s to 6 s from one
// run to the next, where the sequential backend stayed within 10%. The
// traced run times the threaded backend apart: the median of a few
// factorizations (sim.threaded_factor_s), each checked against the
// sequential checksum, and the wall time of an empty superstep
// (sim.threaded_barrier_s), the host cost of one barrier.

class DistWorkload {
 public:
  DistWorkload(const Options& o, bool solve, Csr (*generate)())
      : opts_(o), solve_(solve), generate_(generate), instances_(kInstances) {
    machine_opts_.backend = sim::Backend::kSequential;
    machine_opts_.check = false;
    machine_opts_.metrics = false;
    machine_ = std::make_unique<sim::Machine>(kRanks, machine_opts_);
  }

  int instances() const { return static_cast<int>(instances_.size()); }

  /// Operator, partition, distribution and halo of instance `round`
  /// modulo the instance count.
  double setup(Recorder& rec, int round) {
    round %= instances();
    Instance& in = instances_[static_cast<std::size_t>(round)];
    const std::uint64_t stream = 16 * static_cast<std::uint64_t>(round);
    const double t0 = rec.now();
    Csr a;
    {
      Timed t(rec, "workloads.generate");
      a = generate_();
    }
    Graph g;
    Partition part;
    {
      Timed t(rec, "part.partition");
      g = graph_from_pattern(a);
      part = partition_kway(g, kRanks, {.seed = sub_seed(opts_.seed, stream + 1)});
    }
    {
      Timed t(rec, "bench.stats");
      rec.sample("part.edge_cut", static_cast<double>(edge_cut(g, part)));
      rec.sample("part.interface_nodes", static_cast<double>(count_interface(g, part)));
    }
    {
      Timed t(rec, "dist.create");
      in.dist = DistCsr::create(std::move(a), part);
    }
    {
      Timed t(rec, "dist.halo_build");
      in.halo = Halo::build(in.dist);
    }
    in.pilut = {.m = 10, .tau = 1e-4, .seed = sub_seed(opts_.seed, stream + 2)};
    // GMRES gets b = A*1, as in the paper's experiments: with a random b
    // the matvec count on G0 ranges from 51 to 78 over seeds and would set
    // the solve time. A lone preconditioner application does not care,
    // so torso_dist_factor applies to a seeded random vector.
    in.b = solve_ ? workloads::rhs_all_ones_solution(in.dist.a)
                  : workloads::random_vector(in.dist.n(), sub_seed(opts_.seed, stream + 3));
    return rec.now() - t0;
  }

  /// One factorization of instance `i`, its trisolve schedule, and the
  /// solve. The first repetition of an instance fixes the checksum and
  /// modeled times that every later one must repeat exactly.
  Rep rep(Recorder& rec, int i) {
    Instance& in = instances_[static_cast<std::size_t>(i)];
    Rep out;
    sim::Machine& m = *machine_;
    PilutResult res;
    {
      Timed t(rec, "pilut.factor");
      res = pilut_factor(m, in.dist, in.pilut);
      out.factor_s = t.stop();
    }
    const double modeled_factor = m.modeled_time();
    const std::uint64_t factor_steps = m.supersteps();
    std::unique_ptr<DistTriangularSolver> solver;
    {
      Timed t(rec, "pilut.trisolve_setup");
      solver = std::make_unique<DistTriangularSolver>(res.factors, res.schedule);
      out.trisolve_setup_s = t.stop();
    }
    RealVec x(static_cast<std::size_t>(in.dist.n()), 0.0);
    GmresResult g;
    settle(rec);
    if (solve_) {
      Timed t(rec, "krylov.gmres_dist");
      g = gmres_dist(m, in.dist, in.halo, *solver, in.b, x, kGmres);
      out.solve_s = t.stop();
    } else {
      // No Krylov solve here (GMRES would need thousands of matvecs on
      // this operator): the solve is one preconditioner application, the
      // median of kCallSamples of them.
      RealVec permuted(x.size());
      for (std::size_t r = 0; r < x.size(); ++r) {
        permuted[static_cast<std::size_t>(res.schedule.newnum[r])] = in.b[r];
      }
      std::vector<double> apply_s;
      for (int call = 0; call < kCallSamples; ++call) {
        m.reset();
        Timed t(rec, "pilut.trisolve_apply");
        solver->apply(m, permuted, x);
        apply_s.push_back(t.stop());
      }
      out.solve_s = median(apply_s);
    }
    const double modeled_solve = m.modeled_time();
    const std::uint64_t solve_steps = m.supersteps();

    Timed check_span(rec, "bench.check");
    const std::uint64_t sum = factors_checksum(res.factors);
    if (!in.reference) {
      in.reference = true;
      in.checksum = sum;
      in.modeled_factor = modeled_factor;
      in.modeled_solve = modeled_solve;
      rec.sample("bench.working_set_mb", working_set_mb(in.dist.a, res.factors));
      if (!solve_) check_apply_matches_serial(rec, in, res, x);
    }
    rec.check("pilut.factor", sum == in.checksum && modeled_factor == in.modeled_factor,
              "checksum " + hex(sum) + " modeled " + std::to_string(modeled_factor));
    if (solve_) {
      const double rel = true_residual(in.dist.a, x, in.b);
      rec.check("krylov.gmres_dist",
                g.converged && rel <= kTrueResidualBound && modeled_solve == in.modeled_solve,
                "converged " + std::to_string(g.converged) + " true residual " +
                    std::to_string(rel) + " modeled " + std::to_string(modeled_solve));
      rec.sample("matvecs", g.matvecs);
      rec.sample("true_residual", rel);
    } else {
      rec.check("pilut.trisolve_apply", all_finite(x) && modeled_solve == in.modeled_solve,
                "modeled " + std::to_string(modeled_solve));
      rec.sample("pilut.trisolve_apply_messages",
                 static_cast<double>(m.total_counters().messages_sent));
    }
    rec.sample("modeled_factor_s", modeled_factor);
    rec.sample("modeled_solve_s", modeled_solve);
    rec.sample("pilut.levels", res.stats.levels);
    rec.sample("pilut.max_reduced_row", static_cast<double>(res.stats.max_reduced_row));
    rec.sample("pilut.flops", static_cast<double>(res.stats.flops));
    rec.sample("pilut.messages", static_cast<double>(res.stats.messages));
    rec.sample("pilut.bytes_sent", static_cast<double>(res.stats.bytes_sent));
    rec.sample("pilut.supersteps", static_cast<double>(res.stats.supersteps));
    rec.sample("pilut.interior.modeled_s", res.stats.time_interior);
    rec.sample("pilut.interface.modeled_s", res.stats.time_interface);
    // Sequential backend: mostly the compute of a superstep, not a barrier.
    rec.sample("sim.seq_wall_per_superstep_s",
               (out.factor_s + out.solve_s) / static_cast<double>(factor_steps + solve_steps));
    rec.sample("ilu.fill_ratio", res.factors.fill_factor(in.dist.a.nnz()));
    check_span.stop();

    if (solve_ && rec.tracing()) replay(rec, in, *solver, g, out.solve_s);
    return out;
  }

  /// Traced run only: the factorization of instance 0 on the threaded
  /// backend must give the sequential checksum bit for bit. Also times the
  /// threaded backend on its own: whole factorizations, and empty
  /// supersteps, whose wall time is the host cost of one barrier.
  bool check_threaded_backend(Recorder& rec) {
    const Instance& in = instances_.front();
    sim::Machine::Options threaded = machine_opts_;
    threaded.backend = sim::Backend::kThreads;
    threaded.threads = opts_.threads;
    sim::Machine m(kRanks, threaded);
    {
      Timed t(rec, "bench.check");
      // The worker pool inherits this thread's affinity: let it use every core.
      cpu_picker().release();
      pilut_factor(m, in.dist, in.pilut);  // starts the worker pool
    }
    bool ok = true;
    std::vector<double> factor_s;
    for (int call = 0; call < kThreadedFactorSamples; ++call) {
      PilutResult res;
      {
        Timed t(rec, "sim.threaded_factor");
        res = pilut_factor(m, in.dist, in.pilut);
        factor_s.push_back(t.stop());
      }
      ok &= rec.check("pilut.threaded_backend", factors_checksum(res.factors) == in.checksum,
                      "threaded checksum " + hex(factors_checksum(res.factors)));
    }
    rec.sample("sim.threaded_factor_s", median(factor_s));
    for (int round = 0; round < kCallSamples; ++round) {
      Timed t(rec, "sim.threaded_barrier");
      for (int step = 0; step < kBarrierSteps; ++step) m.step([](sim::RankContext&) {});
      rec.sample("sim.threaded_barrier_s", t.stop() / kBarrierSteps);
    }
    return ok;
  }

 private:
  struct Instance {
    DistCsr dist;
    Halo halo;
    PilutOptions pilut;
    RealVec b;
    bool reference = false;  ///< checksum and modeled times below are set
    std::uint64_t checksum = 0;
    double modeled_factor = 0.0;
    double modeled_solve = 0.0;
  };

  /// gmres_dist takes a concrete solver, so the calls it makes cannot be
  /// wrapped from outside the library. The traced run times the same calls
  /// (halo SpMV and the level-scheduled trisolves) on the same operands
  /// directly, and attributes gmres_dist's remaining time to the Krylov
  /// layer itself (Arnoldi/MGS, scatters, allreduces).
  void replay(Recorder& rec, const Instance& in, const DistTriangularSolver& solver,
              const GmresResult& g, double gmres_s) {
    sim::Machine& m = *machine_;
    RealVec y(in.b.size());
    std::vector<double> apply_s, spmv_s;
    for (int call = 0; call < kCallSamples; ++call) {
      m.reset();
      {
        Timed t(rec, "pilut.trisolve_apply");
        solver.apply(m, in.b, y);
        apply_s.push_back(t.stop());
      }
      rec.sample("pilut.trisolve_apply_messages",
                 static_cast<double>(m.total_counters().messages_sent));
      m.reset();
      {
        Timed t(rec, "dist.spmv");
        dist_spmv(m, in.dist, in.halo, in.b, y);
        spmv_s.push_back(t.stop());
      }
      rec.sample("dist.spmv_bytes", static_cast<double>(m.total_counters().bytes_sent));
    }
    const double precond = g.matvecs * median(apply_s);
    rec.sample("krylov.precond_share", precond / gmres_s);
    rec.sample("krylov.other_self_s", gmres_s - precond - g.matvecs * median(spmv_s));
  }

  void check_apply_matches_serial(Recorder& rec, const Instance& in, const PilutResult& res,
                                  const RealVec& x_new) {
    const IluPreconditioner serial(res.factors, res.schedule.newnum);
    RealVec x(in.b.size());
    serial.apply(in.b, x);
    double diff = 0.0, scale = 0.0;
    for (std::size_t r = 0; r < x.size(); ++r) {
      diff = std::max(diff, std::abs(x[r] - x_new[static_cast<std::size_t>(res.schedule.newnum[r])]));
      scale = std::max(scale, std::abs(x[r]));
    }
    rec.check("pilut.trisolve_apply_vs_serial", diff <= 1e-12 * scale,
              "max diff " + std::to_string(diff));
  }

  Options opts_;
  bool solve_;
  Csr (*generate_)();
  std::vector<Instance> instances_;
  sim::Machine::Options machine_opts_;
  std::unique_ptr<sim::Machine> machine_;
};

// ---------------------------------------------------------------------------
// torso_serial_solve: the single-threaded baseline.

/// Preconditioner wrapper: each application becomes an "ilu.apply" span.
class TracedPreconditioner final : public Preconditioner {
 public:
  TracedPreconditioner(const Preconditioner& inner, Recorder& rec) : inner_(inner), rec_(rec) {}
  void apply(std::span<const real> b, std::span<real> x) const override {
    Timed t(rec_, "ilu.apply");
    inner_.apply(b, x);
    seconds_ += t.stop();
  }
  double seconds() const { return seconds_; }

 private:
  const Preconditioner& inner_;
  Recorder& rec_;
  mutable double seconds_ = 0.0;
};

class SerialWorkload {
 public:
  int instances() const { return 1; }

  double setup(Recorder& rec, int /*round*/) {
    const double t0 = rec.now();
    {
      Timed t(rec, "workloads.generate");
      a_ = make_torso();
    }
    // b = A*1, fixed: restarted GMRES on TORSO needs anywhere from 480 to
    // 780 matvecs when b is perturbed by as little as 1%, so a seeded b
    // would make the solve time a property of the seed.
    b_ = workloads::rhs_all_ones_solution(a_);
    return rec.now() - t0;
  }

  Rep rep(Recorder& rec, int /*instance*/) {
    Rep out;
    std::optional<IluPreconditioner> pc;
    {
      Timed t(rec, "ilu.factor");
      pc.emplace(ilut(a_, {.m = 10, .tau = 1e-4}));
      out.factor_s = t.stop();
    }
    RealVec x(b_.size(), 0.0);
    GmresResult g;
    std::optional<TracedPreconditioner> traced;
    if (rec.tracing()) traced.emplace(*pc, rec);
    {
      Timed t(rec, "krylov.gmres");
      g = gmres(a_, traced ? static_cast<const Preconditioner&>(*traced) : *pc, b_, x, kGmres);
      out.solve_s = t.stop();
    }
    Timed check_span(rec, "bench.check");
    const IluFactors& f = pc->factors();
    const std::uint64_t sum = factors_checksum(f);
    if (!reference_) {
      reference_ = true;
      checksum_ = sum;
      rec.sample("bench.working_set_mb", working_set_mb(a_, f));
    }
    rec.check("ilu.factor", sum == checksum_, "checksum " + hex(sum));
    const double rel = true_residual(a_, x, b_);
    rec.check("krylov.gmres", g.converged && rel <= kTrueResidualBound,
              "converged " + std::to_string(g.converged) + " true residual " + std::to_string(rel));
    rec.sample("matvecs", g.matvecs);
    rec.sample("true_residual", rel);
    rec.sample("ilu.fill_ratio", f.fill_factor(a_.nnz()));
    // Bytes one application reads and writes, from the array sizes (a
    // computed figure: cache reuse is not modelled).
    rec.sample("ilu.apply_bytes_computed",
               static_cast<double>(csr_bytes(f.l) + csr_bytes(f.u) + 3 * b_.size() * sizeof(real)));
    check_span.stop();

    if (traced) {
      std::vector<double> spmv_s;
      RealVec y(b_.size());
      for (int call = 0; call < kCallSamples; ++call) {
        Timed t(rec, "sparse.spmv");
        spmv(a_, b_, y);
        spmv_s.push_back(t.stop());
      }
      rec.sample("krylov.precond_share", traced->seconds() / out.solve_s);
      rec.sample("krylov.other_self_s",
                 out.solve_s - traced->seconds() - g.matvecs * median(spmv_s));
    }
    return out;
  }

 private:
  Csr a_;
  RealVec b_;
  bool reference_ = false;
  std::uint64_t checksum_ = 0;
};

// ---------------------------------------------------------------------------
// Solver driver shared by the three solver workloads.

/// Run `body` with tracing on when `trace`, adding its wall time to the
/// traced total that the top-level spans must account for.
template <class Body>
auto section(Recorder& rec, bool trace, Body&& body) {
  rec.set_tracing(trace);
  const double start = rec.now();
  auto result = body();
  if (trace) rec.sample("bench.traced_wall_s", rec.now() - start);
  rec.set_tracing(false);
  return result;
}

template <class Workload>
void run_solver(Recorder& rec, const Options& o, Workload& w) {
  std::vector<double> setup_rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    setup_rounds.push_back(section(rec, o.trace, [&] {
      settle(rec);
      return w.setup(rec, r);
    }));
  }
  w.rep(rec, 0);  // warm-up: caches and the first reference checksum
  if constexpr (requires { w.check_threaded_backend(rec); }) {
    if (o.trace) section(rec, true, [&] { return w.check_threaded_backend(rec); });
  }

  std::vector<double> trisolve_setup;
  const double t0 = rec.now();
  int reps = 0;
  // Untraced runs repeat the workload; traced runs alternate an untraced
  // and a traced repetition, so the tracing overhead is measured in pairs.
  while (reps < 3 || rec.now() - t0 < o.seconds) {
    const int instance = reps % w.instances();
    settle(rec);
    const auto plain = w.rep(rec, instance);
    const double tts = plain.factor_s + plain.solve_s;
    trisolve_setup.push_back(plain.trisolve_setup_s);
    rec.sample("factor_s", plain.factor_s);
    rec.sample("solve_s", plain.solve_s);
    rec.sample("time_to_solution_s", tts);
    if (o.trace) {
      const auto traced = section(rec, true, [&] {
        settle(rec);
        return w.rep(rec, instance);
      });
      rec.sample("trace.overhead_s", traced.factor_s + traced.solve_s - tts);
    }
    ++reps;
  }
  rec.sample("setup_s", median(setup_rounds) + median(trisolve_setup));
  rec.sample("bench.reps", reps);
}

// ---------------------------------------------------------------------------
// serve_mixed: open-loop traffic against a FactorCache of G0-family operators.

// The traffic is synthetic; no trace of real solver traffic is at hand.
// Each arrival is a client that submits a group of 1..kGroupMax right-hand
// sides for one operator at once (a parameter sweep or an ensemble over
// one discretisation). Groups arrive as a Poisson process. With single
// requests the server is idle most of the time at any rate that keeps the
// p50 steady, and batches stay at about one column (1.17 measured at 60
// requests/s); with groups, batches hold about 4.3 columns while the
// server is busy about a third of the time (serve.busy_share). At 100
// requests/s the server was busy half of the time, and queueing made the
// p50 follow the host's speed: its quartile spread over ten seeds was 0.35.
constexpr int kServeOps = 3;           // distinct operators, all resident in the cache
constexpr std::size_t kCacheCap = 6;   // live operators plus stale entries of updated ones
constexpr int kBatchCap = 8;
constexpr int kGroupMax = 8;           // right-hand sides one client submits at once
constexpr double kOfferedRps = 60.0;   // fixed offered rate in requests, well below saturation
constexpr int kUpdateEvery = 50;       // one request in this many carries a coefficient update
constexpr int kMinRequests = 1000;     // so p99 has at least ten samples beyond it
constexpr int kRhsPool = 16;
constexpr int kSampleEvery = 64;       // served columns re-checked against a single apply

struct ServeRequest {
  double due_s = 0.0;
  int op = 0;
  int rhs = 0;
  bool update = false;
  double cx = 0.0, cy = 0.0;  ///< new coefficients when update
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const Options& o) {
    // A traced run serves the stream twice (untraced, then traced).
    const double seconds = o.trace ? o.seconds / 2 : o.seconds;
    const int n = std::max(kMinRequests, static_cast<int>(kOfferedRps * 0.9 * seconds));
    const double mean_group = 0.5 * (kGroupMax + 1);
    const auto groups = serve::make_schedule({.requests = n,
                                              .mean_interarrival_s = mean_group / kOfferedRps,
                                              .seed = sub_seed(o.seed, 4)});
    Rng rng(sub_seed(o.seed, 5));
    const std::uint64_t update_slot = rng.next_below(kUpdateEvery);
    for (const serve::Request& g : groups) {
      const int op = static_cast<int>(rng.next_below(kServeOps));
      const int size = 1 + static_cast<int>(rng.next_below(kGroupMax));
      for (int j = 0; j < size && std::ssize(requests_) < n; ++j) {
        ServeRequest q;
        q.due_s = g.arrival_s;
        q.op = op;
        q.rhs = static_cast<int>((g.rhs_seed + static_cast<std::uint64_t>(j)) % kRhsPool);
        q.update = requests_.size() % kUpdateEvery == update_slot;
        q.cx = base_cx(q.op) * rng.uniform(0.95, 1.05);
        q.cy = base_cy(q.op) * rng.uniform(0.95, 1.05);
        requests_.push_back(q);
      }
    }
    for (int i = 0; i < kRhsPool; ++i) {
      rhs_.push_back(serve::make_rhs(240 * 240, sub_seed(o.seed, 100 + static_cast<std::uint64_t>(i))));
    }
  }

  /// Operators and a warm cache: one setup round.
  double setup(Recorder& rec) {
    const double t0 = rec.now();
    ops_.clear();
    coefficients_.clear();
    for (int op = 0; op < kServeOps; ++op) {
      Timed t(rec, "workloads.generate");
      ops_.push_back(workloads::convection_diffusion_2d(240, 240, base_cx(op), base_cy(op)));
      coefficients_.emplace_back(base_cx(op), base_cy(op));
    }
    cache_ = std::make_unique<serve::FactorCache>(kCacheCap);
    double bytes = 0.0;
    for (const Csr& a : ops_) {
      std::shared_ptr<const Preconditioner> factor;
      {
        Timed t(rec, "serve.resolve_miss");
        factor = cache_->get(a, ilut_);
        rec.sample("factor_s", t.stop());
      }
      const auto& f = dynamic_cast<const IluPreconditioner&>(*factor).factors();
      bytes += static_cast<double>(csr_bytes(a) + csr_bytes(f.l) + csr_bytes(f.u));
      rec.sample("ilu.fill_ratio", f.fill_factor(a.nnz()));
    }
    // Operators and their factors, plus one full batch of right-hand sides
    // and solutions.
    bytes += 2.0 * kBatchCap * static_cast<double>(ops_.front().n_rows * sizeof(real));
    working_set_mb_ = bytes / 1e6;
    return rec.now() - t0;
  }

  double working_set_mb() const { return working_set_mb_; }

  struct Outcome {
    std::vector<double> latency;  ///< per request, from its due time
    double elapsed_s = 0.0;
  };

  /// Serve the whole stream. Open loop: request i becomes due at its
  /// scheduled time. Saturated: every request is due at t=0.
  Outcome serve(Recorder& rec, bool open_loop) {
    const std::size_t n = requests_.size();
    Outcome out;
    out.latency.assign(n, 0.0);
    std::deque<std::size_t> queue;
    std::size_t next = 0;
    const double lead = 0.005;
    const double start = rec.now() + lead;
    const auto due = [&](std::size_t i) { return open_loop ? start + requests_[i].due_s : start; };
    std::size_t served = 0;
    double busy_s = 0.0;
    const serve::CacheStats before = cache_->stats();
    while (served < n) {
      double now = rec.now();
      while (next < n && due(next) <= now) queue.push_back(next++);
      if (queue.empty()) {
        Timed idle(rec, "bench.idle");
        const double wait = due(next) - now;
        if (wait > 0.002) std::this_thread::sleep_for(std::chrono::duration<double>(wait - 0.001));
        while (rec.now() < due(next)) {
        }
        idle.stop();
        if (open_loop) rec.sample("serve.generator_lag_s", rec.now() - due(next));
        continue;
      }
      // FIFO per operator: the head request picks the operator, and the
      // batch takes queued requests for that operator in arrival order. A
      // coefficient update is served alone, before anything queued behind it.
      std::vector<std::size_t> batch{queue.front()};
      const ServeRequest& head = requests_[queue.front()];
      if (!head.update) {
        for (std::size_t q = 1; q < queue.size() && batch.size() < kBatchCap; ++q) {
          const ServeRequest& r = requests_[queue[q]];
          if (r.op != head.op) continue;
          if (r.update) break;
          batch.push_back(queue[q]);
        }
      }
      std::erase_if(queue, [&](std::size_t i) {
        return std::find(batch.begin(), batch.end(), i) != batch.end();
      });
      const double batch_start = rec.now();
      bool ok = true;
      try {
        serve_batch(rec, batch, open_loop);
      } catch (const std::exception& e) {
        ok = false;
        std::fprintf(stderr, "perfbench: serve batch failed: %s\n", e.what());
      }
      const double finish = rec.now();
      busy_s += finish - batch_start;
      for (const std::size_t i : batch) {
        // A failed request counts as missing any latency limit.
        out.latency[i] = ok ? finish - due(i) : INFINITY;
        if (open_loop) rec.sample("serve.queue_wait_s", batch_start - due(i));
        rec.check("serve.request", ok);
      }
      served += batch.size();
    }
    out.elapsed_s = rec.now() - start;
    if (open_loop) {
      const double hits = static_cast<double>(cache_->stats().hits - before.hits);
      const double misses = static_cast<double>(cache_->stats().misses - before.misses);
      rec.sample("serve.hit_ratio", hits / (hits + misses));
      rec.sample("serve.busy_share", busy_s / out.elapsed_s);
    }
    return out;
  }

  /// The bit-for-bit contract of apply_batch on the columns kept while
  /// serving: each must equal the single-RHS apply of a factor computed
  /// afresh from the same operator. (Keeping the served factors instead
  /// would hold every stale one in memory and inflate peak_rss_mb.)
  bool check_samples(Recorder& rec) {
    Timed t(rec, "bench.check");
    std::map<std::pair<double, double>, std::vector<const Sample*>> by_operator;
    for (const Sample& s : samples_) by_operator[s.coefficients].push_back(&s);
    bool ok = true;
    for (const auto& [c, samples] : by_operator) {
      const IluPreconditioner factor(
          ilut(workloads::convection_diffusion_2d(240, 240, c.first, c.second), ilut_));
      for (const Sample* s : samples) {
        RealVec x(s->column.size());
        factor.apply(rhs_[static_cast<std::size_t>(s->rhs)], x);
        ok &= rec.check("serve.column_bitwise",
                        std::memcmp(x.data(), s->column.data(), x.size() * sizeof(real)) == 0);
      }
    }
    samples_.clear();
    return ok;
  }

  const std::vector<ServeRequest>& requests() const { return requests_; }

 private:
  static double base_cx(int op) { return 10.0 + 5.0 * op; }
  static double base_cy(int op) { return 20.0 - 5.0 * op; }

  void serve_batch(Recorder& rec, const std::vector<std::size_t>& batch, bool open_loop) {
    Timed span(rec, "serve.batch");
    const ServeRequest& head = requests_[batch.front()];
    Csr& a = ops_[static_cast<std::size_t>(head.op)];
    if (head.update) {
      Timed t(rec, "workloads.generate");
      a = workloads::convection_diffusion_2d(240, 240, head.cx, head.cy);
      coefficients_[static_cast<std::size_t>(head.op)] = {head.cx, head.cy};
    }
    const std::uint64_t misses = cache_->stats().misses;
    std::shared_ptr<const Preconditioner> factor;
    {
      Timed t(rec, "serve.resolve");
      factor = cache_->get(a, ilut_);
      const double s = t.stop();
      const bool miss = cache_->stats().misses != misses;
      t.rename(miss ? "serve.resolve_miss" : "serve.resolve_hit");
      if (miss) rec.sample("factor_s", s);
    }
    const int k = static_cast<int>(batch.size());
    DenseRhsBlock b(a.n_rows, k), x(a.n_rows, k);
    for (int c = 0; c < k; ++c) {
      b.set_col(c, rhs_[static_cast<std::size_t>(requests_[batch[static_cast<std::size_t>(c)]].rhs)]);
    }
    {
      Timed t(rec, "serve.apply_batch");
      serve::apply_batch(*factor, b, x);
      if (open_loop) rec.sample("serve.apply_batch_s_per_col", t.stop() / k);
    }
    if (open_loop) rec.sample("serve.batch_size_mean", k);
    for (int c = 0; c < k; ++c) {
      const std::size_t i = batch[static_cast<std::size_t>(c)];
      if (open_loop && i % kSampleEvery == 0) {
        const auto col = x.col(c);
        samples_.push_back({coefficients_[static_cast<std::size_t>(head.op)], requests_[i].rhs,
                            RealVec(col.begin(), col.end())});
      }
    }
  }

  struct Sample {
    std::pair<double, double> coefficients;  ///< (cx, cy) of the operator that served it
    int rhs = 0;
    RealVec column;
  };

  IlutOptions ilut_{.m = 10, .tau = 1e-4};
  double working_set_mb_ = 0.0;
  std::vector<ServeRequest> requests_;
  std::vector<RealVec> rhs_;
  std::vector<Csr> ops_;
  std::vector<std::pair<double, double>> coefficients_;  ///< current (cx, cy) per operator
  std::unique_ptr<serve::FactorCache> cache_;
  std::vector<Sample> samples_;
};

/// Per-request latencies of one open-loop pass (a failed request is
/// written as null and read as infinite). run.py derives the percentiles.
void record_latencies(Recorder& rec, const ServeWorkload& w, const ServeWorkload::Outcome& o,
                      const std::string& prefix) {
  for (std::size_t i = 0; i < o.latency.size(); ++i) {
    rec.sample(prefix + "serve.latency_s", o.latency[i]);
    if (w.requests()[i].update) rec.sample(prefix + "serve.update_latency_s", o.latency[i]);
  }
}

void run_serve(Recorder& rec, const Options& o) {
  ServeWorkload w(o);
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    rounds.push_back(section(rec, o.trace, [&] {
      settle(rec);
      return w.setup(rec);
    }));
  }
  rec.sample("setup_s", median(rounds));
  rec.sample("bench.working_set_mb", w.working_set_mb());
  rec.sample("bench.requests", static_cast<double>(w.requests().size()));

  const auto open = w.serve(rec, true);
  record_latencies(rec, w, open, "");
  section(rec, o.trace, [&] { return w.check_samples(rec); });
  if (!o.trace) return;

  // Saturated replay of the same stream, from the same warm state.
  w.setup(rec);
  const auto saturated = w.serve(rec, false);
  rec.sample("serve_saturated_rps", static_cast<double>(w.requests().size()) / saturated.elapsed_s);

  // The traced open loop, from the same warm state again.
  const auto traced = section(rec, true, [&] {
    w.setup(rec);
    const auto outcome = w.serve(rec, true);
    w.check_samples(rec);
    return outcome;
  });
  record_latencies(rec, w, traced, "traced.");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int run(const Options& o) {
  Recorder rec;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  rec.info("workload", o.workload);
  rec.info("seed", std::to_string(o.seed));
  rec.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  rec.info("llc_bytes", llc > 0 ? std::to_string(llc) : "unknown");

  if (o.workload == "g0_dist_solve" || o.workload == "torso_dist_factor") {
    const bool solve = o.workload == "g0_dist_solve";
    rec.info("backend", "sequential");
    rec.info("threads", "1");
    rec.info("threaded_check_threads", std::to_string(o.threads));
    rec.info("ranks", std::to_string(kRanks));
    DistWorkload w(o, solve, solve ? make_g0 : make_torso);
    run_solver(rec, o, w);
  } else if (o.workload == "torso_serial_solve") {
    rec.info("backend", "serial");
    rec.info("threads", "1");
    SerialWorkload w;
    run_solver(rec, o, w);
  } else if (o.workload == "serve_mixed") {
    rec.info("backend", "serial");
    rec.info("threads", "1");
    run_serve(rec, o);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  cpu_picker().stop();
  rec.sample("peak_rss_mb", peak_rss_mb());
  if (!rec.write_json(o.out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const ptilu::Cli cli(argc, argv);
    perfbench::Options o;
    o.workload = cli.get_string("workload", "");
    o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    o.seconds = cli.get_double("seconds", 10.0);
    o.trace = cli.get_int("trace", 0) != 0;
    o.out = cli.get_string("out", "");
    // One core is left to the OS and the calling process: a rank thread
    // preempted at a superstep barrier stalls all the others.
    const int nproc = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
    o.threads = std::clamp(nproc - 1, 1, 4);
    cli.check_all_consumed();
    PTILU_CHECK(!o.out.empty(), "--out is required");
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
