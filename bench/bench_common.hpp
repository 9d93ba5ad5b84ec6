// Shared pieces of the table/figure reproduction harnesses: the two test
// matrices (G0 and TORSO analogues — see DESIGN.md §1 for the
// substitutions), the paper's nine (m, t) factorization configurations,
// and small formatting helpers.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/cli.hpp"
#include "ptilu/support/table.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/torso.hpp"

namespace ptilu::bench {

/// One (m, t) configuration of Table 1/2/3. The paper sweeps
/// m in {5, 10, 20} x t in {1e-2, 1e-4, 1e-6}.
struct FactorConfig {
  idx m;
  real tau;
};

inline std::vector<FactorConfig> paper_configs() {
  std::vector<FactorConfig> configs;
  for (const real tau : {1e-2, 1e-4, 1e-6}) {
    for (const idx m : {5, 10, 20}) configs.push_back({m, tau});
  }
  return configs;
}

/// "ILUT(10,1e-4)" / "ILUT*(10,1e-4,2)" labels as in the paper's tables.
inline std::string config_label(const FactorConfig& config, idx cap_k) {
  std::string label = cap_k > 0 ? "ILUT*(" : "ILUT(";
  label += std::to_string(config.m);
  label += ',';
  label += format_sci(config.tau, 0);
  if (cap_k > 0) {
    label += ',';
    label += std::to_string(cap_k);
  }
  label += ')';
  return label;
}

/// Scale presets: --quick (CI-sized), default (fits the full sweep in
/// minutes on one host), --paper (the paper's problem sizes; slow because
/// the 128-way runs are simulated on one core).
struct Scale {
  idx g0_nx = 240, g0_ny = 240;      // paper scale: 57,600 unknowns
  idx torso_nx = 28, torso_ny = 28, torso_nz = 40;
};

inline Scale scale_from_cli(const Cli& cli) {
  Scale scale;
  if (cli.get_bool("quick", false)) {
    scale = {96, 96, 16, 16, 24};
  } else if (cli.get_bool("paper", false)) {
    scale = {240, 240, 56, 56, 78};  // TORSO analogue ~112k nodes
  }
  return scale;
}

struct TestMatrix {
  std::string name;
  Csr a;
};

inline TestMatrix build_g0(const Scale& scale) {
  // Centered-difference convection-diffusion: mild convection keeps the
  // matrix nonsymmetric so the threshold rules have real work to do.
  return {"G0", workloads::convection_diffusion_2d(scale.g0_nx, scale.g0_ny, 10.0, 20.0)};
}

inline TestMatrix build_torso(const Scale& scale) {
  workloads::TorsoOptions opts;
  opts.nx = scale.torso_nx;
  opts.ny = scale.torso_ny;
  opts.nz = scale.torso_nz;
  return {"TORSO", workloads::fem_torso_3d(opts).a};
}

/// Shared `--backend=<sequential|threads>` / `--threads=N` handling for the
/// harnesses. Defaults come from Machine::Options itself, i.e. from the
/// PTILU_BACKEND / PTILU_THREADS environment variables, so a CI job can
/// flip an entire harness without touching its command line; the flags
/// override the environment. Both backends produce bit-identical modeled
/// results (see DESIGN.md §10), so this only changes host wall-clock — and
/// the JSON reports record which backend ran, so cross-backend wall-clock
/// comparisons are refused by scripts/check_bench_json.py unless explicitly
/// requested.
inline sim::Machine::Options machine_options_from_cli(const Cli& cli) {
  sim::Machine::Options opts;
  const std::string backend = cli.get_choice(
      "backend", "", {"seq", "sequential", "serial", "thread", "threads", "threaded"});
  if (!backend.empty()) opts.backend = sim::parse_backend(backend);
  opts.threads = static_cast<int>(cli.get_int("threads", opts.threads));
  return opts;
}

/// Partition + distribute for a given processor count.
inline DistCsr distribute(const Csr& a, int nranks, std::uint64_t seed = 1) {
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, nranks, {.seed = seed});
  return DistCsr::create(a, p);
}

inline void print_header(const std::string& title, const TestMatrix& matrix) {
  const auto stats = workloads::matrix_stats(matrix.a);
  std::cout << "\n=== " << title << " — " << matrix.name << " ("
            << workloads::describe(stats) << ") ===\n";
}

/// File-name slug for per-run artifact paths ("G0 ILUT(10,1e-04) p=64" ->
/// "g0_ilut_10_1e_04__p_64").
inline std::string artifact_slug(const std::string& label) {
  std::string out;
  for (const char c : label) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '_';
  }
  return out;
}

/// Create the directory an output flag names (with its parents), so a run
/// that has already done its work can write there; exit with a message
/// naming the flag when that is impossible.
inline void make_output_dir(const std::string& dir, const char* flag) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "--" << flag << "=" << dir << ": cannot create the directory: "
              << ec.message() << "\n";
    std::exit(2);
  }
}

/// Shared `--trace` / `--trace-dir <dir>` handling for the table harnesses.
/// With `--trace`, each harness runs one extra *traced* pass over a
/// representative configuration and prints the per-phase modeled-time
/// breakdown (rollup only — no span storage), then the host wall seconds of
/// each phase beside its modeled seconds. With `--trace-dir`, the
/// traced pass additionally records spans and writes a Chrome trace_event
/// JSON per run into the directory (created if missing). The measurement
/// sweeps themselves always run untraced, so reported totals are identical
/// with and without these flags.
class TraceReporter {
 public:
  TraceReporter(const Cli& cli, std::string prefix)
      : prefix_(std::move(prefix)), dir_(cli.get_string("trace-dir", "")) {
    enabled_ = cli.get_bool("trace", false) || !dir_.empty();
    make_output_dir(dir_, "trace-dir");
  }

  bool enabled() const { return enabled_; }

  /// Start tracing `machine` (rollups always; spans only when exporting).
  void attach(sim::Machine& machine) {
    trace_ = std::make_unique<sim::Trace>(
        sim::TraceOptions{.record_spans = !dir_.empty()});
    machine.attach_trace(trace_.get());
  }

  /// Print the phase table, check it sums to the machine's modeled time,
  /// optionally export the Chrome JSON, then detach and drop the trace.
  void report(sim::Machine& machine, const std::string& label) {
    machine.attach_trace(nullptr);
    if (trace_ == nullptr) return;
    std::cout << "\nPer-phase breakdown — " << label << ":\n";
    trace_->write_phase_table(std::cout);
    const double attributed = trace_->attributed_time();
    const double modeled = machine.modeled_time();
    const double rel =
        modeled > 0.0 ? std::abs(attributed - modeled) / modeled : 0.0;
    std::cout << "phase sum " << format_sci(attributed, 6) << " s vs modeled "
              << format_sci(modeled, 6) << " s — "
              << (rel <= 0.01 ? "OK" : "MISMATCH") << " (rel err "
              << format_sci(rel, 2) << ")\n";
    std::cout << "\nPer-phase host wall time vs modeled — " << label << ":\n";
    trace_->write_wall_table(std::cout);
    if (!dir_.empty()) {
      const std::string path =
          dir_ + "/" + prefix_ + "_" + artifact_slug(label) + ".trace.json";
      trace_->write_chrome_trace_file(path);
      std::cout << "chrome trace: " << path << "\n";
    }
    trace_.reset();
  }

 private:
  std::string prefix_;
  std::string dir_;
  bool enabled_ = false;
  std::unique_ptr<sim::Trace> trace_;
};

/// Shared `--report` / `--report-dir <dir>` handling: the metrics
/// counterpart of TraceReporter. With `--report`, the harness's observed
/// rerun collects sim::Metrics and prints the critical-path/straggler
/// breakdown; with `--report-dir`, it additionally writes the versioned
/// `ptilu-report-v2` JSON (validated by scripts/check_report.py) into the
/// directory (created if missing). Like tracing, only the observed rerun is
/// instrumented — the measurement sweeps are unaffected.
class ReportWriter {
 public:
  ReportWriter(const Cli& cli, std::string prefix)
      : prefix_(std::move(prefix)), dir_(cli.get_string("report-dir", "")) {
    enabled_ = cli.get_bool("report", false) || !dir_.empty();
    make_output_dir(dir_, "report-dir");
  }

  bool enabled() const { return enabled_; }

  /// Print the straggler table and, with --report-dir, write the JSON
  /// report. `run_info` pairs are (key, raw JSON value) embedded verbatim
  /// under the report's "run" object; a "label" entry is prepended.
  void report(sim::Machine& machine, const std::string& label,
              std::vector<std::pair<std::string, std::string>> run_info = {}) {
    sim::Metrics* const metrics = machine.metrics();
    if (!enabled_ || metrics == nullptr) return;
    std::cout << "\nCritical-path breakdown — " << label << ":\n";
    metrics->write_straggler_table(std::cout, machine);
    if (!dir_.empty()) {
      run_info.insert(run_info.begin(), {"label", "\"" + label + "\""});
      const std::string path =
          dir_ + "/" + prefix_ + "_" + artifact_slug(label) + ".report.json";
      metrics->write_report_file(path, machine, run_info);
      std::cout << "run report: " << path << "\n";
    }
  }

 private:
  std::string prefix_;
  std::string dir_;
  bool enabled_ = false;
};

/// The harnesses' combined observability flag set: --trace/--trace-dir
/// (per-phase breakdown + Chrome trace) and --report/--report-dir
/// (critical-path metrics + machine-readable run report). When any flag is
/// present the harness repeats one representative configuration on a
/// machine built from machine_options() with attach() applied, then calls
/// report(); the measurement sweeps themselves stay uninstrumented.
class Observability {
 public:
  Observability(const Cli& cli, std::string prefix)
      : tracer_(cli, prefix), reporter_(cli, std::move(prefix)) {}

  bool enabled() const { return tracer_.enabled() || reporter_.enabled(); }

  /// Options for the observed rerun's machine: `base` plus metrics
  /// collection when --report/--report-dir asked for it.
  sim::Machine::Options machine_options(sim::Machine::Options base = {}) const {
    if (reporter_.enabled()) base.metrics = true;
    return base;
  }

  void attach(sim::Machine& machine) {
    if (tracer_.enabled()) tracer_.attach(machine);
  }

  void report(sim::Machine& machine, const std::string& label,
              std::vector<std::pair<std::string, std::string>> run_info = {}) {
    if (tracer_.enabled()) tracer_.report(machine, label);
    reporter_.report(machine, label, std::move(run_info));
  }

 private:
  TraceReporter tracer_;
  ReportWriter reporter_;
};

}  // namespace ptilu::bench
