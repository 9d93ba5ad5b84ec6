#!/usr/bin/env python3
"""Build and run one perfbench workload, check it, and print its metrics.

    python3 perfbench/run.py --workload g0_dist_solve --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench. The
metric names and units come from BENCHMARK.json: with --trace 0 the last
line of output holds every end-to-end metric, with --trace 1 every
per-layer metric. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    for needed in (ROOT / "src", ROOT / "include" / "ptilu"):
        if not needed.is_dir():
            raise SystemExit(f"perfbench: {needed} is missing; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def latencies(values):
    """Per-request latencies; a failed request (null) counts as infinite."""
    return [math.inf if v is None else v for v in values]


def derive(samples):
    """Serve latencies become percentiles; the solver workloads already
    sample their end-to-end numbers directly."""
    lat = samples.get("serve.latency_s")
    if lat:
        lat = latencies(lat)
        p50 = stats.tail_percentile(lat, 0.5)
        p99 = stats.tail_percentile(lat, 0.99)
        samples["solve_s"] = [p50]
        samples["serve_p50_s"] = [p50]
        if p99 is not None:
            samples["serve_p99_s"] = [p99]
        samples["time_to_solution_s"] = [stats.median(latencies(samples["serve.update_latency_s"]))]
        traced = samples.get("traced.serve.latency_s")
        if traced:
            samples["trace.overhead_s"] = [stats.tail_percentile(latencies(traced), 0.5) - p50]


def per_layer_value(name, samples, self_s):
    values = [v for v in samples.get(name, []) if v is not None]
    if values:
        return sum(values) / len(values) if name.endswith("_mean") else stats.median(values)
    span = name[:-2] if name.endswith("_s") else None
    if span in self_s:
        return stats.median(self_s[span])
    return 0.0  # the workload does not exercise this layer


def metrics_of(raw, spec, trace):
    """Returns (metrics, problems)."""
    samples = raw["samples"]
    derive(samples)
    problems = []
    out = {}
    if not trace:
        for m in spec["end_to_end"]:
            values = [v for v in samples.get(m["name"], []) if v is not None]
            value = stats.median(values) if values else None
            if value is None or not math.isfinite(value) or value <= 0:
                problems.append(f"end-to-end metric {m['name']} is missing or not positive")
                value = 0.0
            out[m["name"]] = {"value": value, "unit": m["unit"]}
        return out, problems

    spans = [tuple(s) for s in raw["spans"]]
    self_s = stats.self_times(spans)
    traced_wall = sum(samples.get("bench.traced_wall_s", []))
    coverage = stats.top_level_seconds(spans) / traced_wall if traced_wall > 0 else 0.0
    samples["trace.coverage"] = [coverage]
    samples["error_rate"] = [stats.error_rate(raw["attempted"], raw["failed"])]
    if coverage < 0.95:
        problems.append(f"top-level spans cover {coverage:.3f} of the traced wall time")
    for m in spec["per_layer"]:
        out[m["name"]] = {"value": per_layer_value(m["name"], samples, self_s), "unit": m["unit"]}
    return out, problems


def result(raw, metrics, problems):
    """The last output line: correct only when no operation failed."""
    return {
        "correct": raw["failed"] == 0 and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # benchmark binary instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {names}")

    binary = build()
    out_dir = BUILD / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-{args.seed}-{args.trace}.json"
    out_file.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--out={out_file}"]
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    except subprocess.CalledProcessError as e:
        raise SystemExit(f"perfbench: {args.workload} exited with {e.returncode}")

    raw = json.loads(out_file.read_text())
    metrics, problems = metrics_of(raw, spec, args.trace == 1)
    for p in problems:
        log("perfbench:", p)
    info = raw["info"]
    print("# " + " ".join(f"{k}={info[k]}" for k in sorted(info)))
    for c in raw["checks"]:
        print(f"# check {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}".rstrip())
    for name, m in metrics.items():
        print(f"{name} {m['value']:.9g} {m['unit']}")
    print(json.dumps(result(raw, metrics, problems)))


if __name__ == "__main__":
    main()
