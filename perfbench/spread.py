#!/usr/bin/env python3
"""Run workloads over several seeds and report how steady each
end-to-end metric is.

    python3 perfbench/spread.py --workloads g0_dist_solve,serve_mixed --seeds 1-10
    python3 perfbench/spread.py --workloads serve_mixed --seeds 1-5 --against first.json

For every workload and end-to-end metric it prints the median over the
seeds and the spread (first to third quartile, as a share of the median)
beside the metric's bound from BENCHMARK.json. With --against it also
compares each median with the one in an earlier --out file. Every run
must be correct; an incorrect or failed run ends the script with code 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    line = json.loads(lines[-1])
    if not line["correct"]:
        raise SystemExit(f"{workload} seed {seed}: not correct\n{done.stdout}")
    return {name: m["value"] for name, m in line["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write the values measured here to this JSON file")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    values = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        values[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            v = values[workload][m["name"]]
            med = stats.median(v)
            line = f"  {workload} {m['name']}: median {med:.5g}"
            if len(v) >= 2:
                spread = stats.quartile_spread(v)
                line += f" spread {spread:.3f} (bound {m['bound']}, a third {m['bound'] / 3:.3f})"
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                change = med / stats.median(before) - 1
                if m["better"] == "higher":
                    change = -change
                line += f" worse by {change:+.3f} than --against"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main()
