#!/usr/bin/env python3
"""Fixture-driven tests for check_bench_json.py's serve-schema support.

Runs the validator over every fixture under tests/serve_fixtures/: files
named ok_*.json must validate cleanly, files named bad_*.json must be
rejected (each one violates exactly one documented identity, so a pass
here means the corresponding check actually fires). Fixtures under the
report/ subdirectory are ptilu-serve-report-v1 documents and are routed
through check_serve_report.py instead (same ok_/bad_ convention). On top
of the per-file sweep it exercises the --compare dispatch: serve-vs-serve
with wall data succeeds, --exact files are refused (no wall data), a
payload-checksum mismatch is refused (different batch plans), and a
serve file compared against a bench_scale file is refused as cross-family.

Invoked as `test_check_bench_serve.py --cross-backend A.json B.json` it
instead checks backend-identical execution: two --exact serve files must
agree on every field except "backend" and "threads" (which record which
interpreter ran). JSON floats round-trip %.17g exactly, so dict equality
is a bit-exactness test on the modeled results and checksums.

Stdlib only, exit 0 on success, 1 with a FAIL line per broken case.
"""
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO, "scripts", "check_bench_json.py")
REPORT_CHECKER = os.path.join(REPO, "scripts", "check_serve_report.py")
FIXTURES = os.path.join(REPO, "tests", "serve_fixtures")
REPORT_FIXTURES = os.path.join(FIXTURES, "report")


def run_checker(*argv):
    return subprocess.run([sys.executable, CHECKER, *argv],
                          capture_output=True, text=True)


def run_report_checker(*argv):
    return subprocess.run([sys.executable, REPORT_CHECKER, *argv],
                          capture_output=True, text=True)


def cross_backend(path_a, path_b) -> int:
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("exact") is not True:
            print(f"FAIL: {path}: cross-backend check needs --exact files "
                  f"(wall timings legitimately differ)")
            return 1
        doc.pop("backend", None)
        doc.pop("threads", None)
        docs.append(doc)
    if docs[0] != docs[1]:
        diffs = [key for key in docs[0] if docs[0][key] != docs[1].get(key)]
        print(f"FAIL: {path_a} and {path_b} disagree outside backend/threads "
              f"(differing keys: {diffs}) — the backends are not bit-identical")
        return 1
    print(f"OK: {path_a} and {path_b} agree on every field except backend/threads")
    return 0


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--cross-backend":
        return cross_backend(sys.argv[2], sys.argv[3])
    if len(sys.argv) != 1:
        print(f"usage: {sys.argv[0]} [--cross-backend A.json B.json]")
        return 2

    failures = []

    fixtures = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))
    if not any(f.startswith("ok_") for f in fixtures):
        failures.append(f"no ok_*.json fixtures found in {FIXTURES}")
    if not any(f.startswith("bad_") for f in fixtures):
        failures.append(f"no bad_*.json fixtures found in {FIXTURES}")

    for name in fixtures:
        path = os.path.join(FIXTURES, name)
        proc = run_checker(path)
        if name.startswith("ok_") and proc.returncode != 0:
            failures.append(f"{name}: expected to validate, got:\n{proc.stdout}")
        elif name.startswith("bad_") and proc.returncode == 0:
            failures.append(f"{name}: expected rejection, but it validated")

    # Serve-report fixtures: same ok_/bad_ convention, different checker.
    report_fixtures = sorted(f for f in os.listdir(REPORT_FIXTURES)
                             if f.endswith(".json"))
    if not any(f.startswith("ok_") for f in report_fixtures):
        failures.append(f"no ok_*.json fixtures found in {REPORT_FIXTURES}")
    if not any(f.startswith("bad_") for f in report_fixtures):
        failures.append(f"no bad_*.json fixtures found in {REPORT_FIXTURES}")
    for name in report_fixtures:
        path = os.path.join(REPORT_FIXTURES, name)
        proc = run_report_checker(path)
        if name.startswith("ok_") and proc.returncode != 0:
            failures.append(f"report/{name}: expected to validate, got:\n{proc.stdout}")
        elif name.startswith("bad_") and proc.returncode == 0:
            failures.append(f"report/{name}: expected rejection, but it validated")

    ok_wall = os.path.join(FIXTURES, "ok_wall.json")
    ok_exact = os.path.join(FIXTURES, "ok_exact.json")

    proc = run_checker("--compare", ok_wall, ok_wall)
    if proc.returncode != 0:
        failures.append(f"serve-vs-serve self-compare should succeed:\n{proc.stdout}")
    elif "1.00x" not in proc.stdout:
        failures.append(f"self-compare should report 1.00x ratios:\n{proc.stdout}")

    proc = run_checker("--compare", ok_exact, ok_exact)
    if proc.returncode == 0 or "no wall data" not in proc.stdout:
        failures.append(f"--exact compare should be refused:\n{proc.stdout}")

    with tempfile.TemporaryDirectory() as tmp:
        # A payload_checksum mismatch means the two runs planned different
        # batches, so their throughput is not comparable.
        with open(ok_wall, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["payload_checksum"] = "feedfacefeedface"
        mutated = os.path.join(tmp, "mutated_checksum.json")
        with open(mutated, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        proc = run_checker("--compare", ok_wall, mutated)
        if proc.returncode == 0 or "payload_checksum mismatch" not in proc.stdout:
            failures.append(
                f"checksum-mismatch compare should be refused:\n{proc.stdout}")

        # Cross-family refusal: a minimal valid bench_scale doc against a
        # serve doc must be rejected regardless of argument order.
        scale = os.path.join(tmp, "scale.json")
        with open(scale, "w", encoding="utf-8") as handle:
            json.dump({
                "schema": "ptilu-bench-scale-v1",
                "workload": "g0", "backend": "sequential", "smoke": True,
                "sweeps": [{"mode": "weak", "points": [{
                    "p": 4, "n": 16, "nnz": 64, "rows_max": 4, "supersteps": 1,
                    "messages": 0, "bytes": 0, "max_fanout": 0,
                    "modeled_factor_s": 0.25, "modeled_trisolve_s": 0.25,
                    "modeled_gmres_s": 0.5, "modeled_total_s": 1.0,
                    "efficiency": 1.0}]}],
            }, handle)
        proc = run_checker(scale)
        if proc.returncode != 0:
            failures.append(f"the minimal scale doc should validate:\n{proc.stdout}")
        for pair in ((scale, ok_wall), (ok_wall, scale)):
            proc = run_checker("--compare", *pair)
            if proc.returncode == 0 or "cross-family" not in proc.stdout:
                failures.append(
                    f"cross-family compare {pair} should be refused:\n{proc.stdout}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"{len(failures)} failure(s)")
        return 1
    print(f"OK: {len(fixtures)} bench fixtures, {len(report_fixtures)} report "
          f"fixtures, compare dispatch verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
