#!/usr/bin/env python3
"""Validate — and optionally compare — bench JSON files.

Two schema families are understood, dispatched on the file's "schema":

  * ptilu-bench-scale-v1 — bench_scale output (modeled strong/weak scaling
    sweeps; see docs/SCALING.md);
  * ptilu-bench-serve-v1 — bench_serve output (the preconditioner-serving
    harness: batched-apply queueing benches, concurrent GMRES streams, and
    batched distributed trisolves; see docs/SERVING.md).

bench_scale validation: top level carries "workload", the execution
backend, and a "sweeps" list; every sweep has a mode in {strong, weak} and
a non-empty "points" list with strictly ascending positive rank counts;
every point's modeled phase seconds are positive and sum to
"modeled_total_s" exactly (the harness reads phase boundaries off one
modeled clock); "speedup" (strong) and "efficiency" (both modes) are
recomputed from the sweep's first point and must match. Comparison mode
refuses scale files — modeled scale numbers are deterministic, so two runs
of the same binary are byte-identical and a speedup ratio is meaningless.

bench_serve validation: top level carries the execution backend, boolean
"smoke"/"quick"/"exact", the workload with positive n/nnz, positive
"requests", the traffic "seed" and "mean_interarrival_s", a "cache"
object whose hit/miss/eviction counters are non-negative, and a 16-hex
"payload_checksum" over the deterministic fields (identical across
backends by contract). Every apply bench must satisfy the queueing
identities: ceil(requests / batch_max) <= batches <= requests, p50 <= p99
(modeled always, wall when present), and solves-per-second must equal
requests / total seconds as recorded. Files written with --exact omit
every wall_* field, so two such files are byte-comparable across runs and
backends. serve-vs-serve comparison pairs apply benches by name, requires
matching payload checksums (same deterministic plan, or the wall ratio is
meaningless), and reports the wall-throughput ratio; --exact files have no
wall data and are refused. Comparing runs from different execution
backends is refused too — the ratio would measure the backend, not the
change under test — unless --allow-backend-mismatch says that backend
speedup is the measurement.

Cross-family --compare (scale vs serve, in either order) is always
refused: the numbers live on different axes.

Stdlib only, no third-party dependencies. Exit status 0 on success, 1 on
any violation.

Usage:
  check_bench_json.py BENCH.json
  check_bench_json.py --compare OLD.json NEW.json [--allow-backend-mismatch]
"""

import argparse
import json
import sys

SCALE_SCHEMA = "ptilu-bench-scale-v1"
SERVE_SCHEMA = "ptilu-bench-serve-v1"
SCHEMAS = (SCALE_SCHEMA, SERVE_SCHEMA)
BACKENDS = {"sequential", "threads"}


def load(path, errors):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{path}: cannot parse: {exc}")
        return None


def validate_scale(doc, path, errors):
    """Append ptilu-bench-scale-v1 violations for doc to errors."""
    if not isinstance(doc.get("workload"), str) or not doc.get("workload"):
        errors.append(f"{path}: missing 'workload'")
    if doc.get("backend") not in BACKENDS:
        errors.append(
            f"{path}: 'backend' is {doc.get('backend')!r}, want one of {sorted(BACKENDS)}")
    if not isinstance(doc.get("smoke"), bool):
        errors.append(f"{path}: missing boolean 'smoke'")
    sweeps = doc.get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        errors.append(f"{path}: 'sweeps' must be a non-empty list")
        return
    for i, sweep in enumerate(sweeps):
        where = f"{path}: sweeps[{i}]"
        if not isinstance(sweep, dict):
            errors.append(f"{where}: not an object")
            continue
        mode = sweep.get("mode")
        if mode not in ("strong", "weak"):
            errors.append(f"{where}: mode {mode!r} not in ['strong', 'weak']")
            continue
        points = sweep.get("points")
        if not isinstance(points, list) or not points:
            errors.append(f"{where}: 'points' must be a non-empty list")
            continue
        last_p = 0
        for j, pt in enumerate(points):
            pwhere = f"{where}: points[{j}]"
            if not isinstance(pt, dict):
                errors.append(f"{pwhere}: not an object")
                continue
            for key in ("p", "n", "nnz", "rows_max", "supersteps"):
                if not isinstance(pt.get(key), int) or pt.get(key) <= 0:
                    errors.append(f"{pwhere}: '{key}' must be a positive int")
            for key in ("messages", "bytes", "max_fanout"):
                if not isinstance(pt.get(key), int) or pt.get(key) < 0:
                    errors.append(f"{pwhere}: '{key}' must be a non-negative int")
            phase_keys = ("modeled_factor_s", "modeled_trisolve_s", "modeled_gmres_s")
            for key in phase_keys + ("modeled_total_s",):
                if not isinstance(pt.get(key), (int, float)) or pt.get(key) <= 0:
                    errors.append(f"{pwhere}: '{key}' must be a positive number")
                    break
            else:
                total = pt["modeled_total_s"]
                phase_sum = sum(pt[key] for key in phase_keys)
                if abs(phase_sum - total) > 1e-12 * max(1.0, abs(total)):
                    errors.append(
                        f"{pwhere}: phase seconds sum to {phase_sum!r}, "
                        f"'modeled_total_s' is {total!r}")
            if isinstance(pt.get("p"), int):
                if pt["p"] <= last_p:
                    errors.append(f"{pwhere}: 'p' must be strictly ascending per sweep")
                last_p = pt["p"]
        # Speedup/efficiency are relative to the sweep's first point and
        # must be reproducible from the recorded totals.
        first = points[0] if isinstance(points[0], dict) else {}
        t0, p0 = first.get("modeled_total_s"), first.get("p")
        if not isinstance(t0, (int, float)) or not isinstance(p0, int) or t0 <= 0:
            continue
        for j, pt in enumerate(points):
            pwhere = f"{where}: points[{j}]"
            if not isinstance(pt, dict) or not isinstance(pt.get("modeled_total_s"),
                                                          (int, float)):
                continue
            ratio = t0 / pt["modeled_total_s"]
            if mode == "strong":
                for key, want in (("speedup", ratio), ("efficiency", ratio * p0 / pt["p"])):
                    got = pt.get(key)
                    if not isinstance(got, (int, float)):
                        errors.append(f"{pwhere}: missing numeric '{key}'")
                    elif abs(got - want) > 1e-9 * max(1.0, abs(want)):
                        errors.append(f"{pwhere}: '{key}' is {got!r}, recomputed {want!r}")
            else:
                got = pt.get("efficiency")
                if not isinstance(got, (int, float)):
                    errors.append(f"{pwhere}: missing numeric 'efficiency'")
                elif abs(got - ratio) > 1e-9 * max(1.0, abs(ratio)):
                    errors.append(f"{pwhere}: 'efficiency' is {got!r}, recomputed {ratio!r}")


def _is_hex16(value):
    return (isinstance(value, str) and len(value) == 16
            and all(c in "0123456789abcdef" for c in value))


def _check_rate(where, doc_part, count, total_key, rate_key, errors):
    """solves-per-second fields must be recomputable from count / total."""
    total = doc_part.get(total_key)
    rate = doc_part.get(rate_key)
    if not isinstance(total, (int, float)) or total <= 0:
        errors.append(f"{where}: '{total_key}' must be a positive number")
        return
    if not isinstance(rate, (int, float)):
        errors.append(f"{where}: missing numeric '{rate_key}'")
        return
    # Wall fields are printed with %.6f, so both the total and the rate carry
    # up to 5e-7 of absolute rounding; bound the recomputed rate accordingly.
    half_ulp = 5e-7
    lo = count / (total + half_ulp) - half_ulp
    hi = count / max(total - half_ulp, 1e-12) + half_ulp
    if not lo <= rate <= hi:
        errors.append(
            f"{where}: '{rate_key}' is {rate!r}, but {count} / {total!r} "
            f"seconds allows only [{lo:.6g}, {hi:.6g}]")


def _check_quantiles(where, doc_part, p50_key, p99_key, errors):
    p50, p99 = doc_part.get(p50_key), doc_part.get(p99_key)
    for key, value in ((p50_key, p50), (p99_key, p99)):
        if not isinstance(value, (int, float)) or value < 0:
            errors.append(f"{where}: '{key}' must be a non-negative number")
            return
    if p50 > p99:
        errors.append(f"{where}: '{p50_key}' ({p50!r}) exceeds '{p99_key}' ({p99!r})")


def validate_serve(doc, path, errors):
    """Append ptilu-bench-serve-v1 violations for doc to errors."""
    if doc.get("backend") not in BACKENDS:
        errors.append(
            f"{path}: 'backend' is {doc.get('backend')!r}, want one of {sorted(BACKENDS)}")
    if not isinstance(doc.get("threads"), int) or doc.get("threads") < 0:
        errors.append(f"{path}: 'threads' must be a non-negative int")
    for key in ("smoke", "quick", "exact"):
        if not isinstance(doc.get(key), bool):
            errors.append(f"{path}: missing boolean '{key}'")
    if not isinstance(doc.get("workload"), str) or not doc.get("workload"):
        errors.append(f"{path}: missing 'workload'")
    for key in ("n", "nnz", "requests"):
        if not isinstance(doc.get(key), int) or doc.get(key) <= 0:
            errors.append(f"{path}: '{key}' must be a positive int")
    if not isinstance(doc.get("seed"), int) or doc.get("seed") < 0:
        errors.append(f"{path}: 'seed' must be a non-negative int")
    mean = doc.get("mean_interarrival_s")
    if not isinstance(mean, (int, float)) or mean <= 0:
        errors.append(f"{path}: 'mean_interarrival_s' must be a positive number")
    cache = doc.get("cache")
    if not isinstance(cache, dict):
        errors.append(f"{path}: missing 'cache' object")
    else:
        if not isinstance(cache.get("capacity"), int) or cache.get("capacity") < 1:
            errors.append(f"{path}: cache 'capacity' must be a positive int")
        for key in ("hits", "misses", "evictions"):
            if not isinstance(cache.get(key), int) or cache.get(key) < 0:
                errors.append(f"{path}: cache '{key}' must be a non-negative int")
    if not _is_hex16(doc.get("payload_checksum")):
        errors.append(
            f"{path}: 'payload_checksum' must be 16 lowercase hex digits, "
            f"got {doc.get('payload_checksum')!r}")
    exact = doc.get("exact") is True
    requests = doc.get("requests") if isinstance(doc.get("requests"), int) else None

    benches = doc.get("apply_benches")
    if not isinstance(benches, list) or not benches:
        errors.append(f"{path}: 'apply_benches' must be a non-empty list")
        benches = []
    seen = set()
    for i, bench in enumerate(benches):
        where = f"{path}: apply_benches[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        name = bench.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing name")
        elif name in seen:
            errors.append(f"{where}: duplicate name {name!r}")
        else:
            seen.add(name)
        batch_max = bench.get("batch_max")
        if not isinstance(batch_max, int) or batch_max < 1:
            errors.append(f"{where}: 'batch_max' must be a positive int")
            batch_max = None
        batches = bench.get("batches")
        if not isinstance(batches, int) or batches < 1:
            errors.append(f"{where}: 'batches' must be a positive int")
        elif requests is not None and batch_max is not None:
            # A FIFO server at cap k needs at least ceil(requests/k) batches
            # and never more than one batch per request.
            least = -(-requests // batch_max)
            if not least <= batches <= requests:
                errors.append(
                    f"{where}: 'batches' is {batches}, queueing bounds say "
                    f"[{least}, {requests}]")
        if not isinstance(bench.get("checksum"), (int, float)):
            errors.append(f"{where}: missing numeric checksum")
        if requests is not None:
            _check_rate(where, bench, requests, "modeled_total_s",
                        "modeled_solves_per_s", errors)
        _check_quantiles(where, bench, "modeled_p50_s", "modeled_p99_s", errors)
        wall_keys = [k for k in bench if k.startswith("wall_")]
        if exact and wall_keys:
            errors.append(
                f"{where}: --exact files must omit wall fields, found {sorted(wall_keys)}")
        elif not exact and wall_keys:
            if requests is not None:
                _check_rate(where, bench, requests, "wall_total_s",
                            "wall_solves_per_s", errors)
            _check_quantiles(where, bench, "wall_p50_s", "wall_p99_s", errors)

    streams = doc.get("stream_benches")
    if not isinstance(streams, list) or not streams:
        errors.append(f"{path}: 'stream_benches' must be a non-empty list")
        streams = []
    for i, bench in enumerate(streams):
        where = f"{path}: stream_benches[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("streams", "solves"):
            if not isinstance(bench.get(key), int) or bench.get(key) < 1:
                errors.append(f"{where}: '{key}' must be a positive int")
        matvecs = bench.get("matvecs")
        if not isinstance(matvecs, int) or matvecs < 0:
            errors.append(f"{where}: 'matvecs' must be a non-negative int")
        elif isinstance(bench.get("solves"), int) and matvecs < bench["solves"]:
            errors.append(
                f"{where}: {matvecs} matvecs for {bench['solves']} solves — "
                f"every GMRES solve costs at least one matvec")
        if not isinstance(bench.get("checksum"), (int, float)):
            errors.append(f"{where}: missing numeric checksum")
        wall_keys = [k for k in bench if k.startswith("wall_")]
        if exact and wall_keys:
            errors.append(
                f"{where}: --exact files must omit wall fields, found {sorted(wall_keys)}")
        elif not exact and wall_keys and isinstance(bench.get("solves"), int):
            _check_rate(where, bench, bench["solves"], "wall_total_s",
                        "wall_solves_per_s", errors)

    dists = doc.get("dist_benches")
    if not isinstance(dists, list) or not dists:
        errors.append(f"{path}: 'dist_benches' must be a non-empty list")
        dists = []
    for i, bench in enumerate(dists):
        where = f"{path}: dist_benches[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("procs", "k"):
            if not isinstance(bench.get(key), int) or bench.get(key) < 1:
                errors.append(f"{where}: '{key}' must be a positive int")
        batched = bench.get("modeled_batched_s")
        single = bench.get("modeled_single_s")
        speedup = bench.get("modeled_speedup")
        ok = True
        for key, value in (("modeled_batched_s", batched), ("modeled_single_s", single)):
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"{where}: '{key}' must be a positive number")
                ok = False
        if ok:
            if not isinstance(speedup, (int, float)):
                errors.append(f"{where}: missing numeric 'modeled_speedup'")
            else:
                want = single / batched
                if abs(speedup - want) > 1e-9 * max(1.0, abs(want)):
                    errors.append(
                        f"{where}: 'modeled_speedup' is {speedup!r}, recomputed {want!r}")
        for key in ("batched_messages", "single_messages"):
            if not isinstance(bench.get(key), int) or bench.get(key) < 0:
                errors.append(f"{where}: '{key}' must be a non-negative int")
        if (isinstance(bench.get("batched_messages"), int)
                and isinstance(bench.get("single_messages"), int)
                and bench["batched_messages"] > bench["single_messages"]):
            errors.append(
                f"{where}: batched sweep sent more messages "
                f"({bench['batched_messages']}) than the single-RHS solves "
                f"({bench['single_messages']}) — batching must amortize, not add")
        if not isinstance(bench.get("checksum"), (int, float)):
            errors.append(f"{where}: missing numeric checksum")


def compare_serve(baseline, current, args, errors):
    """serve-vs-serve: wall throughput ratio over matching deterministic plans."""
    base_backend = baseline.get("backend", "sequential")
    cur_backend = current.get("backend", "sequential")
    if base_backend != cur_backend and not args.allow_backend_mismatch:
        errors.append(
            f"execution backend mismatch (baseline {base_backend!r}, current "
            f"{cur_backend!r}): the throughput ratio would measure the backend, "
            f"not the change under test — pass --allow-backend-mismatch if that "
            f"is intended")
        return
    if baseline.get("payload_checksum") != current.get("payload_checksum"):
        errors.append(
            f"payload_checksum mismatch (baseline "
            f"{baseline.get('payload_checksum')!r}, current "
            f"{current.get('payload_checksum')!r}): the runs planned different "
            f"batches, so their wall throughput is not comparable")
        return
    if baseline.get("exact") or current.get("exact"):
        errors.append("--exact serve files carry no wall data to compare")
        return
    base_by_name = {b["name"]: b for b in baseline["apply_benches"]}
    rows = []
    for bench in current["apply_benches"]:
        base = base_by_name.get(bench["name"])
        if base is None:
            print(f"note: bench {bench['name']!r} has no baseline entry, skipped")
            continue
        ratio = bench["wall_solves_per_s"] / base["wall_solves_per_s"]
        rows.append((bench["name"], base["wall_solves_per_s"],
                     bench["wall_solves_per_s"], ratio))
    if not rows:
        errors.append("no comparable apply benches between the two files")
        return
    print(f"{'bench':<20} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for name, base_rate, cur_rate, ratio in rows:
        print(f"{name:<20} {base_rate:>10.1f}/s {cur_rate:>10.1f}/s {ratio:>7.2f}x")


def validate(doc, path, errors):
    """Append schema violations for doc to errors."""
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level is not a JSON object")
    elif doc.get("schema") == SCALE_SCHEMA:
        validate_scale(doc, path, errors)
    elif doc.get("schema") == SERVE_SCHEMA:
        validate_serve(doc, path, errors)
    else:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, want one of {list(SCHEMAS)}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="one file to validate, or two with --compare")
    parser.add_argument("--compare", action="store_true",
                        help="treat files as BASELINE CURRENT and report throughput ratios")
    parser.add_argument("--allow-backend-mismatch", action="store_true",
                        help="permit --compare across different execution backends "
                             "(e.g. to measure the threaded backend's speedup)")
    args = parser.parse_args()

    if args.compare and len(args.files) != 2:
        parser.error("--compare needs exactly two files: BASELINE CURRENT")
    if not args.compare and len(args.files) != 1:
        parser.error("validation mode takes exactly one file")

    errors = []
    docs = [load(path, errors) for path in args.files]
    for doc, path in zip(docs, args.files):
        if doc is not None:
            validate(doc, path, errors)
    if not errors and args.compare:
        schemas = [doc["schema"] for doc in docs]
        if schemas[0] != schemas[1]:
            errors.append(
                f"--compare refuses cross-family files ({schemas[0]} vs "
                f"{schemas[1]}): their metrics measure different things")
        elif schemas[0] == SCALE_SCHEMA:
            errors.append(
                "--compare supports serve files only: bench_scale output is "
                "deterministic modeled time, so a run-over-run ratio is meaningless")
        else:
            compare_serve(docs[0], docs[1], args, errors)

    if errors:
        for error in errors:
            print(f"FAIL: {error}")
        print(f"{len(errors)} violation(s)")
        return 1
    if not args.compare:
        doc = docs[0]
        if doc.get("schema") == SCALE_SCHEMA:
            npoints = sum(len(s["points"]) for s in doc["sweeps"])
            print(f"OK: {args.files[0]}: {len(doc['sweeps'])} sweeps, "
                  f"{npoints} points, workload {doc['workload']}, "
                  f"backend {doc['backend']}")
        else:
            print(f"OK: {args.files[0]}: {len(doc['apply_benches'])} apply benches, "
                  f"{len(doc['stream_benches'])} stream benches, "
                  f"{len(doc['dist_benches'])} dist benches, "
                  f"{doc['requests']} requests, backend {doc['backend']}, "
                  f"exact={str(doc['exact']).lower()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
