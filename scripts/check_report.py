#!/usr/bin/env python3
"""Validate ptilu-report-v2 run reports (sim::Metrics::write_report output).

Checks (stdlib only, no third-party dependencies):

Structural:
  * "schema" is "ptilu-report-v2", "ranks" a positive int,
    "run" an object;
  * every phase has a unique name and per-rank arrays of exactly `ranks`
    entries (busy_s, idle_s, critical_s, critical_steps); scalar
    collective_messages/collective_bytes (the rank-uniform per-rank
    value); comm cells carry in-range from/to ranks and non-negative
    integer messages/bytes; the comm summary ("comm_pairs",
    "comm_messages", "comm_bytes", "comm_max_fanout") matches the cell
    list exactly;
  * every counter's "total" equals the exact sum of its "per_rank" slots.

Bit-exact identities (no tolerance — the collector guarantees them, see
include/ptilu/sim/metrics.hpp):
  * idle_s[r] == elapsed_s - busy_s[r] for every phase and rank, and
    0 <= busy_s[r] <= elapsed_s: per rank, busy + idle == elapsed with no
    float drift, so per phase the busy/idle split sums to ranks * elapsed;
  * "modeled_s" equals the in-order fold of the phases' elapsed_s (the
    serialized order is the attribution order, so the fold reproduces the
    machine's modeled time bit-for-bit);
  * critical_rank is the first rank attaining max(critical_s), -1 when the
    phase never won a barrier;
  * sum over phases of comm-matrix messages (plus collective_messages)
    from rank r equals rank_counters.messages_sent[r], and likewise for
    bytes — every counted message is attributed to exactly one phase;
  * sum of critical_steps over ranks equals the phase's supersteps, and
    the phases' supersteps sum to the top-level "supersteps".

Tolerant cross-checks (1e-9 relative — different summation orders):
  * per phase, sum over ranks of critical_s matches elapsed_s;
  * "imbalance" matches max(busy)/mean(busy) recomputed from busy_s.

Exit status 0 when every file passes, 1 otherwise.

Usage:
  check_report.py REPORT.json [MORE.json ...]
"""

import json
import math
import sys

SCHEMA = "ptilu-report-v2"
PER_RANK_REAL = ("busy_s", "idle_s", "critical_s")
PER_RANK_INT = ("critical_steps",)
REL_EPS = 1e-9


def close(a, b):
    return abs(a - b) <= REL_EPS * max(1.0, abs(a), abs(b))


def validate(doc, path, errors):
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level is not a JSON object")
        return
    schema = doc.get("schema")
    if schema != SCHEMA:
        errors.append(f"{path}: schema is {schema!r}, want {SCHEMA!r}")
        return
    ranks = doc.get("ranks")
    if not isinstance(ranks, int) or ranks < 1:
        errors.append(f"{path}: 'ranks' must be a positive int")
        return
    if not isinstance(doc.get("run"), dict):
        errors.append(f"{path}: 'run' must be an object")
    if not isinstance(doc.get("supersteps"), int) or doc["supersteps"] < 0:
        errors.append(f"{path}: 'supersteps' must be a non-negative int")

    phases = doc.get("phases")
    if not isinstance(phases, list):
        errors.append(f"{path}: 'phases' must be a list")
        return

    seen_names = set()
    fold = 0.0  # in-order fold reproducing modeled_s bit-for-bit
    total_supersteps = 0
    sent_messages = [0] * ranks
    sent_bytes = [0] * ranks
    for i, phase in enumerate(phases):
        where = f"{path}: phases[{i}]"
        if not isinstance(phase, dict):
            errors.append(f"{where}: not an object")
            continue
        name = phase.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing name")
        elif name in seen_names:
            errors.append(f"{where}: duplicate phase {name!r}")
        else:
            seen_names.add(name)
            where = f"{path}: phase {name!r}"

        elapsed = phase.get("elapsed_s")
        if not isinstance(elapsed, (int, float)) or elapsed < 0:
            errors.append(f"{where}: 'elapsed_s' must be a non-negative number")
            continue
        fold += elapsed
        if not isinstance(phase.get("supersteps"), int) or phase["supersteps"] < 0:
            errors.append(f"{where}: 'supersteps' must be a non-negative int")
            continue
        total_supersteps += phase["supersteps"]

        shaped = True
        for key in PER_RANK_REAL + PER_RANK_INT:
            values = phase.get(key)
            if not isinstance(values, list) or len(values) != ranks:
                errors.append(f"{where}: '{key}' must have {ranks} entries")
                shaped = False
            elif key in PER_RANK_INT and not all(
                    isinstance(v, int) and v >= 0 for v in values):
                errors.append(f"{where}: '{key}' entries must be non-negative ints")
                shaped = False
        # Collective-tree accounting: Machine::collective charges every rank
        # identically, so one scalar holds the per-rank value.
        for key in ("collective_messages", "collective_bytes"):
            value = phase.get(key)
            if not isinstance(value, int) or value < 0:
                errors.append(f"{where}: '{key}' must be a non-negative int")
                shaped = False
        if not shaped:
            continue

        # busy + idle == elapsed, exactly, per rank.
        for r in range(ranks):
            busy = phase["busy_s"][r]
            idle = phase["idle_s"][r]
            if not 0.0 <= busy <= elapsed:
                errors.append(
                    f"{where}: busy_s[{r}] = {busy!r} outside [0, {elapsed!r}]")
            if idle != elapsed - busy:
                errors.append(
                    f"{where}: idle_s[{r}] = {idle!r} != elapsed - busy = "
                    f"{elapsed - busy!r} (identity must be bit-exact)")

        # The straggler attribution partitions the phase's barriers/time.
        if sum(phase["critical_steps"]) != phase["supersteps"]:
            errors.append(
                f"{where}: critical_steps sum to {sum(phase['critical_steps'])}, "
                f"want supersteps = {phase['supersteps']}")
        critical_sum = sum(phase["critical_s"])
        if not close(critical_sum, elapsed):
            errors.append(
                f"{where}: critical_s sums to {critical_sum!r}, want elapsed_s "
                f"= {elapsed!r}")
        peak = max(phase["critical_s"])
        want_rank = phase["critical_s"].index(peak) if peak > 0.0 else -1
        if phase.get("critical_rank") != want_rank:
            errors.append(
                f"{where}: critical_rank is {phase.get('critical_rank')!r}, "
                f"want first argmax {want_rank}")

        # Load imbalance: max busy over mean busy.
        mean_busy = sum(phase["busy_s"]) / ranks
        want_imbalance = max(phase["busy_s"]) / mean_busy if mean_busy > 0 else 0.0
        if not close(phase.get("imbalance", math.nan), want_imbalance):
            errors.append(
                f"{where}: imbalance is {phase.get('imbalance')!r}, recomputed "
                f"{want_imbalance!r}")

        comm = phase.get("comm")
        if not isinstance(comm, list):
            errors.append(f"{where}: 'comm' must be a list")
            continue
        fanout = [0] * ranks
        cell_messages = 0
        cell_bytes = 0
        for j, cell in enumerate(comm):
            cw = f"{where}: comm[{j}]"
            if not isinstance(cell, dict):
                errors.append(f"{cw}: not an object")
                continue
            src, dst = cell.get("from"), cell.get("to")
            if not all(isinstance(v, int) and 0 <= v < ranks for v in (src, dst)):
                errors.append(f"{cw}: from/to must be ranks in [0, {ranks})")
                continue
            msgs, nbytes = cell.get("messages"), cell.get("bytes")
            if not all(isinstance(v, int) and v >= 0 for v in (msgs, nbytes)):
                errors.append(f"{cw}: messages/bytes must be non-negative ints")
                continue
            if msgs == 0 and nbytes == 0:
                errors.append(f"{cw}: empty cell should not be serialized")
            fanout[src] += 1
            cell_messages += msgs
            cell_bytes += nbytes
            sent_messages[src] += msgs
            sent_bytes[src] += nbytes
        for r in range(ranks):
            sent_messages[r] += phase["collective_messages"]
            sent_bytes[r] += phase["collective_bytes"]
        # Sparse-comm summary: recomputable exactly from the cells.
        want_summary = {
            "comm_pairs": len(comm),
            "comm_messages": cell_messages,
            "comm_bytes": cell_bytes,
            "comm_max_fanout": max(fanout) if fanout else 0,
        }
        for key, want in want_summary.items():
            if phase.get(key) != want:
                errors.append(f"{where}: '{key}' is {phase.get(key)!r}, "
                              f"recomputed {want} from the comm cells")

    if total_supersteps != doc.get("supersteps"):
        errors.append(
            f"{path}: top-level supersteps is {doc.get('supersteps')!r}, but the "
            f"phases account for {total_supersteps}")
    if fold != doc.get("modeled_s"):
        errors.append(
            f"{path}: modeled_s is {doc.get('modeled_s')!r}, but the in-order "
            f"fold of phase elapsed_s gives {fold!r} (must be bit-exact)")

    counters = doc.get("counters")
    if not isinstance(counters, list):
        errors.append(f"{path}: 'counters' must be a list")
    else:
        seen_counters = set()
        for i, counter in enumerate(counters):
            where = f"{path}: counters[{i}]"
            if not isinstance(counter, dict) or not isinstance(counter.get("name"), str):
                errors.append(f"{where}: not an object with a name")
                continue
            name = counter["name"]
            if name in seen_counters:
                errors.append(f"{where}: duplicate counter {name!r}")
            seen_counters.add(name)
            per_rank = counter.get("per_rank")
            if (not isinstance(per_rank, list) or len(per_rank) != ranks
                    or not all(isinstance(v, int) and v >= 0 for v in per_rank)):
                errors.append(f"{where}: 'per_rank' must be {ranks} non-negative ints")
                continue
            if counter.get("total") != sum(per_rank):
                errors.append(
                    f"{where}: total {counter.get('total')!r} != sum(per_rank) "
                    f"= {sum(per_rank)}")

    rank_counters = doc.get("rank_counters")
    if not isinstance(rank_counters, dict):
        errors.append(f"{path}: 'rank_counters' must be an object")
        return
    for key in ("flops", "mem_bytes", "messages_sent", "bytes_sent"):
        values = rank_counters.get(key)
        if (not isinstance(values, list) or len(values) != ranks
                or not all(isinstance(v, int) and v >= 0 for v in values)):
            errors.append(f"{path}: rank_counters.{key} must be {ranks} "
                          f"non-negative ints")
            return
    # Every counted message/byte is attributed to exactly one phase's comm
    # matrix or collective tally — integer-exact reconciliation.
    if sent_messages != rank_counters["messages_sent"]:
        errors.append(
            f"{path}: comm-matrix message totals {sent_messages} do not "
            f"reconcile with rank_counters.messages_sent "
            f"{rank_counters['messages_sent']}")
    if sent_bytes != rank_counters["bytes_sent"]:
        errors.append(
            f"{path}: comm-matrix byte totals {sent_bytes} do not reconcile "
            f"with rank_counters.bytes_sent {rank_counters['bytes_sent']}")


def main() -> int:
    paths = sys.argv[1:]
    if not paths:
        print(__doc__)
        return 1
    errors = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"{path}: cannot parse: {exc}")
            continue
        before = len(errors)
        validate(doc, path, errors)
        if len(errors) == before:
            print(f"OK: {path}: {doc['ranks']} ranks, {doc['supersteps']} "
                  f"supersteps, {len(doc['phases'])} phases, modeled "
                  f"{doc['modeled_s']:.6g} s")
    if errors:
        for error in errors:
            print(f"FAIL: {error}")
        print(f"{len(errors)} violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
