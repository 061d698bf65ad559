"""One benchmark process, run in a fresh interpreter by run.py.

Usage: python3 perfbench/job.py SPEC.json

The process imports meshsim, loads the generated scenario and builds its
first ``Simulation``; that point ends set-up, and a set-up probe stops there.
Otherwise it runs the job through the public API (``harness.sweep`` or
``harness.single_run_result``), writes it with ``harness.export``, checks
and hashes the exports, and repeats the job on a freshly loaded ``Scenario``
until ``max_jobs`` jobs are done or the spec's ``deadline`` (a
``time.monotonic`` value, which is system-wide on Linux) is near. The first
job always completes. A later job stops before a replica that would end
after the deadline; the replicas it did finish are kept as timing samples
and checked against the first job's. Each replica's host time is taken
around ``Simulation.run`` alone. If the spec asks for it, the reference
loop of refclock.py runs interleaved from the start, and every
timing comes with the reference's (busy seconds, slices) over the same span.
The process prints one JSON line with its timings, peak memory, digests and
counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import resource
import sys
import time

from refclock import RefClock

SUMMARY_COLUMNS = ["cell_calls", "cell_bg_load", "metric", "mean",
                   "ci95_half", "n_seeds"]


class _OutOfTime(Exception):
    """Raised instead of starting a replica that would end past the deadline."""


def _replica_summary(sim, report) -> dict:
    """Deterministic counts of one finished replica."""
    st = report.engine_stats
    deliveries = sim.server.deliveries
    sms = [k for k in deliveries if "/sms/" in k]
    chunks = [k for k in deliveries if "/file/" in k]
    return {
        "seed": sim.seed,
        "events": st.events_processed,
        "frames_sent": st.frames_sent,
        "frames_delivered": st.frames_delivered,
        "frames_dropped": st.frames_dropped,
        "no_route_drops": sim.transport.no_route_drops,
        "route_changes": report.route_changes,
        "suppressions": sum(1 for r in sim.routers.values()
                            for (_t, kind, _i) in r.events if kind == "suppress"),
        "sms_sent": sum(1 for a in sim.scenario.actions if a["kind"] == "sms"),
        "sms_delivered": sum(deliveries[k].phase == "delivered" for k in sms),
        "chunks_delivered": sum(deliveries[k].phase == "delivered" for k in chunks),
        "admits": sum(1 for e in report.admission_log if e[0] == "admit"),
        "rejects": sum(1 for e in report.admission_log if e[0] == "reject"),
    }


# Known export defect, reported on every run rather than failed: with
# NumPy 2, harness._fmt writes scipy's np.float64 half-widths through repr(),
# so ci95_half cells read "np.float64(0.35...)". The value inside is checked
# like any other; the count is printed. Dropping scipy removes the wrapper
# and changes the voice digests.
NP_FLOAT = re.compile(r"np\.float64\((.*)\)")


def _check_exports(files, spec) -> tuple[list[str], int]:
    """Invariants the exported tables must satisfy; also counts wrapped cells."""
    problems = []
    wrapped = 0
    with open(files[0], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != SUMMARY_COLUMNS:
        return [f"summary header {rows[0]}"], 0
    cells = {}
    for calls, bg, metric, mean, half, n in rows[1:]:
        m = NP_FLOAT.fullmatch(half)
        if m is not None:
            wrapped += 1
            half = m.group(1)
        cells.setdefault((int(calls), int(bg)), {})[metric] = (
            float(mean), float(half), int(n))
    if spec["mode"] == "sweep":
        expected = {(c, b) for c in spec["calls"] for b in spec["bg"]}
        if set(cells) != expected:
            problems.append(f"cells {sorted(cells)} != {sorted(expected)}")
        n_seeds = spec["replicas"] // len(expected)
        for cell, m in sorted(cells.items()):
            pdr, pdr_half, n = m["pdr"]
            if n != n_seeds:
                problems.append(f"cell {cell}: pdr over {n} seeds, not {n_seeds}")
            if not 0.0 <= pdr <= 1.0 or pdr_half < 0.0:
                problems.append(f"cell {cell}: pdr {pdr} +- {pdr_half}")
            if abs(pdr + m["plr"][0] - 1.0) > 1e-9:
                problems.append(f"cell {cell}: pdr + plr != 1")
            if not m["delay"][0] > 0.0 or not m["jitter"][0] >= 0.0:
                problems.append(f"cell {cell}: delay {m['delay'][0]} "
                                f"jitter {m['jitter'][0]}")
    with open(files[1], newline="") as fh:
        flows = list(csv.DictReader(fh))
    if spec["mode"] == "sweep" and not flows:
        problems.append("no flow rows exported")
    for row in flows:
        sent, delivered = int(row["sent"]), int(row["delivered"])
        if delivered > sent:
            problems.append(f"flow {row['flow_id']}: {delivered} > {sent}")
        elif sent and not math.isclose(float(row["pdr"]), delivered / sent,
                                       rel_tol=1e-12):
            problems.append(f"flow {row['flow_id']}: pdr {row['pdr']}")
    return problems, wrapped


def _check_replicas(replicas, spec) -> list[str]:
    problems = []
    if len(replicas) != spec["replicas"]:
        problems.append(f"{len(replicas)} replicas ran, {spec['replicas']} expected")
    for r in replicas:
        if r["events"] <= 0 or r["frames_sent"] <= 0:
            problems.append(f"seed {r['seed']}: no traffic")
        if r["sms_delivered"] > r["sms_sent"]:
            problems.append(f"seed {r['seed']}: more SMS delivered than sent")
    return problems


def _minus(a, b):
    """Reference-clock reading a minus reading b: (busy_s, slices)."""
    return a[0] - b[0], a[1] - b[1]


def _digest(files) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(spec_path) -> dict:
    with open(spec_path) as fh:
        spec = json.load(fh)
    ref = RefClock()
    if spec["ref"]:
        ref.start()
    t_import = time.perf_counter()
    import meshsim
    import_end = time.perf_counter()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(meshsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"meshsim imported from {meshsim.__file__}, not {src}")
    from meshsim import harness, scenario as scenario_mod

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.record("cli.import", t_import, import_end)
        tracer.install_setup(meshsim)

    def load():
        """A fresh Scenario from the generated file (no shared Link objects)."""
        if spec["loader"] == "yaml":
            return scenario_mod.load_scenario(spec["scenario"])
        with open(spec["scenario"]) as fh:
            return scenario_mod.Scenario.from_dict(json.load(fh),
                                                   spec["scenario"])

    scn = load()
    harness.Simulation(scn, scn.seeds[0])
    setup_done = time.monotonic()
    setup_ref = ref.read()
    if spec["probe"]:
        ref.stop()
        return {"setup_done": setup_done, "setup_ref": setup_ref}

    replicas, replica_s, replica_ref = [], [], []
    plain_run = harness.Simulation.run
    clock = time.perf_counter
    limit = {"deadline": None, "slot_s": []}

    def run_and_summarize(sim):
        deadline, slot_s = limit["deadline"], limit["slot_s"]
        if deadline is not None and \
                time.monotonic() + slot_s[len(replica_s)] > deadline:
            raise _OutOfTime
        r0, t0 = ref.read(), clock()
        report = plain_run(sim)
        replica_s.append(clock() - t0)
        replica_ref.append(_minus(ref.read(), r0))
        replicas.append(_replica_summary(sim, report))
        return report
    harness.Simulation.run = run_and_summarize
    if tracer is not None:
        tracer.install_run(meshsim)

    out_path = os.path.join(spec["out_dir"], f"{spec['workload']}.csv")
    jobs, partial, wrapped = [], [[], []], 0
    while True:
        replicas.clear()
        replica_s.clear()
        replica_ref.clear()
        r0, w0 = ref.read(), clock()
        try:
            if spec["mode"] == "sweep":
                result = harness.sweep(scn, spec["calls"], spec["bg"],
                                       scn.seeds, keep_flow_details=True)
            else:
                result = harness.single_run_result(scn, scn.seeds)
            files = harness.export(result, "csv", out_path)
        except _OutOfTime:
            partial = [list(replica_s), list(replica_ref)]
            first = jobs[0]["replicas"]
            problems = [f"partial job replica {i}: {r} != {first[i]}"
                        for i, r in enumerate(replicas) if r != first[i]]
            jobs[0]["problems"] += problems
            break
        wall_s = clock() - w0
        wall_ref = _minus(ref.read(), r0)
        problems, wrapped = _check_exports(files, spec)
        problems += _check_replicas(replicas, spec)
        jobs.append({
            "wall_s": wall_s,
            "wall_ref": wall_ref,
            "replica_s": list(replica_s),
            "replica_ref": list(replica_ref),
            "export_sha256": _digest(files),
            "replicas_sha256": hashlib.sha256(
                json.dumps(replicas, sort_keys=True).encode()).hexdigest(),
            "replicas": list(replicas),
            "problems": problems,
        })
        if len(jobs) == 1:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            limit.update(deadline=spec["deadline"], slot_s=list(replica_s))
        if len(jobs) >= spec["max_jobs"] or (
                time.monotonic() + replica_s[0] > spec["deadline"]):
            break
        scn = load()

    ref.stop()
    out = {
        "setup_done": setup_done,
        "setup_ref": setup_ref,
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
        "partial_replica_s": partial[0],
        "partial_replica_ref": partial[1],
        "np_float64_cells": wrapped,
    }
    if tracer is not None:
        dump = tracer.dump()
        with open(os.path.join(spec["out_dir"], "spans.json"), "w") as fh:
            json.dump(dump, fh)
        del dump["spans"]
        out["trace"] = dump
        out["layer_self_s"] = tracer.layer_self_s()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
