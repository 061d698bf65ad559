"""meshsim benchmark: run one workload, timed (--trace 0) or traced (--trace 1).

Usage, from the repository root:

    python3 perfbench/run.py --workload voice-dense --seed 1 --seconds 40 --trace 0

Workloads: voice-dense, voice-lossy, churn-single (see workloads.py for why
each exists). The seed makes the workload's scenario file; meshsim sees only
that file. Every process is a fresh interpreter with ``src`` on its path,
and they run one at a time, so the load is a single process with no threads.

--trace 0 runs a few set-up probes, then fills the rest of --seconds with
two fresh processes one after the other, each repeating the whole job on a
freshly loaded scenario (see job.py). Timings are in reference seconds: host
time rescaled by the speed of a fixed reference loop that runs interleaved
with the job (see refclock.py), so that the shared host's speed swings
cancel. Host time is printed next to each. It reports:
  wall_s       time of one whole job, from the scenario being loaded to the
               exported result being written, as a mean over the run: each
               replica's mean time, summed over the job's replicas, plus the
               mean time a whole job spends outside them;
  setup_s      median time for a fresh interpreter to import meshsim, load
               the scenario and build its first Simulation (probes and
               measuring processes);
  peak_rss_mb  median peak resident memory of a process after its first job;
  ok_ratio     share of attempted replica runs that neither raised nor
               failed an output check (1 - error_rate; error_rate itself is
               printed on its own line).

--trace 1 alternates an untraced and a traced process of one job each, with
no reference loop, and reports the per-layer metrics of the traced job (see
PER_LAYER) in host seconds, and the tracing overhead, which is the traced
minus the untraced job's host time.

Every job's exports must hash to the same SHA-256, and every traced job's
counts must repeat exactly; a process whose job differs, raises, or fails an
output check counts its replicas as failed. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from refclock import NOMINAL_SLICE_S, scaled  # noqa: E402

SETUP_PROBES = 3       # extra cold starts per timed run, on top of one per process
MEASURE_PROCS = 2      # fresh processes per timed run, so digests have a pair
MIN_TRACED = 1         # untraced+traced pairs per traced run, at least
BUDGET_S = 170.0       # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}

PER_LAYER = {
    "engine.loop_self_s": "s", "engine.schedule_calls": "count",
    "engine.events": "count", "engine.host_us_per_event": "us",
    "engine.transmit_s": "s", "engine.transmit_calls": "count",
    "engine.send_frame_s": "s", "services.transport_s": "s",
    "services.transport_sends": "count", "engine.attempts_per_frame": "ratio",
    "engine.frame_delivery_ratio": "ratio", "engine.frames_dropped": "count",
    "services.no_route_drops": "count", "routing.route_to_calls": "count",
    "routing.route_to_s": "s", "routing.compute_routes_s": "s",
    "routing.compute_routes_calls": "count", "routing.control_rx_s": "s",
    "routing.recompute_s": "s", "routing.timers_s": "s",
    "services.flow_tick_s": "s",
    "engine.broadcast_s": "s", "engine.broadcast_calls": "count",
    "metrics.elp_link_s": "s", "metrics.elp_link_calls": "count",
    "routing.route_changes": "count", "routing.suppressions": "count",
    "services.ack_tx_per_leg": "ratio", "services.sms_delivered_ratio": "ratio",
    "qos.admit_s": "s", "qos.admit_calls": "count", "qos.reject_ratio": "ratio",
    "harness.construct_s": "s", "harness.aggregate_s": "s",
    "harness.export_s": "s", "cli.import_s": "s", "scenario.load_s": "s",
    "topology.build_s": "s", "trace.overhead_s": "s",
}


def _ratio(num, den) -> float:
    """num/den, or 0.0 when the workload has no such events (den == 0)."""
    return num / den if den else 0.0


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.spec = workloads.generate(workload, seed,
                                       SRC / "meshsim" / "presets", self.dir)
        self.spec.update(workload=workload, src=str(SRC))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.n_spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None       # (export digest, replica digest)
        self.np_float64_cells = 0   # known export defect, see job.NP_FLOAT

    def spawn(self, probe=False, trace=False, ref=True, deadline=0.0,
              max_jobs=1):
        """One fresh-interpreter process; None if it raised or timed out."""
        self.n_spawned += 1
        job_dir = self.dir / f"job{self.n_spawned}"
        job_dir.mkdir()
        spec_path = job_dir / "spec.json"
        spec_path.write_text(json.dumps(
            dict(self.spec, out_dir=str(job_dir), probe=probe, trace=trace,
                 ref=ref, deadline=deadline, max_jobs=max_jobs)))
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), str(spec_path)],
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            self.problems.append(f"job{self.n_spawned}: timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.problems.append(f"job{self.n_spawned}: exit {proc.returncode}: "
                                 f"{tail[0]}")
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_host_s"] = out["setup_done"] - t0
        out["setup_s"] = scaled(out["setup_host_s"], *out["setup_ref"])
        return out

    def build(self, trace=False, ref=True, deadline=0.0, max_jobs=1):
        """One process of one or more jobs, checked; None if any failed."""
        n = self.spec["replicas"]
        out = self.spawn(trace=trace, ref=ref, deadline=deadline,
                         max_jobs=max_jobs)
        if out is None:
            self.attempted += n
            self.failed += n
            return None
        self.np_float64_cells = out["np_float64_cells"]
        problems = []
        for k, job in enumerate(out["jobs"]):
            digests = (job["export_sha256"], job["replicas_sha256"])
            if self.reference is None:
                self.reference = digests
            if digests != self.reference:
                job["problems"].append(f"digests {digests} differ from the "
                                       f"first job's {self.reference}")
            problems += [f"job{self.n_spawned}.{k}: {p}" for p in job["problems"]]
        runs = n * len(out["jobs"]) + len(out["partial_replica_s"])
        self.attempted += runs
        if problems:
            self.problems += problems
            self.failed += runs
            return None
        return out

    def result(self, values, units):
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": values[k], "unit": u}
                            for k, u in units.items()}}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _spread(xs) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _q2, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q1:.4f} q3={q3:.4f} min={min(xs):.4f} max={max(xs):.4f}"


def run_timed(bench: Bench) -> dict:
    end = time.monotonic() + bench.seconds
    setup = []
    for _ in range(SETUP_PROBES):
        bench.attempted += 1
        out = bench.spawn(probe=True)
        if out is None:
            bench.failed += 1
        else:
            setup.append(out["setup_s"])
    procs = []
    for k in range(MEASURE_PROCS):
        now = time.monotonic()
        out = bench.build(deadline=now + (end - now) / (MEASURE_PROCS - k),
                          max_jobs=1_000_000)
        if out is not None:
            procs.append(out)
            setup.append(out["setup_s"])

    # Replica i of every job (whole or cut short) is one sample of slot i;
    # the time a whole job spends outside its replicas is one more sample.
    slots, host_slots, outside, host_outside, speed = {}, {}, [], [], []
    for p in procs:
        for j in p["jobs"] + [{"replica_s": p["partial_replica_s"],
                               "replica_ref": p["partial_replica_ref"]}]:
            for i, (raw, ref) in enumerate(zip(j["replica_s"], j["replica_ref"])):
                slots.setdefault(i, []).append(scaled(raw, *ref))
                host_slots.setdefault(i, []).append(raw - ref[0])
                if ref[1]:
                    speed.append(NOMINAL_SLICE_S * ref[1] / ref[0])
            if "wall_s" in j:
                outside.append(scaled(j["wall_s"], *j["wall_ref"])
                               - sum(slots[i][-1] for i in range(len(j["replica_s"]))))
                host_outside.append(j["wall_s"] - j["wall_ref"][0]
                                    - sum(host_slots[i][-1]
                                          for i in range(len(j["replica_s"]))))

    def job_mean(per_slot, rest):
        if not rest:
            return 0.0
        return (sum(statistics.fmean(ts) for ts in per_slot.values())
                + statistics.fmean(rest))

    wall, host_wall = job_mean(slots, outside), job_mean(host_slots, host_outside)
    rss = [p["peak_rss_mb"] for p in procs]
    print(f"workload {bench.workload}: {len(procs)} of {MEASURE_PROCS} "
          f"processes passed, {len(outside)} whole jobs, "
          f"{sum(map(len, slots.values()))} replica samples, "
          f"{len(setup)} set-up samples")
    print(f"wall_s = {wall:.4f} s in reference seconds; host time "
          f"{host_wall:.4f} s (means over the run)")
    for i, ts in sorted(slots.items()):
        print(f"  replica {i}: {_spread(ts)} s, host {_spread(host_slots[i])} s")
    print(f"host speed = {_median(speed):.3f} x reference ({_spread(speed)})")
    print(f"setup_s = {_median(setup):.4f} s in reference seconds "
          f"({_spread(setup)}); host time of the measuring processes "
          f"{_spread([p['setup_host_s'] for p in procs])}")
    print(f"peak_rss_mb = {_median(rss):.2f} MB ({_spread(rss)})")
    error_rate = _ratio(bench.failed, bench.attempted)
    print(f"error_rate = {error_rate:.4f} ratio "
          f"({bench.failed} of {bench.attempted} replica runs)")
    return {"wall_s": wall, "setup_s": _median(setup),
            "peak_rss_mb": _median(rss), "ok_ratio": 1.0 - error_rate}


def layer_metrics(job, untraced_wall_s) -> dict:
    tr = job["trace"]
    totals, counts = tr["totals"], tr["counts"]

    def self_s(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        if name in counts:
            return counts[name]
        return totals.get(name, {}).get("calls", 0)

    reps = job["jobs"][0]["replicas"]

    def rsum(key):
        return sum(r[key] for r in reps)

    events = rsum("events")
    transmits = calls("engine.transmit")
    admits = calls("qos.admit")
    return {
        "engine.loop_self_s": self_s("engine.run_until"),
        "engine.schedule_calls": calls("engine.schedule"),
        "engine.events": events,
        "engine.host_us_per_event": _ratio(untraced_wall_s * 1e6, events),
        "engine.transmit_s": self_s("engine.transmit"),
        "engine.transmit_calls": transmits,
        "engine.send_frame_s": self_s("engine.send_frame"),
        "services.transport_s": self_s("services.send", "services.forward"),
        "services.transport_sends": calls("services.send"),
        "engine.attempts_per_frame": _ratio(tr["mac_attempts"], transmits),
        "engine.frame_delivery_ratio": _ratio(rsum("frames_delivered"),
                                              transmits),
        "engine.frames_dropped": rsum("frames_dropped"),
        "services.no_route_drops": rsum("no_route_drops"),
        "routing.route_to_calls": calls("routing.route_to"),
        "routing.route_to_s": self_s("routing.route_to"),
        "routing.compute_routes_s": self_s("routing.compute_routes"),
        "routing.compute_routes_calls": calls("routing.compute_routes"),
        "routing.control_rx_s": self_s("routing.process_hello",
                                       "routing.receive_control"),
        "routing.recompute_s": self_s("routing.recompute"),
        "routing.timers_s": self_s("routing.hello_tick", "routing.tc_tick",
                                   "routing.tx_failure"),
        "services.flow_tick_s": self_s("services.flow_tick"),
        "engine.broadcast_s": self_s("engine.broadcast"),
        "engine.broadcast_calls": calls("engine.broadcast"),
        "metrics.elp_link_s": self_s("metrics.elp_link"),
        "metrics.elp_link_calls": calls("metrics.elp_link"),
        "routing.route_changes": rsum("route_changes"),
        "routing.suppressions": rsum("suppressions"),
        "services.ack_tx_per_leg": _ratio(calls("services.ack_tx"),
                                          calls("services.ack_legs")),
        "services.sms_delivered_ratio": _ratio(rsum("sms_delivered"),
                                               rsum("sms_sent")),
        "qos.admit_s": self_s("qos.admit"),
        "qos.admit_calls": admits,
        "qos.reject_ratio": _ratio(rsum("rejects"), admits),
        "harness.construct_s": self_s("harness.construct"),
        "harness.aggregate_s": self_s("harness.aggregate"),
        "harness.export_s": self_s("harness.export"),
        "cli.import_s": self_s("cli.import"),
        "scenario.load_s": self_s("scenario.load"),
        "topology.build_s": self_s("topology.build"),
        "trace.overhead_s": job["jobs"][0]["wall_s"] - untraced_wall_s,
    }


def run_traced(bench: Bench) -> dict:
    plain, traced, elapsed = [], [], []
    t_measure = time.monotonic()
    while len(elapsed) < MIN_TRACED or (
            time.monotonic() - t_measure + _median(elapsed) <= bench.seconds
            and time.monotonic() + _median(elapsed) <= bench.deadline):
        t0 = time.monotonic()
        for trace, sink in ((False, plain), (True, traced)):
            out = bench.build(trace=trace, ref=False)
            if out is not None:
                sink.append(out)
        elapsed.append(time.monotonic() - t0)
    untraced_wall = _median([p["jobs"][0]["wall_s"] for p in plain])
    per_job = [layer_metrics(j, untraced_wall) for j in traced]
    counted = {k for k, u in PER_LAYER.items() if u in ("count", "ratio")}
    for other in per_job[1:]:
        for k in counted:
            if other[k] != per_job[0][k]:
                bench.problems.append(f"{k}: {other[k]} != {per_job[0][k]} "
                                      "across traced builds")
    # counts repeat exactly (checked above); times are medians over builds
    values = {k: per_job[0][k] if k in counted and per_job
              else _median([m[k] for m in per_job]) for k in PER_LAYER}
    print(f"workload {bench.workload}: {len(plain)} untraced and "
          f"{len(traced)} traced builds passed")
    for name, unit in PER_LAYER.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if traced:
        print("self time per layer (s):")
        layers = traced[0]["layer_self_s"]
        for layer in sorted(layers, key=layers.get, reverse=True):
            print(f"  {layer:<10} {layers[layer]:.4f}")
        overhead = values["trace.overhead_s"]
        print(f"tracing overhead = {overhead:.4f} s "
              f"({_ratio(overhead, untraced_wall):.1%} of untraced wall_s "
              f"{untraced_wall:.4f} s)")
    with open(bench.dir / "trace.json", "w") as fh:
        json.dump({"per_layer": values, "jobs": traced}, fh, indent=1)
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "meshsim" / "__init__.py").is_file():
        print(f"meshsim sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds)
    if args.trace:
        values, units = run_traced(bench), PER_LAYER
    else:
        values, units = run_timed(bench), END_TO_END
    if bench.reference is not None:
        print(f"export sha256 = {bench.reference[0]}")
        print(f"replica-count sha256 = {bench.reference[1]}")
    if bench.np_float64_cells:
        print(f"known defect: {bench.np_float64_cells} ci95_half cells per "
              "build are exported as np.float64(...) text")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(json.dumps(bench.result(values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
