"""Experiment harness: scenario execution, sweeps, statistics, export.

A run is a pure function of (scenario, seed): it assembles the engine,
medium, per-node routers, and service stack, replays the workload, and
reduces post-warmup traffic to per-flow PDR/PLR/delay/jitter. Sweeps vary
the (call count, background load) grid and aggregate across seeds with
Student-t 95% confidence intervals, matching how field-trial graphs are
usually reported. The t quantile comes from the exact integer-df
distribution function, inverted by bisection, so no numerical library is
needed.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import math
from dataclasses import dataclass, field

from .engine import Engine, EngineStats, Medium
from .errors import CalleeOffline, IoError, NoRoute, SenderOffline, TooFewSamples
from .routing import Router, wire_network
from .scenario import Scenario
from .services import Client, MeshTransport, Server, ServiceStack

MEASURED_KINDS = ("voice",)


def _t_central_mass(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df.

    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df): a finite
    series in sin and cos of theta = atan(t / sqrt(df)).
    """
    theta = math.atan(t / math.sqrt(df))
    c = math.cos(theta)
    odd = df % 2
    total, term = 0.0, (c if odd else 1.0)
    for j in range(odd, df - 1, 2):       # terms in cos^j, j up to df - 2
        total += term
        term *= c * c * (j + 1) / (j + 2)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * total)
    return math.sin(theta) * total


def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with integer df >= 1.

    Bisects the exact distribution function down to adjacent floats and
    returns the upper one; agrees with the usual tables to ~1e-13.
    """
    lo, hi = 0.0, 16.0                    # t_0.975 is 12.706 at df = 1
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if _t_central_mass(mid, df) < 0.95:
            lo = mid
        else:
            hi = mid


def _sum(values) -> float:
    """values added left to right: the built-in sum() compensates float
    rounding from Python 3.12 on, which would change exports' last digits."""
    total = 0.0
    for x in values:
        total += x
    return total


def confidence_interval(samples):
    """Student-t 95% (mean, half_width) for a small sample."""
    n = len(samples)
    if n < 2:
        raise TooFewSamples(f"need >= 2 samples, got {n}")
    mean = _sum(samples) / n
    var = _sum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, t_quantile_975(n - 1) * math.sqrt(var / n)


@dataclass
class MetricsReport:
    """Everything measured in one run."""

    flows: list
    admission_log: list
    route_changes: int
    engine_stats: EngineStats
    seed: int = 0

    def flow_rows(self):
        rows = []
        for f in self.flows:
            rows.append({"flow_id": f.flow_id, "kind": f.kind, "src": f.src,
                         "dst": f.dst, "sent": f.sent, "delivered": f.delivered,
                         "pdr": f.pdr, "mean_delay_s": f.mean_delay,
                         "jitter_s": f.jitter})
        return rows

    def aggregate(self):
        """Per-run scalars: mean over measured flows that carried traffic."""
        vals = {"pdr": [], "plr": [], "delay": [], "jitter": []}
        for f in self.flows:
            if f.kind not in MEASURED_KINDS or f.sent == 0:
                continue
            vals["pdr"].append(f.pdr)
            vals["plr"].append(f.plr)
            if f.delivered:
                vals["delay"].append(f.mean_delay)
                vals["jitter"].append(f.jitter)
        return {k: (_sum(v) / len(v) if v else float("nan")) for k, v in vals.items()}


class Simulation:
    """One scenario replica with its own engine, medium, routers and services.

    Everything a run changes lives in these per-run objects; the Scenario
    and its Topology are only read (an outage action cuts links in the
    replica's Medium), so replicas of one Scenario share no mutable state.
    """

    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.engine = Engine(seed)
        self.topo = scenario.topology
        self.medium = Medium(self.topo, self.engine, scenario.mac)
        node_ids = sorted(self.topo.nodes)
        self.routers = {nid: Router(nid, self.medium, scenario.routing, scenario.elp)
                        for nid in node_ids}
        wire_network(self.routers, self.medium)
        phase_step = scenario.routing.hello_interval / max(len(node_ids), 1)
        for i, nid in enumerate(node_ids):
            self.routers[nid].start(phase=i * phase_step)
        self.transport = MeshTransport(self.medium, self.routers)
        self.ledger = scenario.make_ledger()
        self.server = Server(self.transport, self.topo.server_nodes()[0],
                             scenario.services)
        self.stack = ServiceStack(self.transport, self.server, self.ledger,
                                  self.medium, warmup=scenario.warmup)
        self.clients = self.server.clients    # each Client enters itself
        for cd in scenario.clients:
            Client(cd.id, cd.attach, self.transport, self.server,
                   video_answer=cd.video_answer)
        self._schedule_bringup()
        self._schedule_calls()
        self._schedule_actions()

    # -- workload ----------------------------------------------------------

    def _schedule_bringup(self):
        def bringup():
            self.server.start_presence_timer()
            for cid in sorted(self.clients):
                self.clients[cid].register()
                self.clients[cid].start_beacons()
        self.engine.schedule(0.2, bringup)

    def _pick_pair(self, rng, client_ids):
        src = rng.choice(client_ids)
        for _ in range(8):
            dst = rng.choice(client_ids)
            if dst != src and (self.clients[dst].attach_node
                               != self.clients[src].attach_node):
                return src, dst
        dst = rng.choice([c for c in client_ids if c != src] or client_ids)
        return src, dst

    def _schedule_calls(self):
        tpl = self.scenario.calls
        if tpl.count <= 0 and tpl.background <= 0:
            return
        rng = self.engine.rng("workload")
        client_ids = sorted(self.clients)
        if len(client_ids) < 2:
            return
        start = self.scenario.warmup if tpl.start is None else tpl.start

        def place(i, background):
            src, dst = self._pick_pair(rng, client_ids)
            t = start + i * tpl.stagger

            def go():
                try:
                    self.stack.start_call(src, dst, tpl.duration,
                                          background=background)
                except (SenderOffline, CalleeOffline, NoRoute):
                    pass          # offline or unreachable: call never happens
            self.engine.schedule(t, go)

        for i in range(tpl.count):
            place(i, background=False)
        for i in range(tpl.background):
            place(tpl.count + i, background=True)

    def _schedule_actions(self):
        for action in self.scenario.actions:
            self.engine.schedule(action["at"],
                                 lambda a=action: self._dispatch_action(a))

    def _dispatch_action(self, a):
        """Run one loaded action, which carries every key of its kind."""
        kind = a["kind"]
        try:
            if kind == "sms":
                self.clients[a["src"]].send_sms(a["dst"], a["size"])
            elif kind == "file":
                self.clients[a["src"]].send_file(a["dst"], a["size"],
                                                 a["chunk_size"])
            elif kind == "call":
                self.stack.start_call(a["src"], a["dst"], a["duration"])
            elif kind == "broadcast_audio":
                self.stack.broadcast_audio(a["duration"])
            elif kind == "video_request":
                self.stack.request_video(a["src"], a["dst"], a["duration"],
                                         a["response"])
            elif kind == "attach":
                self.clients[a["client"]].attach(a["node"])
            elif kind == "outage":
                self.medium.outage(a["a"], a["b"], a["duration"])
        except (SenderOffline, CalleeOffline, NoRoute):
            pass          # offline or unreachable: the action never happens

    # -- execution -----------------------------------------------------------

    def run(self) -> MetricsReport:
        self.engine.run_until(self.scenario.duration)
        route_changes = 0
        for nid in sorted(self.routers):
            route_changes += sum(1 for (t, kind, _info) in self.routers[nid].events
                                 if kind == "route_switch" and t >= self.scenario.warmup)
        return MetricsReport(self.stack.flows, list(self.ledger.log),
                             route_changes, self.engine.stats, self.seed)


def run_scenario(scenario: Scenario, seed: int) -> MetricsReport:
    report = Simulation(scenario, seed).run()
    # A finished replica is a knot of reference cycles (routers' peer maps,
    # server <-> clients, self-rescheduling timers, pending events) that only
    # a full collection frees; collect now so replicas do not pile up.
    gc.collect()
    return report


@dataclass
class ExperimentResult:
    """Aggregated sweep output plus per-flow detail rows."""

    # (calls, bg) -> metric -> (mean, ci95_half, n_seeds)
    cells: dict = field(default_factory=dict)
    flow_details: list = field(default_factory=list)


def _aggregate_cell(reports) -> dict:
    per_metric = {"pdr": [], "plr": [], "delay": [], "jitter": []}
    for rep in reports:
        agg = rep.aggregate()
        for k, v in agg.items():
            if not math.isnan(v):
                per_metric[k].append(v)
    out = {}
    for k, samples in per_metric.items():
        if len(samples) >= 2:
            mean, half = confidence_interval(samples)
        elif samples:
            mean, half = samples[0], 0.0
        else:
            mean, half = float("nan"), float("nan")
        out[k] = (mean, half, len(samples))
    return out


def _with_cell(scenario: Scenario, calls: int, bg: int) -> Scenario:
    tpl = dataclasses.replace(scenario.calls, count=calls, background=bg)
    return dataclasses.replace(scenario, calls=tpl)


def sweep(scenario: Scenario, calls_grid, bg_grid, seeds,
          keep_flow_details: bool = True) -> ExperimentResult:
    """Run the (call count x background load) grid; cells are independent.

    Every replica's flow rows are kept. keep_flow_details is not read: it
    is accepted for callers written when keeping the rows was optional.
    """
    result = ExperimentResult()
    for calls in calls_grid:
        for bg in bg_grid:
            cell_scn = _with_cell(scenario, calls, bg)
            reports = [run_scenario(cell_scn, seed) for seed in seeds]
            result.cells[(calls, bg)] = _aggregate_cell(reports)
            for rep in reports:
                for row in rep.flow_rows():
                    row = dict(row, cell_calls=calls, cell_bg_load=bg,
                               seed=rep.seed)
                    result.flow_details.append(row)
    return result


def single_run_result(scenario: Scenario, seeds) -> ExperimentResult:
    """Plain runs of one scenario as a one-cell experiment with flow details."""
    return sweep(scenario, [scenario.calls.count], [scenario.calls.background],
                 seeds)


def count_trend_violations(result: ExperimentResult, calls: int, bg_grid,
                           metric: str = "pdr") -> int:
    """Inversions of the expected non-increasing trend along one sweep row.

    An increase only counts as a violation when the two cells' confidence
    intervals do not overlap.
    """
    violations = 0
    prev = None
    for bg in bg_grid:
        mean, half, _n = result.cells[(calls, bg)][metric]
        if prev is not None:
            pmean, phalf = prev
            if mean > pmean and (mean - half) > (pmean + phalf):
                violations += 1
        prev = (mean, half)
    return violations


_SUMMARY_COLUMNS = ["cell_calls", "cell_bg_load", "metric", "mean",
                    "ci95_half", "n_seeds"]
_FLOW_COLUMNS = ["flow_id", "kind", "src", "dst", "sent", "delivered", "pdr",
                 "mean_delay_s", "jitter_s"]


def export(result: ExperimentResult, fmt: str, path) -> list[str]:
    """Write the experiment result; returns the file paths written."""
    path = str(path)
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(_SUMMARY_COLUMNS)
                for (calls, bg) in sorted(result.cells):
                    for metric in ("pdr", "plr", "delay", "jitter"):
                        mean, half, n = result.cells[(calls, bg)][metric]
                        w.writerow([calls, bg, metric, mean, half, n])
            flows_path = path + ".flows.csv" if not path.endswith(".csv") \
                else path[:-4] + ".flows.csv"
            with open(flows_path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(_FLOW_COLUMNS)
                for row in result.flow_details:
                    w.writerow([row[c] for c in _FLOW_COLUMNS])
            return [path, flows_path]
        if fmt == "json":
            doc = {
                "cells": {f"{c},{b}": result.cells[(c, b)]
                          for (c, b) in sorted(result.cells)},
                "flows": result.flow_details,
            }
            with open(path, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=True)
                fh.write("\n")
            return [path]
    except OSError as e:
        raise IoError(f"{path}: {e}")
    raise ValueError(f"unknown export format {fmt!r}")
