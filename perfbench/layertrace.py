"""Per-layer tracing that wraps meshsim's entry points from outside.

Nothing in meshsim is edited: the tracer replaces class and module
attributes with timing wrappers after ``import meshsim``. Each wrapper keeps
a stack of child time, so a span's self time is its duration minus the time
covered by the traced spans it called.

A replica makes about 10^6 hot-path calls, so hot spans are folded into
per-name totals (calls, total, self) as they close. Coarse spans (import,
load, topology build, construction, each replica's run and event loop,
aggregation, export) are kept whole as (name, start, end, parent) records and
written out when the job ends.
"""

from __future__ import annotations

import time

# span name -> layer, for the per-layer self-time report
LAYER_OF = {
    "cli.import": "cli",
    "scenario.load": "scenario",
    "topology.build": "topology",
    "harness.construct": "harness",
    "harness.replica": "harness",
    "harness.aggregate": "harness",
    "harness.export": "harness",
    "engine.run_until": "engine",
    "engine.transmit": "engine",
    "engine.send_frame": "engine",
    "engine.broadcast": "engine",
    "services.send": "services",
    "services.forward": "services",
    "routing.route_to": "routing",
    "routing.compute_routes": "routing",
    "routing.process_hello": "routing",
    "routing.receive_control": "routing",
    "routing.recompute": "routing",
    "routing.hello_tick": "routing",
    "routing.tc_tick": "routing",
    "routing.tx_failure": "routing",
    "services.flow_tick": "services",
    "metrics.elp_link": "metrics",
    "qos.admit": "qos",
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self._child = []            # open spans' accumulated child time
        self._open_kept = []        # indices of open coarse spans
        self.spans = []             # [name, start, end, parent index or -1]
        self.acc = {}               # name -> [calls, total_s, self_s]
        self.counts = {}            # name -> [calls]
        self.attempts = [0]         # MAC attempts summed over transmit calls

    # -- wrappers --------------------------------------------------------

    def _cell(self, name):
        return self.acc.setdefault(name, [0, 0.0, 0.0])

    def timed(self, name, fn, on_result=None):
        """Hot-path span: folded into per-name totals when it closes."""
        clock, child, cell = self.clock, self._child, self._cell(name)

        def wrapper(*args, **kw):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                dur = clock() - t0
                inner = child.pop()
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - inner
                if child:
                    child[-1] += dur
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def kept(self, name, fn):
        """Coarse span: totals as above, plus a whole span record."""
        clock, child, cell = self.clock, self._child, self._cell(name)
        spans, open_kept = self.spans, self._open_kept

        def wrapper(*args, **kw):
            parent = open_kept[-1] if open_kept else -1
            rec = [name, 0.0, 0.0, parent]
            open_kept.append(len(spans))
            spans.append(rec)
            child.append(0.0)
            t0 = rec[1] = clock()
            try:
                return fn(*args, **kw)
            finally:
                t1 = rec[2] = clock()
                dur = t1 - t0
                inner = child.pop()
                open_kept.pop()
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - inner
                if child:
                    child[-1] += dur
        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kw):
            cell[0] += 1
            return fn(*args, **kw)
        return wrapper

    def record(self, name, start, end):
        """A span measured by the caller (the import, which precedes us)."""
        self.spans.append([name, start, end, -1])
        cell = self._cell(name)
        cell[0] += 1
        cell[1] += end - start
        cell[2] += end - start

    # -- installation ----------------------------------------------------

    def install_setup(self, meshsim):
        """Wrap the loaders and topology build; call before loading."""
        scenario = meshsim.scenario
        scenario.load_scenario = self.kept("scenario.load", scenario.load_scenario)
        scenario.Scenario.from_dict = staticmethod(
            self.kept("scenario.load", scenario.Scenario.from_dict))
        scenario.build_topology = self.kept("topology.build", scenario.build_topology)

    def install_run(self, meshsim):
        """Wrap every run-time entry point; call after the setup probe."""
        engine, harness = meshsim.engine, meshsim.harness
        routing, services = meshsim.routing, meshsim.services
        Engine, Medium = engine.Engine, engine.Medium
        Router, Transport = routing.Router, services.MeshTransport
        Sender = services.AckRetrySender
        attempts = self.attempts

        def add_attempts(out):
            attempts[0] += out.attempts

        Engine.run_until = self.kept("engine.run_until", Engine.run_until)
        Engine.schedule = self.counted("engine.schedule", Engine.schedule)
        Medium.transmit = self.timed("engine.transmit", Medium.transmit,
                                     add_attempts)
        Medium.send_frame = self.timed("engine.send_frame", Medium.send_frame)
        Medium.broadcast = self.timed("engine.broadcast", Medium.broadcast)
        Transport.send = self.timed("services.send", Transport.send)
        Transport._forward = self.timed("services.forward", Transport._forward)
        Sender.start = self.counted("services.ack_legs", Sender.start)
        Sender._attempt = self.counted("services.ack_tx", Sender._attempt)
        routing.compute_routes = self.timed("routing.compute_routes",
                                            routing.compute_routes)
        Router.route_to = self.timed("routing.route_to", Router.route_to)
        Router.process_hello = self.timed("routing.process_hello",
                                          Router.process_hello)
        Router.receive_control = self.timed("routing.receive_control",
                                            Router.receive_control)
        Router._recompute = self.timed("routing.recompute", Router._recompute)
        Router._hello_tick = self.timed("routing.hello_tick", Router._hello_tick)
        Router._tc_tick = self.timed("routing.tc_tick", Router._tc_tick)
        Router.handle_tx_failure = self.timed("routing.tx_failure",
                                              Router.handle_tx_failure)
        services.FlowRunner._tick = self.timed("services.flow_tick",
                                               services.FlowRunner._tick)
        meshsim.metrics.elp_link = self.timed("metrics.elp_link",
                                              meshsim.metrics.elp_link)
        Ledger = meshsim.qos.AdmissionLedger
        Ledger.admit = self.timed("qos.admit", Ledger.admit)
        harness.Simulation.__init__ = self.kept("harness.construct",
                                                harness.Simulation.__init__)
        harness.Simulation.run = self.kept("harness.replica",
                                           harness.Simulation.run)
        harness._aggregate_cell = self.kept("harness.aggregate",
                                            harness._aggregate_cell)
        harness.export = self.kept("harness.export", harness.export)

    # -- report ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = {}
        for name, (_calls, _total, self_time) in self.acc.items():
            layer = LAYER_OF[name]
            out[layer] = out.get(layer, 0.0) + self_time
        return out

    def dump(self) -> dict:
        return {"spans": self.spans,
                "totals": {k: {"calls": c, "total_s": t, "self_s": s}
                           for k, (c, t, s) in sorted(self.acc.items())},
                "counts": {k: v[0] for k, v in sorted(self.counts.items())},
                "mac_attempts": self.attempts[0]}
