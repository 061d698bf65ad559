"""Shared fixtures: tiny topologies, a scripted transport, network assembly."""

import math
import os

import pytest

from meshsim.engine import Engine, MacParams, Medium
from meshsim.routing import RoutingParams, start_routers
from meshsim.topology import NodeSpec, PropagationModel, RadioSpec, build_topology


def pytest_runtest_logreport(report):
    """Append each captured `[acceptance]` line to $GITHUB_STEP_SUMMARY, as a
    list item, so a CI run shows every criterion's value and bound."""
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary or report.when != "call":
        return
    lines = [line for line in report.capstdout.splitlines()
             if line.startswith("[acceptance] ")]
    if lines:
        with open(summary, "a", encoding="utf-8") as f:
            f.writelines(f"- {line}\n" for line in lines)


def make_nodes(positions, channel=1, rate=12e6, tx_range=40.0, cs_range=80.0,
               server=0):
    """One single-radio node per position; node ids follow list order."""
    radio = RadioSpec(channel, rate, tx_range, cs_range)
    return [NodeSpec(i, tuple(map(float, pos)), (radio,), is_server=(i == server))
            for i, pos in enumerate(positions)]


def two_node_topology(p=1.0, rate=12e6):
    nodes = make_nodes([(0, 0), (10, 0)], rate=rate)
    return build_topology(nodes, overrides={(0, 1): p})


class Net:
    """A fully wired network: engine, medium, routers. Protocol-level tests."""

    def __init__(self, topo, seed=1, mac=None, routing=None, elp=None):
        self.topo = topo
        self.engine = Engine(seed)
        self.medium = Medium(topo, self.engine, mac or MacParams())
        self.routing = routing or RoutingParams()
        self.routers = start_routers(self.medium, self.routing, elp)

    def run(self, t):
        self.engine.run_until(t)
        return self

    def events(self, node, kind):
        return [(t, info) for (t, k, info) in self.routers[node].events if k == kind]


def make_net(positions, seed=1, overrides=None, deletions=None, server=0,
             mac=None, elp=None, **routing_kw):
    nodes = make_nodes(positions, server=server)
    topo = build_topology(nodes, overrides, deletions)
    return Net(topo, seed=seed, mac=mac, elp=elp,
               routing=RoutingParams(**routing_kw) if routing_kw else None)


class FakeNet:
    """Scripted in-memory transport for the service layer.

    loss_script maps a directed (src, dst) pair to a list of delivery
    outcomes consumed in send order; pairs not listed (or exhausted lists)
    always deliver. Latency is fixed, so timing stays trivially predictable.
    """

    def __init__(self, loss_script=None, latency=0.01):
        self.engine = Engine(0)
        self.latency = latency
        self.script = {k: list(v) for k, v in (loss_script or {}).items()}
        self.sends = []               # (t, src, dst, bits)

    def now(self):
        return self.engine.now

    def schedule(self, t, fn):
        self.engine.schedule(t, fn)

    def send(self, src, dst, bits, deliver=None):
        self.sends.append((self.now(), src, dst, bits))
        queue = self.script.get((src, dst))
        ok = queue.pop(0) if queue else True
        if ok and deliver is not None:
            t = self.now() + self.latency
            self.engine.schedule(t, lambda: deliver(t))

    def count(self, src, dst):
        return sum(1 for (_t, s, d, _b) in self.sends if (s, d) == (src, dst))

    def run(self, t):
        self.engine.run_until(t)
        return self


@pytest.fixture
def fakenet():
    return FakeNet()
