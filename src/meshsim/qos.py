"""Airtime-based admission control for constant-bit-rate flows.

Contention domains share time, not separate pipes, so the ledger books
airtime fractions. A flow traversing k links of one domain consumes k times
its single-link airtime there (intra-flow interference). Admission compares
the worst-case increment against the residual headroom of every affected
domain; domains are keyed by their anchor link. Background traffic bypasses
the ledger and shows up only through the measured busy fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoRoute, UnknownFlow, check_ranges
from .topology import Topology


@dataclass(frozen=True)
class FlowSpec:
    id: str
    src: int                  # node ids (mesh attach points)
    dst: int
    demand: float             # bits/s, CBR
    packet_size: float        # bits
    kind: str = "voice"       # voice | background | broadcast | video

    def __post_init__(self):
        check_ranges(self, positive=("demand", "packet_size"))


@dataclass
class Admit:
    flow_id: str
    reservation: dict[int, float]     # anchor link -> airtime increment


@dataclass
class Reject:
    flow_id: str
    bottleneck: int                   # anchor link of the saturated domain
    residual: float
    needed: float


@dataclass
class QosParams:
    u_max: float = 0.85               # airtime share a domain may commit
    goodput_factor: float = 0.8       # usable share of a link's capacity

    def __post_init__(self):
        check_ranges(self, positive=("goodput_factor",))


def flow_airtime(flow: FlowSpec, link,
                 goodput_factor: float = QosParams.goodput_factor) -> float:
    """Fraction of channel time the flow occupies on one link traversal."""
    return flow.demand / (link.capacity * goodput_factor)


@dataclass
class AdmissionLedger:
    topo: Topology
    u_max: float = QosParams.u_max
    goodput_factor: float = QosParams.goodput_factor
    committed: dict[int, float] = field(default_factory=dict)
    flows: dict[str, dict[int, float]] = field(default_factory=dict)
    log: list = field(default_factory=list)

    def __post_init__(self):
        # per link: anchors whose contention domain contains it
        self._affected = [[] for _ in self.topo.links]
        for anchor in self.topo.links:
            for member in self.topo.domains[anchor.index]:
                self._affected[member].append(anchor.index)

    def residual(self, anchor_link: int, measured_busy: float = 0.0) -> float:
        """Headroom of one domain given model commitments and measurement."""
        used = max(self.committed.get(anchor_link, 0.0), measured_busy)
        return max(self.u_max - used, 0.0)

    def _increments(self, flow: FlowSpec, path_links) -> dict[int, float]:
        inc: dict[int, float] = {}
        for link in path_links:
            share = flow_airtime(flow, link, self.goodput_factor)
            # every domain that can sense this link pays the airtime
            for anchor_idx in self._affected[link.index]:
                inc[anchor_idx] = inc.get(anchor_idx, 0.0) + share
        return inc

    def admit(self, flow: FlowSpec, path_links, measured_busy=None):
        """Reserve airtime for the flow on every affected domain, atomically."""
        if not path_links:
            raise NoRoute(f"flow {flow.id}: empty path")
        inc = self._increments(flow, path_links)
        for anchor in sorted(inc):
            busy = 0.0 if measured_busy is None else measured_busy(anchor)
            res = self.residual(anchor, busy)
            if inc[anchor] > res + 1e-12:
                rej = Reject(flow.id, anchor, res, inc[anchor])
                self.log.append(("reject", flow.id, anchor))
                return rej
        replaced = self.flows.get(flow.id)
        self.flows[flow.id] = inc
        self._resum(inc if replaced is None else inc.keys() | replaced.keys())
        self.log.append(("admit", flow.id, None))
        return Admit(flow.id, inc)

    def release(self, flow_id: str):
        """Remove the flow's reservations exactly."""
        if flow_id not in self.flows:
            raise UnknownFlow(flow_id)
        self._resum(self.flows.pop(flow_id))
        self.log.append(("release", flow_id, None))

    def _resum(self, anchors):
        """Re-sum each of these anchors over the flows in insertion order.

        Summing in the same order every time keeps committed exactly the
        sum over live reservations; an anchor no flow books is dropped.
        """
        committed = self.committed
        for anchor in anchors:
            total, booked = 0.0, False
            for inc in self.flows.values():
                share = inc.get(anchor)
                if share is not None:
                    total += share
                    booked = True
            if booked:
                committed[anchor] = total
            else:
                committed.pop(anchor, None)
