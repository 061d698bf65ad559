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
        check_ranges(self, positive=("goodput_factor",), unit=("u_max",))


def flow_airtime(flow: FlowSpec, link, goodput_factor: float) -> float:
    """Fraction of channel time the flow occupies on one link traversal."""
    return flow.demand / (link.capacity * goodput_factor)


@dataclass
class AdmissionLedger:
    topo: Topology
    qos: QosParams = field(default_factory=QosParams)

    def __post_init__(self):
        # live reservations in admission order, each anchor link -> airtime;
        # committed and residual are summed from them
        self.flows: dict[str, dict[int, float]] = {}
        self.log: list = []
        # per link: anchors whose contention domain contains it
        self._affected = [[] for _ in self.topo.links]
        for anchor in self.topo.links:
            for member in self.topo.domains[anchor.index]:
                self._affected[member].append(anchor.index)

    @property
    def committed(self) -> dict[int, float]:
        """Booked airtime per anchor that some live flow books."""
        total: dict[int, float] = {}
        for inc in self.flows.values():
            for anchor, share in inc.items():
                total[anchor] = total.get(anchor, 0.0) + share
        return total

    def residual(self, anchor_link: int, measured_busy: float = 0.0) -> float:
        """Headroom of one domain given model commitments and measurement."""
        used = 0.0
        for inc in self.flows.values():
            used += inc.get(anchor_link, 0.0)
        return max(self.qos.u_max - max(used, measured_busy), 0.0)

    def _increments(self, flow: FlowSpec, path_links) -> dict[int, float]:
        inc: dict[int, float] = {}
        for link in path_links:
            share = flow_airtime(flow, link, self.qos.goodput_factor)
            # every domain that can sense this link pays the airtime
            for anchor_idx in self._affected[link.index]:
                inc[anchor_idx] = inc.get(anchor_idx, 0.0) + share
        return inc

    def admit(self, flow: FlowSpec, path_links, measured_busy=None):
        """Reserve airtime for the flow on every affected domain, atomically;
        admitting a live flow again replaces its reservation."""
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
        self.flows[flow.id] = inc
        self.log.append(("admit", flow.id, None))
        return Admit(flow.id, inc)

    def release(self, flow_id: str):
        """Remove the flow's reservations exactly."""
        if self.flows.pop(flow_id, None) is None:
            raise UnknownFlow(flow_id)
        self.log.append(("release", flow_id, None))
