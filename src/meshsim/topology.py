"""Physical network model: nodes, radios, derived links and contention sets.

Links are derived from node placement: a channel-matched pair of radios within
mutual transmit range forms one (bidirectional) link. Per-attempt frame
delivery probability falls off piecewise-linearly near the edge of range,
which is where real deployments get ugly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnknownLink, ValidationError, check_ranges


@dataclass(frozen=True)
class RadioSpec:
    channel: int
    nominal_rate: float       # bits/s
    tx_range: float           # meters
    cs_range: float           # meters, carrier sense >= tx_range

    def __post_init__(self):
        check_ranges(self, positive=("nominal_rate", "tx_range"))
        if self.cs_range < self.tx_range:
            raise ValueError(f"cs_range must be >= tx_range ({self.tx_range!r}), "
                             f"got {self.cs_range!r}")


@dataclass(frozen=True)
class NodeSpec:
    id: int
    position: tuple[float, float]
    radios: tuple[RadioSpec, ...]
    is_server: bool = False

    def __post_init__(self):
        if not self.radios:
            raise ValueError("needs at least one radio")
        if not all(math.isfinite(c) for c in self.position):
            raise ValueError(f"position must be finite, got {self.position!r}")


@dataclass(frozen=True)
class PropagationModel:
    """Distance -> per-attempt delivery probability.

    Flat at p_max out to knee*tx_range, linear decay to p_min at tx_range,
    zero beyond. Two knobs, both calibration parameters rather than measured
    hardware curves.
    """

    p_max: float = 0.98
    p_min: float = 0.5
    knee: float = 0.6

    def delivery_probability(self, distance: float, tx_range: float) -> float:
        if distance > tx_range:
            return 0.0
        edge = self.knee * tx_range
        if distance <= edge:
            return self.p_max
        frac = (distance - edge) / (tx_range - edge)
        return self.p_max - (self.p_max - self.p_min) * frac


@dataclass(frozen=True, eq=False)
class Link:
    """One undirected link (stored once) with per-direction delivery odds.

    Direction ``forward`` means src -> dst with src < dst by node id. The
    odds are the link's as built; a run's outages live in its Medium.
    """

    index: int
    src: int
    dst: int
    channel: int
    distance: float
    p_deliver_fwd: float
    p_deliver_rev: float
    capacity: float           # bits/s

    def transmitter(self, forward: bool) -> int:
        return self.src if forward else self.dst

    def receiver(self, forward: bool) -> int:
        return self.dst if forward else self.src


@dataclass(frozen=True)
class Topology:
    """Everything build_topology derives; runs only read it."""

    nodes: dict[int, NodeSpec]
    links: list[Link]
    # node -> [(neighbor, link index, forward?)]
    adjacency: dict[int, list[tuple[int, int, bool]]]
    # link index -> ids of nodes on the link's channel within carrier-sense
    # range of either endpoint (includes both endpoints)
    sensed: list[list[int]]
    # link index -> indices of same-channel links with an endpoint in sensed
    # (includes the link itself)
    domains: list[list[int]]

    def link_between(self, a: int, b: int) -> Link:
        """Return the link between a and b, cheapest-index first if several."""
        for nbr, idx, _fwd in self.adjacency.get(a, ()):
            if nbr == b:
                return self.links[idx]
        raise UnknownLink(f"no link {a}<->{b}")

    def server_nodes(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.is_server)


def _validate_nodes(nodes):
    """Node ids must be unique; each node and radio checks its own ranges."""
    problems = []
    seen = set()
    for n in nodes:
        if n.id in seen:
            problems.append(f"duplicate node id {n.id}")
        seen.add(n.id)
    if problems:
        raise ValidationError(problems)


def _distance(a: NodeSpec, b: NodeSpec) -> float:
    return math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])


def build_topology(nodes, overrides=None, deletions=None,
                   propagation: PropagationModel | None = None) -> Topology:
    """Derive the link set from node placement.

    overrides: {(a, b) or (a, b, channel): (p_fwd, p_rev)}, a and b in
    either order, p_fwd the odds of the a -> b direction; an entry with a
    single float applies symmetrically. Of two keys naming the same pair
    (and channel), the later in iteration order wins. deletions: iterable
    of (a, b) or (a, b, channel) pairs to drop (terrain, obstacles), in
    either order.
    """
    nodes = sorted(nodes, key=lambda n: n.id)
    _validate_nodes(nodes)
    prop = propagation or PropagationModel()
    overrides = {_norm_pair(k): _odds(k, ov) for k, ov in (overrides or {}).items()}
    deletions = {_norm_pair(d) for d in (deletions or ())}

    by_id = {n.id: n for n in nodes}
    links: list[Link] = []
    linked = set()                     # (a, b, channel) already given a link
    adjacency = {n.id: [] for n in nodes}

    ids = [n.id for n in nodes]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            na, nb = by_id[a], by_id[b]
            d = _distance(na, nb)
            for ra in na.radios:
                for rb in nb.radios:
                    if ra.channel != rb.channel:
                        continue
                    key3 = (a, b, ra.channel)
                    if (a, b) in deletions or key3 in deletions:
                        continue
                    if key3 in linked:
                        continue
                    if d > min(ra.tx_range, rb.tx_range):
                        continue
                    p = prop.delivery_probability(d, min(ra.tx_range, rb.tx_range))
                    p_fwd, p_rev = overrides.get(key3, overrides.get((a, b), (p, p)))
                    if not (0.0 <= p_fwd <= 1.0 and 0.0 <= p_rev <= 1.0):
                        raise ValidationError(
                            [f"link {a}<->{b} ch{ra.channel}: probability outside [0,1]"])
                    idx = len(links)
                    links.append(Link(idx, a, b, ra.channel, d, p_fwd, p_rev,
                                      min(ra.nominal_rate, rb.nominal_rate)))
                    linked.add(key3)
                    adjacency[a].append((b, idx, True))
                    adjacency[b].append((a, idx, False))

    # (node, channel) -> carrier-sense range; channel -> its nodes, by id
    cs_range: dict[tuple[int, int], float] = {}
    for n in nodes:
        for r in n.radios:
            key = (n.id, r.channel)
            cs_range[key] = max(cs_range.get(key, 0.0), r.cs_range)
    on_channel: dict[int, list[NodeSpec]] = {}
    for nid, channel in cs_range:
        on_channel.setdefault(channel, []).append(by_id[nid])
    # (node, channel) -> indices of the links it is an end of
    incident: dict[tuple[int, int], list[int]] = {key: [] for key in cs_range}
    for link in links:
        incident[(link.src, link.channel)].append(link.index)
        incident[(link.dst, link.channel)].append(link.index)
    sensed, domains = [], []
    for link in links:
        ends = [(by_id[e], cs_range[(e, link.channel)]) for e in (link.src, link.dst)]
        heard = [n.id for n in on_channel[link.channel]
                 if any(_distance(n, end) <= cs for end, cs in ends)]
        sensed.append(heard)
        domains.append(sorted(set().union(*[incident[(nid, link.channel)]
                                            for nid in heard])))
    return Topology(by_id, links, adjacency, sensed, domains)


def _odds(key, ov) -> tuple[float, float]:
    """An override as (p low -> high, p high -> low), as links store it."""
    fwd, rev = (ov, ov) if isinstance(ov, (int, float)) else ov
    return (float(fwd), float(rev)) if key[0] < key[1] else (float(rev), float(fwd))


def _norm_pair(d):
    if len(d) == 3:
        a, b, ch = d
        return (min(a, b), max(a, b), ch)
    a, b = d
    return (min(a, b), max(a, b))


def contention_domain(topo: Topology, link: Link) -> set[Link]:
    """All links sharing airtime with the given one (itself included)."""
    if link.index >= len(topo.links) or topo.links[link.index] is not link:
        raise UnknownLink(f"link {link.src}<->{link.dst} not part of this topology")
    return {topo.links[i] for i in topo.domains[link.index]}
