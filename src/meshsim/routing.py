"""Proactive link-state routing with resilient route maintenance.

Each node runs HELLO neighbor sensing (HELLOs double as loss probes), full
topology-control flooding with per-originator sequence numbers, gateway
(HNA) announcements from server nodes, metric-weighted shortest paths with
a deterministic tiebreak, switch hysteresis against route oscillation, and
a route maintainer that distinguishes transient link trouble (suppress and
reroute locally) from genuine link death (flood a topology change).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush

from . import metrics
from .errors import check_ranges
from .metrics import ElpParams


@dataclass
class RoutingParams:
    hello_interval: float = 1.0
    tc_interval: float = 5.0
    hold_multiplier: int = 3          # entry lifetime = multiplier * interval
    hysteresis: float = 0.1
    recompute_interval: float = 1.0
    maintenance: bool = True          # route maintainer on/off (off = AODV-style)
    long_term_threshold: float = 0.7  # score gate for suppression vs link-down
    suppress_duration: float = 10.0
    max_suppressions: int = 3         # strikes within strike_window force down
    strike_window: float = 60.0
    control_bits: int = 2048          # HELLO/TC/HNA frame size (256 bytes)
    long_term_alpha: float = 0.05     # slow EWMA feeding the long-term score
    metric: str = "elp"               # elp | hop_count

    def __post_init__(self):
        check_ranges(self, positive=("hello_interval", "tc_interval", "hold_multiplier",
                                     "recompute_interval", "control_bits"),
                     nonnegative=("suppress_duration",))


@dataclass(slots=True)
class Route:
    dest: int
    next_hop: int
    path_cost: float
    path: tuple[int, ...]
    # The neighbour record _recompute bound this route to; its link_idx and
    # forward are the first hop's link and transmit direction. Every removal
    # from Router.neighbors goes through _drop_neighbor_link, which
    # recomputes before any route_to runs, so for a route in Router.table
    # this is always neighbors[next_hop][nl.link_idx]. A record is dropped
    # only once its suppression is over, and a dropped record is never
    # suppressed again, so a route still bound to one reads as not suppressed.
    nl: NeighborLink | None = field(default=None, compare=False, repr=False)


#: the links of a node that advertises none; shared, never written
_NO_LINKS: dict[int, float] = {}


def compute_routes(graph: dict[int, dict[int, float]], source: int) -> dict[int, Route]:
    """Shortest-path tree over an advertised-cost graph.

    Deterministic tiebreak: lower cost, then fewer hops, then lowest
    lexicographic node-id path. graph[u][v] is the directed cost u -> v.
    The table lists destinations in the order they settle.

    Labels (cost, hops, path) are totally ordered and distinct per path, so
    the heap pops them in the same order whatever order they were pushed
    in, and a label no better than one already pushed for its node would
    only be popped after it and skipped: it is never pushed. Costs are
    finite, so a label that loses on cost or hops is dropped before its
    path tuple is built.
    """
    best = {}
    best_get = best.get
    settled = set()
    heap = [(0.0, 0, (source,))]
    table = {}
    while heap:
        cost, hops, path = heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u != source:
            table[u] = Route(u, path[1], cost, path)
        n = hops + 1
        for v, c in graph.get(u, _NO_LINKS).items():
            if v in settled:
                continue
            new = cost + c
            old = best_get(v)
            if old is not None and (new > old[0] or (new == old[0] and n > old[1])):
                continue                       # loses before its path is built
            cand = (new, n, path + (v,))
            if old is None or cand < old:
                best[v] = cand
                heappush(heap, cand)
    return table


def maybe_switch_route(current: Route | None, candidate: Route | None,
                       h: float) -> bool:
    """True if the candidate should replace the incumbent route."""
    if candidate is None:
        return False
    if current is None:
        return True
    return candidate.path_cost < current.path_cost * (1.0 - h)


@dataclass(slots=True)
class NeighborLink:
    """Directional bookkeeping for one link to one neighbor."""

    link_idx: int
    forward: bool                     # our transmit direction on the link
    capacity: float
    d_f: float = 1.0                  # delivery ratio us -> neighbor, as reported
    d_r: float = 1.0                  # delivery ratio neighbor -> us, EWMA of HELLOs
    last_heard: float = -1.0
    heard_since_tick: bool = False
    reported: bool = False            # neighbor has reported hearing us
    long_term_score: float = 1.0
    suppressed_until: float = -1.0
    suppression_times: deque = field(default_factory=deque)


class Router:
    """One node's routing agent, driven entirely by engine events."""

    def __init__(self, node_id, medium, params: RoutingParams,
                 elp_params: ElpParams | None = None):
        self.node_id = node_id
        self.medium = medium
        self.engine = medium.engine
        self.params = params
        self.elp = elp_params or ElpParams()
        self.is_server = medium.topo.nodes[node_id].is_server
        self.peers: dict[int, "Router"] = {}     # filled by wire_network
        # neighbor node -> {link_idx: NeighborLink}
        self.neighbors: dict[int, dict[int, NeighborLink]] = {}
        self.db: dict[int, dict] = {}            # origin -> {expires, links}
        # kind -> origin -> newest seq taken, for "tc" and "hna" alike
        self.seqs: dict[str, dict[int, int]] = {"tc": {}, "hna": {}}
        # kind -> origin -> (seq, t_arrive) of the best flood copy scheduled
        # to reach us: the newest seq, and of that seq the earliest arrival
        self.in_flight: dict[str, dict[int, tuple[int, float]]] = {"tc": {}, "hna": {}}
        self._seq = {"tc": 0, "hna": 0}          # our last originated seq per type
        self.table: dict[int, Route] = {}
        self.dirty = True
        self.events: list[tuple[float, str, str]] = []

    # -- lifecycle -------------------------------------------------------

    def start(self, phase: float = 0.0):
        p = self.params
        self.engine.schedule(self.engine.now + phase + 1e-4, self._hello_tick)
        self.engine.schedule(self.engine.now + phase + p.hello_interval / 2,
                             self._tc_tick)
        self.engine.schedule(self.engine.now + phase + p.recompute_interval,
                             self._recompute_tick)

    def log(self, kind: str, info: str = ""):
        self.events.append((self.engine.now, kind, info))

    # -- HELLO / neighbor sensing ---------------------------------------

    def _hello_tick(self):
        now = self.engine.now
        p = self.params
        alpha = self.elp.ewma_alpha
        hold = p.hold_multiplier * p.hello_interval
        # each silent link's action touches only its record: list them, then act
        ratios, silent = {}, []                # ratios: measured neighbor -> us
        for nbr_id, links in self.neighbors.items():
            for li, nl in links.items():
                x = 1.0 if nl.heard_since_tick else 0.0
                ratios[li] = nl.d_r = (1.0 - alpha) * nl.d_r + alpha * x
                nl.heard_since_tick = False
                if (nl.last_heard >= 0 and now - nl.last_heard > hold
                        and now >= nl.suppressed_until):
                    silent.append((nbr_id, nl))
        for nbr_id, nl in silent:
            if self._troubled(nbr_id, nl, now, "missed hellos", "neighbor_lost"):
                del ratios[nl.link_idx]
        msg = {"type": "hello", "origin": self.node_id, "ratios": ratios}
        self.medium.broadcast(self.node_id, p.control_bits,
                              partial(_deliver_hello, self.peers, msg))
        self.engine.schedule(now + p.hello_interval, self._hello_tick)

    def process_hello(self, msg, link_idx: int, t: float):
        origin = msg["origin"]
        links = self.neighbors.get(origin)
        if links is None:
            links = self.neighbors[origin] = {}
        nl = links.get(link_idx)
        if nl is None:
            link = self.medium.topo.links[link_idx]
            forward = link.src == self.node_id     # our data direction on this link
            nl = links[link_idx] = NeighborLink(link_idx, forward, link.capacity)
            self.dirty = True
        nl.last_heard = t
        nl.heard_since_tick = True
        reported = msg["ratios"].get(link_idx)
        if reported is not None:
            if not nl.reported:
                self.dirty = True
            nl.reported = True
            nl.d_f = reported                  # our -> neighbor, measured there
            a = self.params.long_term_alpha
            nl.long_term_score = (1 - a) * nl.long_term_score + a * reported

    def _drop_neighbor_link(self, nbr_id, link_idx, now, reason):
        del self.neighbors[nbr_id][link_idx]
        if not self.neighbors[nbr_id]:
            del self.neighbors[nbr_id]
        self.log("link_down", f"nbr={nbr_id} link={link_idx} {reason}")
        self.flood_tc(reason)
        self._recompute(now)

    # -- link costs ------------------------------------------------------

    #: routing-time cost multiplier for suppressed links: alternatives win,
    #: but a cut link keeps carrying traffic rather than blackholing
    SUPPRESS_PENALTY = 4.0

    def _local_links(self, now, advertise=False):
        """{neighbor: (cost, NeighborLink)} of its cheapest usable link.

        With advertise=True, suppressed links stay in at plain cost so the
        maintainer never leaks a topology change; for route computation
        they carry a penalty instead. A link's cost is 1 under hop_count,
        else metrics.elp_link of its ratios and its busy fraction.
        """
        p = self.params
        hold = p.hold_multiplier * p.hello_interval
        hop_count, elp = p.metric == "hop_count", self.elp
        busy_fraction = self.medium.busy_fraction
        neighbors = self.neighbors
        out = {}
        for nbr_id in sorted(neighbors):
            links = neighbors[nbr_id]
            best = None
            for nl in (links.values() if len(links) == 1
                       else map(links.__getitem__, sorted(links))):
                suppressed = now < nl.suppressed_until
                if not suppressed and not (nl.reported and nl.last_heard >= 0
                                           and now - nl.last_heard <= hold):
                    continue                   # neither alive nor held
                if hop_count:
                    cost = 1.0
                else:
                    cost = metrics.elp_link(nl.d_f, nl.d_r,
                                            busy_fraction(nl.link_idx),
                                            nl.capacity, elp)
                    if cost is None:
                        continue
                if suppressed and not advertise:
                    cost *= self.SUPPRESS_PENALTY
                if best is None or cost < best[0]:
                    best = (cost, nl)
            if best is not None:
                out[nbr_id] = best
        return out

    # -- TC / HNA flooding ----------------------------------------------

    def _tc_tick(self):
        self.flood_tc("periodic")
        if self.is_server:
            self._originate("hna")
        self.engine.schedule(self.engine.now + self.params.tc_interval,
                             self._tc_tick)

    def flood_tc(self, reason):
        links = {nbr: cost for nbr, (cost, _nl)
                 in self._local_links(self.engine.now, advertise=True).items()}
        self.log("tc_flood", reason)
        self._originate("tc", links=links)

    def _originate(self, kind, **body):
        self._seq[kind] += 1
        self._broadcast_ctrl({"type": kind, "origin": self.node_id,
                              "seq": self._seq[kind], **body})

    def _broadcast_ctrl(self, msg):
        """Send a flood copy, scheduled only for the neighbours that take it."""
        peers = self.peers
        self.medium.broadcast(
            self.node_id, self.params.control_bits,
            partial(_deliver_ctrl, peers, msg),
            partial(takes_copy, peers, msg["type"], msg["origin"], msg["seq"]))

    def receive_control(self, msg, t):
        """Take a TC or HNA flood newer than what we hold; re-flood it once."""
        kind, origin, seq = msg["type"], msg["origin"], msg["seq"]
        if origin == self.node_id or seq <= self.seqs[kind].get(origin, 0):
            return                             # our own, or not newer
        self.seqs[kind][origin] = seq
        if kind == "tc":
            expires = t + self.params.hold_multiplier * self.params.tc_interval
            self.db[origin] = {"expires": expires, "links": msg["links"]}
            self.dirty = True
        self._broadcast_ctrl(msg)

    # -- route computation ----------------------------------------------

    def _graph(self, now, local) -> dict[int, dict[int, float]]:
        db = self.db
        graph = {o: e["links"] for o, e in db.items() if e["expires"] >= now}
        graph[self.node_id] = {nbr: cost for nbr, (cost, _nl) in local.items()}
        return graph

    def _recompute_tick(self):
        now = self.engine.now
        if self.dirty:
            self._recompute(now)
        self.engine.schedule(now + self.params.recompute_interval,
                             self._recompute_tick)

    def _recompute(self, now):
        self.dirty = False
        local = self._local_links(now)
        graph = self._graph(now, local)
        fresh = compute_routes(graph, self.node_id)
        old, table = self.table, {}
        h = self.params.hysteresis
        for dest, cand in fresh.items():
            # bind cand to its first hop's link; graph[self.node_id] is local's
            cand.nl = local[cand.next_hop][1]
            table[dest] = cand
            cur = old.get(dest)
            if cur is None:
                continue
            # the incumbent stays valid while its first link is not suppressed
            # and every hop of its path is an edge of graph, as cand's hops are
            cur_valid = now >= cur.nl.suppressed_until
            if cur_valid and cand.path == cur.path:
                continue
            if cur_valid:
                path = cur.path
                prev = path[0]
                for hop in path[1:]:
                    if hop not in graph.get(prev, _NO_LINKS):
                        cur_valid = False
                        break
                    prev = hop
            if not cur_valid:
                self.log("route_switch", f"dest={dest} invalidated")
            elif maybe_switch_route(cur, cand, h):
                self.log("route_switch", f"dest={dest} {cur.path}->{cand.path}")
            else:
                # keep the incumbent; refresh its next-hop link binding
                cur.nl = local[cur.next_hop][1]
                table[dest] = cur
        for dest in old:
            if dest not in table:
                self.log("route_switch", f"dest={dest} lost")
        self.table = table

    def route_to(self, dest: int) -> Route | None:
        r = self.table.get(dest)
        if r is None:
            if self.dirty:
                self._recompute(self.engine.now)
                r = self.table.get(dest)
            return r
        if self.engine.now < r.nl.suppressed_until:
            self._recompute(self.engine.now)
            r = self.table.get(dest)
        return r

    # -- route maintenance ----------------------------------------------

    def _troubled(self, nbr_id, nl: NeighborLink, now, why, reason) -> bool:
        """Suppress a troubled link if the maintainer is on, its long-term
        score reaches the threshold and its strike window has room; else
        drop it. True if it was dropped."""
        p = self.params
        if (p.maintenance and nl.long_term_score >= p.long_term_threshold
                and self._suppression_allowed(nl, now)):
            self._suppress(nbr_id, nl, now, why)
            return False
        self._drop_neighbor_link(nbr_id, nl.link_idx, now, reason)
        return True

    def _suppression_allowed(self, nl: NeighborLink, now) -> bool:
        w = self.params.strike_window
        while nl.suppression_times and now - nl.suppression_times[0] > w:
            nl.suppression_times.popleft()
        return len(nl.suppression_times) < self.params.max_suppressions

    def _suppress(self, nbr_id, nl: NeighborLink, now, why):
        nl.suppressed_until = now + self.params.suppress_duration
        nl.suppression_times.append(now)
        self.log("suppress", f"nbr={nbr_id} link={nl.link_idx} ({why})")
        self._recompute(now)
        self.engine.schedule(nl.suppressed_until + 1e-6,
                             lambda: self._unsuppress(nbr_id, nl))

    def _unsuppress(self, nbr_id, nl: NeighborLink):
        now = self.engine.now
        if now < nl.suppressed_until:
            return
        if self.neighbors.get(nbr_id, {}).get(nl.link_idx) is not nl:
            return                             # dropped while suppressed
        self.log("unsuppress", f"nbr={nbr_id} link={nl.link_idx}")
        hold = self.params.hold_multiplier * self.params.hello_interval
        if nl.last_heard < 0 or now - nl.last_heard > hold:
            # the grace period is over and the link is still silent: dead
            self._drop_neighbor_link(nbr_id, nl.link_idx, now,
                                     "suppression_expired")
        else:
            self._recompute(now)

    def handle_tx_failure(self, neighbor: int, link_idx: int, t: float):
        """MAC gave up a frame toward a neighbor after retry_limit attempts."""
        p = self.params
        nl = self.neighbors.get(neighbor, {}).get(link_idx)
        if nl is None:
            return
        a = p.long_term_alpha
        nl.long_term_score = (1 - a) * nl.long_term_score
        on_route = any(r.next_hop == neighbor for r in self.table.values())
        if not on_route:
            self.log("tx_failure", f"nbr={neighbor} link={link_idx} off-route")
            return
        if t >= nl.suppressed_until:           # never suppressed if maintenance is off
            self._troubled(neighbor, nl, t, "tx failure burst", "tx_failure")


# a HELLO's or a flood copy's arrivals at one instant, in fan-out order
def _deliver_hello(peers, msg, receivers, t):
    for nbr, link_idx in receivers:
        peers[nbr].process_hello(msg, link_idx, t)


def _deliver_ctrl(peers, msg, receivers, t):
    for nbr, _link_idx in receivers:
        peers[nbr].receive_control(msg, t)


def takes_copy(peers, kind, origin, seq, reached):
    """The entries (nbr, link_idx, t_arrive) of reached whose router
    peers[nbr] takes a flood copy sent now to reach it at t_arrive, judged
    in fan-out order, so of a neighbour's two links the first goes first.

    A router drops a copy on arrival if it is its origin or holds its seq
    or a newer one: seqs only grow from 1 and held ones are never removed,
    so that is certain at send time. So is a copy of this seq or a newer
    one already scheduled to reach it no later: a scheduled arrival is
    never cancelled, and the heap pops a time tie in scheduling order.
    in_flight records the best such copy; every copy taken here is
    scheduled, and receive_control takes it when it lands.
    """
    taken = []
    for entry in reached:
        nbr, _link_idx, t_arrive = entry
        rt = peers[nbr]                        # the router of node nbr
        if origin == nbr or seq <= rt.seqs[kind].get(origin, 0):
            continue
        flight = rt.in_flight[kind]
        best_seq, best_t = flight.get(origin, (0, 0.0))    # seqs start at 1
        if best_seq >= seq and best_t <= t_arrive:
            continue                           # beaten in flight
        if best_seq <= seq:                    # else earlier but older: keep best
            flight[origin] = (seq, t_arrive)
        taken.append(entry)
    return taken


def wire_network(routers: dict[int, Router], medium):
    """Connect router instances and the MAC failure notification."""
    for r in routers.values():
        r.peers = routers

    def on_fail(src, dst, link_idx, t):
        rt = routers.get(src)
        if rt is not None:
            rt.handle_tx_failure(dst, link_idx, t)

    medium.on_tx_failure = on_fail
