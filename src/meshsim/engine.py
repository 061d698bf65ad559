"""Deterministic discrete-event core and MAC-level frame transmission.

The engine is a plain (time, seq) heap: identical scenario + seed gives an
identical event trace. The medium models 802.11-style unicast with a retry
limit of 8 total attempts (one try plus seven retries) and a contention-
dependent access delay instead of slot-level CSMA/CA: each attempt waits an
exponential access delay whose mean scales with 1/(1 - busy fraction) of the
link's contention domain, plus a linear per-retry backoff penalty.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import count
from math import log
from typing import Callable, NamedTuple

from .errors import PastTime, UnknownLink, check_ranges
from .metrics import BUSY_MAX
from .topology import Topology


def rng_stream(seed: int, label: str) -> random.Random:
    """Independent deterministic random stream per (seed, label).

    Seeds a Mersenne Twister from a SHA-256 digest so streams are stable
    across platforms and uncorrelated across labels.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


@dataclass
class EngineStats:
    events_processed: int = 0
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0


class Engine:
    """Virtual clock + event queue. Single-threaded per scenario replica.

    Heap entries are plain (time, seq, fn) tuples; seq breaks time ties in
    scheduling order, and fn is called with no arguments. One event may do
    the work of several that would run back to back, in two places.
    Medium.broadcast schedules one partial(deliver, receivers, t_arrive)
    per arrival instant, and an event a receiver's handler schedules at that
    time still runs after all of them. services.FlowRunner ticks every leg
    of one stream in one event, with the one exception its docstring names.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], object]]] = []
        self._seq = count()
        self.stats = EngineStats()
        self._streams: dict[str, random.Random] = {}

    def rng(self, label: str) -> random.Random:
        try:
            return self._streams[label]
        except KeyError:
            r = self._streams[label] = rng_stream(self.seed, label)
            return r

    def schedule(self, time: float, fn) -> None:
        if time < self.now:
            raise PastTime(f"schedule at {time} < now {self.now}")
        heappush(self._heap, (time, next(self._seq), fn))

    def run_until(self, t_end: float) -> EngineStats:
        if t_end < self.now:
            raise PastTime(f"run_until {t_end} < now {self.now}")
        heap = self._heap
        n = 0
        try:
            while heap and heap[0][0] <= t_end:
                self.now, _seq, fn = heappop(heap)
                n += 1
                fn()
        finally:
            self.stats.events_processed += n
        self.now = t_end
        return self.stats


_new_tuple = tuple.__new__

#: seconds a read busy fraction is reused: busy moves on window timescales
BUSY_CACHE_S = 0.05


class TransmitOutcome(NamedTuple):
    delivered: bool
    attempts: int             # total attempts, 1..retry_limit
    completion_time: float
    airtime: float            # channel time consumed by all attempts


@dataclass
class MacParams:
    retry_limit: int = 8              # total attempts = 1 try + 7 retries
    base_access_delay: float = 5e-4   # seconds, mean at idle channel
    queue_limit: int = 50             # frames per directed link
    busy_window: float = 5.0          # seconds, sliding measurement window
    header_bits: int = 320            # per-frame overhead added by the transport

    def __post_init__(self):
        check_ranges(self, positive=("retry_limit", "base_access_delay", "busy_window"),
                     nonnegative=("queue_limit", "header_bits"))


class Medium:
    """Frame transmission over topology links with airtime accounting.

    Transmissions are attributed to (transmitter node, channel) slots; the
    busy fraction seen by a link sums recent airtime of every slot within
    carrier-sense range of its endpoints, over a bucketed sliding window.
    Per-direction state is indexed by directed link, 2 * link index for the
    forward direction and 2 * link index + 1 for the reverse one. Delivery
    odds are per-run state too: an outage zeroes them here and leaves the
    shared Topology untouched.

    Two tables built once spare the hot paths their attribute lookups:
    _capacity lists each link's capacity by link index, and _fanout maps a
    node to its broadcast fan-out list, one (neighbor, link index, directed
    index, capacity, slot) entry per adjacent link in adjacency order, where
    slot is the transmitter slot that books the airtime on the first entry
    of each channel and None on the others.

    Links that sense equal slot lists share a domain and its airtime sum,
    memoized with the _epoch that every booking and bucket rotation bumps:
    busy_fraction reuses it, the float a re-sum gives, while _epoch holds.
    A link's busy fraction is reused for BUSY_CACHE_S; transmit and the
    routers read it only through busy_fraction. Routers, the transport and
    the service stack read the run's topology and engine from here.
    """

    BUCKETS = 5

    def __init__(self, topo: Topology, engine: Engine, params: MacParams | None = None):
        self.topo = topo
        self.engine = engine
        self.params = params or MacParams()
        self._random = engine.rng("mac").random
        # enumerate (node, channel) transmitter slots
        self._slot_of: dict[tuple[int, int], int] = {}
        for nid in sorted(topo.nodes):
            for r in topo.nodes[nid].radios:
                self._slot_of.setdefault((nid, r.channel), len(self._slot_of))
        n_slots = len(self._slot_of)
        self._bucket_air = [[0.0] * n_slots for _ in range(self.BUCKETS)]
        self._win_air = [0.0] * n_slots                 # sum over buckets
        self._bucket = 0
        self._cur_air = self._bucket_air[0]             # current bucket
        self._bucket_dt = self.params.busy_window / self.BUCKETS
        # per link: its domain's [epoch, airtime sum, sensed slots], shared
        domains: dict[tuple[int, ...], list] = {}
        self._domain = []
        for link, sensed in zip(topo.links, topo.sensed):
            slots = tuple(self._slot_of[(nid, link.channel)] for nid in sensed)
            self._domain.append(domains.setdefault(slots, [-1, 0.0, slots]))
        self._epoch = 0
        n = len(topo.links)
        self._busy_cache = [0.0] * n
        self._busy_cache_t = [-1.0] * n
        # per directed link: transmitter slot, delivery odds, serialization,
        # queue length; per link: outages still open
        self._tx_slot = []
        self._p = []
        for link in topo.links:
            self._tx_slot.append(self._slot_of[(link.src, link.channel)])
            self._tx_slot.append(self._slot_of[(link.dst, link.channel)])
            self._p.append(link.p_deliver_fwd)
            self._p.append(link.p_deliver_rev)
        self._capacity = [link.capacity for link in topo.links]
        self._fanout: dict[int, list[tuple[int, int, int, float, int | None]]] = {}
        for nid, adjacent in topo.adjacency.items():
            entries, channels = [], set()
            for nbr, link_idx, fwd in adjacent:
                link = topo.links[link_idx]
                d = 2 * link_idx + (not fwd)
                slot = None
                if link.channel not in channels:
                    channels.add(link.channel)
                    slot = self._tx_slot[d]
                entries.append((nbr, link_idx, d, link.capacity, slot))
            self._fanout[nid] = entries
        self._busy_until = [0.0] * (2 * n)
        self._pending = [0] * (2 * n)
        self._cuts = [0] * n
        self.on_tx_failure: Callable | None = None      # (src, dst, link_idx, t)
        engine.schedule(engine.now + self._bucket_dt, self._rotate)

    def _rotate(self):
        self._epoch += 1
        self._bucket = (self._bucket + 1) % self.BUCKETS
        old = self._cur_air = self._bucket_air[self._bucket]
        win = self._win_air
        for i, v in enumerate(old):
            if v:
                win[i] -= v
                old[i] = 0.0
        self.engine.schedule(self.engine.now + self._bucket_dt, self._rotate)

    def busy_fraction(self, link_idx: int) -> float:
        """Measured busy fraction of the link's contention domain, clamped."""
        now = self.engine.now
        if now - self._busy_cache_t[link_idx] < BUSY_CACHE_S:
            return self._busy_cache[link_idx]
        memo = self._domain[link_idx]
        if memo[0] != self._epoch:
            win = self._win_air
            air = 0.0
            for s in memo[2]:
                air += win[s]
            memo[0], memo[1] = self._epoch, air
        b = memo[1] / self.params.busy_window
        if b > BUSY_MAX:
            b = BUSY_MAX
        self._busy_cache[link_idx] = b
        self._busy_cache_t[link_idx] = now
        return b

    def transmit(self, frame_size: float, link_idx: int, forward: bool,
                 t_start: float) -> TransmitOutcome:
        """Bernoulli attempt sequence on one directed link, no queueing."""
        capacity = self._capacity
        if link_idx < 0 or link_idx >= len(capacity):
            raise UnknownLink(f"link index {link_idx}")
        if frame_size <= 0:
            raise ValueError("frame_size must be > 0")
        d = 2 * link_idx + (not forward)
        p = self._p[d]
        air = frame_size / capacity[link_idx]
        b = self.busy_fraction(link_idx)
        params = self.params
        base = params.base_access_delay
        rate = (1.0 - b) / base
        random = self._random
        limit = params.retry_limit
        t = t_start
        airtime = 0.0
        attempts = 0
        # the access delay is random.expovariate(rate), drawn inline; a while
        # loop spares building a range per frame
        while True:
            t += -log(1.0 - random()) / rate + attempts * base + air
            airtime += air
            attempts += 1
            if random() < p:
                delivered = True
                break
            if attempts >= limit:
                delivered = False
                break
        slot = self._tx_slot[d]
        self._cur_air[slot] += airtime
        self._win_air[slot] += airtime
        self._epoch += 1
        # tuple.__new__ skips the namedtuple's Python-level __new__
        return _new_tuple(TransmitOutcome, (delivered, attempts, t, airtime))

    def send_frame(self, link_idx: int, forward: bool, bits: float,
                   on_delivered=None):
        """Queue a frame on a directed link; on_delivered(t) fires on arrival.

        A frame is dropped at a full queue (tail drop) or after retry_limit
        failed attempts; the latter raises the routing failure notification.
        """
        d = 2 * link_idx + (not forward)
        engine = self.engine
        pending = self._pending
        if pending[d] >= self.params.queue_limit:
            engine.stats.frames_dropped += 1
            return
        start = self._busy_until[d]
        now = engine.now
        if start < now:
            start = now
        delivered, _attempts, t_done, _air = self.transmit(bits, link_idx,
                                                           forward, start)
        self._busy_until[d] = t_done
        pending[d] += 1
        engine.stats.frames_sent += 1
        if delivered:
            done = partial(self._delivered, d, on_delivered, t_done)
        else:
            done = partial(self._failed, d, t_done)
        engine.schedule(t_done, done)

    def _delivered(self, d, on_delivered, t_done):
        self._pending[d] -= 1
        self.engine.stats.frames_delivered += 1
        if on_delivered is not None:
            on_delivered(t_done)

    def _failed(self, d, t_done):
        self._pending[d] -= 1
        self.engine.stats.frames_dropped += 1
        if self.on_tx_failure is not None:
            link_idx = d >> 1
            link = self.topo.links[link_idx]
            forward = not d & 1
            self.on_tx_failure(link.transmitter(forward), link.receiver(forward),
                               link_idx, t_done)

    def broadcast(self, node_id: int, bits: float, deliver, wanted=None):
        """One unreliable transmission per radio; no retries, no ACKs.

        Airtime, frame counts and delivery draws run per fan-out entry, in
        fan-out order. The entries whose draw passes, (neighbor_id,
        link_idx, t_arrive) in fan-out order, go in one list to wanted, if
        given, which returns those to deliver; airtime and draws do not
        depend on it. They are scheduled as one event per distinct arrival
        instant, partial(deliver, receivers, t_arrive), receivers being the
        instant's (neighbor_id, link_idx) pairs in fan-out order. That is
        exact: one event per arrival would have taken consecutive seqs at
        one time, so nothing could run between them, and whatever a
        receiver's handler schedules gets a later seq either way.
        """
        engine = self.engine
        now = engine.now
        random = self._random
        odds = self._p
        cur_air, win_air = self._cur_air, self._win_air
        stats = engine.stats
        self._epoch += 1
        reached = []
        for nbr, link_idx, d, capacity, slot in self._fanout.get(node_id, ()):
            air = bits / capacity
            if slot is not None:
                cur_air[slot] += air
                win_air[slot] += air
                stats.frames_sent += 1
            if random() < odds[d]:
                reached.append((nbr, link_idx, now + air))
        if wanted is not None:
            reached = wanted(reached)
        arrivals: dict[float, list[tuple[int, int]]] = {}
        for nbr, link_idx, t_arrive in reached:
            arrivals.setdefault(t_arrive, []).append((nbr, link_idx))
        for t_arrive, receivers in arrivals.items():
            engine.schedule(t_arrive, partial(deliver, receivers, t_arrive))

    def outage(self, a: int, b: int, duration: float):
        """Cut every link between nodes a and b, both ways, for duration.

        Cuts on one link may overlap; its built odds return when the last
        open cut closes.
        """
        cut = [idx for nbr, idx, _fwd in self.topo.adjacency.get(a, ()) if nbr == b]
        for idx in cut:
            self._cuts[idx] += 1
            self._p[2 * idx] = self._p[2 * idx + 1] = 0.0
        self.engine.schedule(self.engine.now + duration,
                             partial(self._restore, cut))

    def _restore(self, cut):
        for idx in cut:
            self._cuts[idx] -= 1
            if not self._cuts[idx]:
                link = self.topo.links[idx]
                self._p[2 * idx] = link.p_deliver_fwd
                self._p[2 * idx + 1] = link.p_deliver_rev

