"""A host-speed reference that runs interleaved with the measured code.

The benchmark's host is a small VM on shared hardware whose speed swings by
up to 1.6x within a second and drifts by tens of percent over minutes; a
reference timed before or after a job does not track it. So the reference
runs *during* the job: every ``PERIOD_S`` of wall time an interval timer
(SIGALRM) interrupts meshsim between bytecodes and runs one slice of a fixed
pure-Python discrete-event loop (heap, dicts, small objects: the same kind of
work meshsim does). The slices sample the host's speed all through the span
being measured, and their mean duration over that span gives its speed.

A span is then reported in *reference seconds*::

    scaled_s = (span_s - slice_busy_s) * NOMINAL_SLICE_S / mean_slice_s

that is, the span without the slices, rescaled to a host on which one slice
takes ``NOMINAL_SLICE_S``. A change to meshsim moves ``span_s`` and not the
slices, so it shows in full; a change in host speed moves both. The slices
take about 1.7 ms in every 25 ms (~7% of a span) on both sides of any
comparison.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

PERIOD_S = 0.025          # wall time between slices
SLICE_EVENTS = 1000       # events per slice, 1.3-2.5 ms on a 2 GHz x86-64 vCPU
NOMINAL_SLICE_S = 1.7e-3  # slice time that defines one reference second


class _Packet:
    __slots__ = ("dst", "hops", "born")

    def __init__(self, dst, born):
        self.dst, self.hops, self.born = dst, 0, born


class _Node:
    def __init__(self, nid, loop):
        self.nid, self.loop, self.routes = nid, loop, {}

    def receive(self, pkt):
        loop = self.loop
        if pkt.dst == self.nid:
            loop.delays.append(loop.now - pkt.born)
            return
        pkt.hops += 1
        nxt = self.routes[pkt.dst]
        loop.schedule(loop.rng.uniform(1e-4, 1e-3), loop.nodes[nxt].receive, pkt)

    def tick(self):
        loop = self.loop
        self.receive(_Packet(loop.rng.randrange(len(loop.nodes)), loop.now))
        loop.schedule(0.02, self.tick)


class _Loop:
    """22 nodes on a line, each sending a packet every 20 ms, routed hop by hop."""

    def __init__(self, n=22):
        self.rng = random.Random(1)
        self.now, self.seq, self.queue, self.delays = 0.0, 0, [], []
        self.nodes = [_Node(i, self) for i in range(n)]
        for a in self.nodes:
            for b in range(n):
                step = 1 if b > a.nid else -1
                a.routes[b] = b if abs(b - a.nid) < 3 else a.nid + 2 * step
            self.schedule(self.rng.random() * 0.02, a.tick)

    def schedule(self, delay, fn, *args):
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, fn, args))

    def run(self, events):
        queue, pop = self.queue, heapq.heappop
        for _ in range(events):
            self.now, _seq, fn, args = pop(queue)
            fn(*args)


class RefClock:
    """Interleaves reference slices with the running process."""

    def __init__(self):
        self.busy_s = 0.0
        self.slices = 0
        self._loop = _Loop()

    def _slice(self, _signum, _frame):
        t0 = time.perf_counter()
        self._loop.run(SLICE_EVENTS)
        if len(self._loop.delays) > 20_000:   # keep the working set bounded
            self._loop = _Loop()
        self.busy_s += time.perf_counter() - t0
        self.slices += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def read(self):
        """(busy_s, slices) so far; subtract two readings to get a span's."""
        return self.busy_s, self.slices


def scaled(span_s, busy_s, slices):
    """A span in reference seconds; the raw span if no slice fell in it."""
    if slices == 0:
        return span_s
    return (span_s - busy_s) * NOMINAL_SLICE_S * slices / busy_s
