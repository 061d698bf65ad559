import dataclasses
import math

import pytest

from meshsim.engine import Engine, MacParams, Medium, rng_stream
from meshsim.metrics import BUSY_MAX
from meshsim.errors import PastTime, UnknownLink
from meshsim.topology import NodeSpec, RadioSpec, build_topology

from conftest import make_nodes, two_node_topology


def test_schedule_at_now_runs_before_later_events():
    eng = Engine(0)
    order = []
    eng.schedule(1.0, lambda: order.append("later"))
    eng.schedule(0.0, lambda: order.append("now"))
    eng.run_until(2.0)
    assert order == ["now", "later"]


def test_fifo_among_equal_times():
    eng = Engine(0)
    order = []
    for i in range(5):
        eng.schedule(1.0, lambda i=i: order.append(i))
    eng.run_until(1.0)
    assert order == [0, 1, 2, 3, 4]


def test_schedule_in_the_past_raises():
    eng = Engine(0)
    eng.run_until(5.0)
    with pytest.raises(PastTime):
        eng.schedule(4.0, lambda: None)
    with pytest.raises(PastTime):
        eng.run_until(1.0)


def test_empty_queue_zero_counts():
    stats = Engine(0).run_until(10.0)
    assert stats.events_processed == 0
    assert stats.frames_sent == 0


def test_event_count_matches_schedule_count():
    eng = Engine(0)
    n = 10_000
    for i in range(n):
        eng.schedule(i * 1e-3, lambda: None)
    assert eng.run_until(n * 1e-3).events_processed == n


def test_rng_stream_reproducible():
    a = [rng_stream(7, "mac").random() for _ in range(100)]
    b = [rng_stream(7, "mac").random() for _ in range(100)]
    assert a == b


def test_rng_streams_differ_by_label_and_seed():
    a = rng_stream(7, "mac").random()
    assert a != rng_stream(7, "workload").random()
    assert a != rng_stream(8, "mac").random()


def test_rng_uniform_mean():
    rng = rng_stream(3, "uniform-check")
    n = 100_000
    mean = sum(rng.random() for _ in range(n)) / n
    sigma = math.sqrt(1.0 / 12.0 / n)
    assert abs(mean - 0.5) < 3 * sigma


def _medium(p, seed=1, mac=None):
    topo = two_node_topology(p=p)
    eng = Engine(seed)
    return Medium(topo, eng, mac), eng


def test_transmit_perfect_link_single_attempt():
    med, _ = _medium(1.0)
    out = med.transmit(1000, 0, True, 0.0)
    assert out.delivered and out.attempts == 1
    assert out.airtime == pytest.approx(1000 / 12e6)


def test_transmit_dead_link_exhausts_all_attempts():
    med, eng = _medium(0.0)
    out = med.transmit(1000, 0, True, 0.0)
    assert not out.delivered
    assert out.attempts == 8
    assert out.airtime == pytest.approx(8 * 1000 / 12e6)
    # and the MAC raises the failure notification through send_frame
    failures = []
    med.on_tx_failure = lambda src, dst, li, t: failures.append((src, dst, li))
    med.send_frame(0, True, 1000)
    eng.run_until(1.0)
    assert failures == [(0, 1, 0)]


def test_transmit_unknown_link_and_bad_size():
    med, _ = _medium(1.0)
    with pytest.raises(UnknownLink):
        med.transmit(1000, 9, True, 0.0)
    with pytest.raises(ValueError):
        med.transmit(0, 0, True, 0.0)


def test_transmit_delivery_fraction_matches_retry_law():
    med, _ = _medium(0.5)
    n = 100_000
    delivered = sum(med.transmit(100, 0, True, 0.0).delivered for _ in range(n))
    q = 1.0 - 0.5 ** 8
    sigma = math.sqrt(q * (1 - q) / n)
    assert abs(delivered / n - q) < 3 * sigma


def test_transmit_deterministic_per_seed():
    outs1 = []
    med, _ = _medium(0.7, seed=42)
    for _ in range(50):
        outs1.append(med.transmit(500, 0, True, 0.0))
    med2, _ = _medium(0.7, seed=42)
    outs2 = [med2.transmit(500, 0, True, 0.0) for _ in range(50)]
    assert outs1 == outs2


def test_queue_tail_drop_at_limit():
    med, eng = _medium(1.0, mac=MacParams(queue_limit=3))
    for _ in range(5):
        med.send_frame(0, True, 1000)
    # a retry failure only fires inside run_until, so both drops are tail drops
    assert eng.stats.frames_dropped == 2
    eng.run_until(1.0)
    assert eng.stats.frames_delivered == 3


def test_busy_fraction_idle_is_zero():
    med, _ = _medium(1.0)
    assert med.busy_fraction(0) == 0.0


def test_busy_fraction_reflects_airtime_and_decays():
    med, eng = _medium(1.0, mac=MacParams(busy_window=5.0))
    med.transmit(med.topo.links[0].capacity * 1.0, 0, True, 0.0)   # 1 s of air
    eng.run_until(0.1)
    assert med.busy_fraction(0) == pytest.approx(0.2)
    # after the full window rotates, the airtime is forgotten
    eng.run_until(6.0)
    assert med.busy_fraction(0) == 0.0


def test_busy_fraction_clamped():
    med, eng = _medium(1.0, mac=MacParams(busy_window=5.0))
    med.transmit(med.topo.links[0].capacity * 50.0, 0, True, 0.0)  # 50 s of air
    eng.run_until(0.1)
    assert med.busy_fraction(0) == BUSY_MAX


def test_domain_busy_sum_is_taken_again_after_every_booking():
    # three nodes in carrier-sense range of each other on one channel: the
    # links 0-1 and 0-2 sense the same slots and share one busy sum
    topo = build_topology(make_nodes([(0, 0), (10, 0), (0, 10)]),
                          overrides={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    eng = Engine(1)
    med = Medium(topo, eng, MacParams(busy_window=5.0))
    assert med._domain[0] is med._domain[1]
    capacity = topo.links[0].capacity

    def fresh(link_idx):                   # past the per-link cache, then read
        eng.run_until(eng.now + 0.06)
        return med.busy_fraction(link_idx)
    med.transmit(capacity * 0.5, 0, True, 0.0)             # 0.5 s of air
    assert fresh(0) == fresh(1) == pytest.approx(0.1)
    med.transmit(capacity * 0.5, 2, True, eng.now)         # booked by transmit
    assert fresh(1) == pytest.approx(0.2)
    med.broadcast(1, capacity * 0.5, lambda receivers, t: None)  # and broadcast
    assert fresh(0) == pytest.approx(0.3)
    eng.run_until(5.5)                     # each rotation drops a bucket
    assert fresh(1) == 0.0


def test_overlapping_outages_restore_link_when_last_closes():
    med, eng = _medium(1.0)
    link = med.topo.links[0]
    med.outage(0, 1, 5.0)                  # open 0-5 s
    eng.run_until(2.0)
    med.outage(1, 0, 5.0)                  # open 2-7 s, closes last
    eng.run_until(6.0)
    assert not med.transmit(100, 0, True, eng.now).delivered
    assert not med.transmit(100, 0, False, eng.now).delivered
    eng.run_until(8.0)
    assert med.transmit(100, 0, True, eng.now).delivered
    assert med.transmit(100, 0, False, eng.now).delivered
    assert (link.p_deliver_fwd, link.p_deliver_rev) == (1.0, 1.0)


def test_broadcast_reaches_neighbor_on_perfect_link():
    med, eng = _medium(1.0)
    got = []
    med.broadcast(0, 512, lambda receivers, t: got.extend(receivers))
    eng.run_until(1.0)
    assert got == [(1, 0)]


def test_broadcast_never_reaches_over_dead_link():
    med, eng = _medium(0.0)
    got = []
    med.broadcast(0, 512, lambda receivers, t: got.extend(receivers))
    eng.run_until(1.0)
    assert got == []


def test_broadcast_wanted_skips_arrivals_but_not_airtime_or_draws():
    # node 0 reaches 1, 2 and 3; the draw toward 3 is a real coin, and 3's
    # slower radio gives its arrivals an instant of their own
    nodes = make_nodes([(0, 0), (10, 0), (0, 10), (-10, 0)])
    nodes[3] = dataclasses.replace(nodes[3], radios=(RadioSpec(1, 6e6, 40.0, 80.0),))
    topo = build_topology(nodes, overrides={(0, 1): 1.0, (0, 2): 1.0, (0, 3): 0.5})
    asked, calls = [], [0]

    def wanted(reached):
        calls[0] += 1
        asked.extend((nbr, t) for nbr, _li, t in reached)
        return [entry for entry in reached if entry[0] != 2]
    runs = []
    for want in (None, wanted):
        eng = Engine(5)
        med = Medium(topo, eng)
        got, scheduled, instants = [], 0, 0
        for i in range(20):
            queued = len(eng._heap)
            med.broadcast(0, 512, lambda receivers, t, i=i: got.extend(
                (i, nbr, t) for nbr, _li in receivers), want)
            scheduled += len(eng._heap) - queued
        eng.run_until(1.0)
        for i in range(20):
            instants += len({t for (j, _nbr, t) in got if j == i})
        runs.append(((eng.rng("mac").getstate(), list(med._win_air), eng.stats.frames_sent),
                     [(nbr, t) for (_i, nbr, t) in got], scheduled, instants))
    (state, got, scheduled, instants), (state_w, got_w, scheduled_w, instants_w) = runs
    assert state_w == state                # same coins, airtime and frame count
    assert calls == [20]                   # asked once per broadcast
    assert sorted(asked) == sorted(got)    # of each reached neighbor, at its arrival
    assert got_w == [(nbr, t) for nbr, t in got if nbr != 2]
    assert 2 in dict(got) and 2 not in dict(got_w)
    # one event per distinct arrival instant of each broadcast
    assert scheduled == instants and scheduled_w == instants_w
    assert 20 < scheduled < len(got)


def test_event_scheduled_at_the_arrival_instant_runs_after_the_whole_batch():
    topo = build_topology(make_nodes([(0, 0), (10, 0), (0, 10), (-10, 0)]),
                          overrides={(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
    eng = Engine(1)
    med = Medium(topo, eng)
    order = []

    def deliver(receivers, t):
        for nbr, _li in receivers:
            order.append(nbr)
            if len(order) == 1:
                eng.schedule(t, lambda: order.append("scheduled"))
    med.broadcast(0, 512, deliver)
    eng.run_until(0.5)
    assert order == [nbr for (nbr, *_rest) in med._fanout[0]] + ["scheduled"]
    assert len(order) == 4
    assert eng.stats.events_processed == 2     # the batch, then its follower


def test_broadcast_reaches_one_neighbour_over_two_links_at_two_instants():
    # two radios per node: channel 1 at 6 Mb/s, channel 6 at 12 Mb/s, so
    # node 1 hears the slower copy, listed first in the fan-out, last
    radios = (RadioSpec(1, 6e6, 40.0, 80.0), RadioSpec(6, 12e6, 40.0, 80.0))
    nodes = [NodeSpec(0, (0.0, 0.0), radios), NodeSpec(1, (10.0, 0.0), radios)]
    topo = build_topology(nodes, overrides={(0, 1): 1.0})
    eng = Engine(1)
    med = Medium(topo, eng)
    asked, got = [], []

    def wanted(reached):
        asked.append(list(reached))
        return reached
    queued = len(eng._heap)
    med.broadcast(0, 600, lambda receivers, t: got.append((t, receivers)), wanted)
    slow, fast = 600 / 6e6, 600 / 12e6
    assert asked == [[(1, 0, slow), (1, 1, fast)]]     # one call, fan-out order
    assert len(eng._heap) - queued == 2                # one event per instant
    eng.run_until(1.0)
    assert got == [(fast, [(1, 1)]), (slow, [(1, 0)])]
    assert eng.stats.frames_sent == 2                  # one frame per channel
