from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from meshsim.engine import Engine, MacParams, Medium
from meshsim.metrics import BUSY_MAX, DEAD_RATIO, ElpParams, elp_link
from meshsim.routing import NeighborLink, Router, RoutingParams

from conftest import make_net, two_node_topology


# -- reference: the link record, probe update and cost as they were before
# the router kept d_f and d_r on its NeighborLink; the oracle for both.

class DeadLink(Exception):
    """Link delivery ratio below the usability floor; cost is unbounded."""


@dataclass
class LinkStats:
    """Per-directed-link probe accounting for one link, as seen by one node.

    d_f is the delivery ratio in the data direction, d_r the reverse (ACK)
    direction; busy is the contention-domain busy fraction; samples counts
    probe observations per direction.
    """

    d_f: float = 1.0
    d_r: float = 1.0
    busy: float = 0.0
    capacity: float = 1.0
    samples: dict[str, int] = field(default_factory=lambda: {"fwd": 0, "rev": 0})


def record_probe(stats: LinkStats, direction: str, received: bool,
                 alpha: float = 0.1) -> LinkStats:
    """EWMA update of one direction's delivery ratio from a probe outcome."""
    x = 1.0 if received else 0.0
    if direction == "fwd":
        stats.d_f = (1.0 - alpha) * stats.d_f + alpha * x
    elif direction == "rev":
        stats.d_r = (1.0 - alpha) * stats.d_r + alpha * x
    else:
        raise ValueError(f"direction must be 'fwd' or 'rev', got {direction!r}")
    stats.samples[direction] += 1
    return stats


def reference_elp_link(stats: LinkStats, params: ElpParams) -> float:
    """Cost of one link: loss ratio x interference x capacity factors."""
    if stats.d_f < DEAD_RATIO or stats.d_r < DEAD_RATIO:
        raise DeadLink(f"delivery ratio below floor ({stats.d_f:.3g}, {stats.d_r:.3g})")
    llr = 1.0 / (stats.d_f ** params.w * stats.d_r ** (1.0 - params.w))
    b = min(stats.busy, BUSY_MAX)
    li = 1.0 / (1.0 - b)
    lc = params.ref_rate / stats.capacity
    return llr * li * lc


# -- the router's reverse-ratio EWMA ----------------------------------------

def lone_router(alpha=0.1, d_r=1.0):
    """Node 0 of a two-node topology with one neighbor link and no events run."""
    topo = two_node_topology()
    engine = Engine(1)
    router = Router(0, Medium(topo, engine, MacParams()), RoutingParams(),
                    ElpParams(ewma_alpha=alpha))
    nl = NeighborLink(0, True, topo.links[0].capacity, d_r=d_r)
    router.neighbors[1] = {0: nl}
    return router, nl


def hello_ticks(router, nl, heard_seq):
    for heard in heard_seq:
        nl.heard_since_tick = heard
        router._hello_tick()


def test_probe_loss_ewma_step():
    router, nl = lone_router(alpha=0.1)
    hello_ticks(router, nl, [False])
    assert nl.d_r == pytest.approx(0.9)


def test_probe_alternating_settles_in_band():
    router, nl = lone_router(alpha=0.1)
    hello_ticks(router, nl, [i % 2 == 0 for i in range(400)])
    # the EWMA oscillates around 0.5 with amplitude alpha/(2-alpha)
    assert abs(nl.d_r - 0.5) < 0.06


@settings(derandomize=True, deadline=None, max_examples=200)
@given(heard=st.lists(st.booleans(), min_size=1, max_size=40),
       alpha=st.floats(0.001, 1.0), d_r=st.floats(0.0, 1.0))
def test_hello_ewma_matches_record_probe(heard, alpha, d_r):
    router, nl = lone_router(alpha=alpha, d_r=d_r)
    stats = LinkStats(d_r=d_r)
    for x in heard:
        hello_ticks(router, nl, [x])
        record_probe(stats, "rev", x, alpha)
        assert nl.d_r == stats.d_r


# -- the ELP link cost --------------------------------------------------------

def test_elp_link_worked_example():
    # d_f=0.5, d_r=1, w=0.75, busy 0.5, capacity at half the reference rate
    params = ElpParams(w=0.75, ref_rate=12e6)
    assert elp_link(0.5, 1.0, 0.5, 6e6, params) == pytest.approx(6.727171322029716,
                                                                  rel=1e-12)


def test_elp_link_ideal_is_one():
    assert elp_link(1.0, 1.0, 0.0, 12e6, ElpParams()) == pytest.approx(1.0)


def test_elp_link_dead_below_floor():
    params = ElpParams()
    assert elp_link(DEAD_RATIO / 2, 1.0, 0.0, 12e6, params) is None
    assert elp_link(1.0, 0.001, 0.0, 12e6, params) is None
    assert elp_link(DEAD_RATIO, DEAD_RATIO, 0.0, 12e6, params) is not None


def test_elp_busy_clamped_at_b_max():
    assert elp_link(1.0, 1.0, 1.0, 12e6, ElpParams()) == pytest.approx(
        1.0 / (1.0 - BUSY_MAX))


def test_hop_count_baseline():
    # every link costs 1 whatever its loss, so a path costs its hop count
    net = make_net([(0, 0), (30, 0), (60, 0)], metric="hop_count",
                   overrides={(0, 1): 0.6, (1, 2): 1.0}).run(20.0)
    table = net.routers[0].table
    assert (table[1].path_cost, table[2].path_cost) == (1.0, 2.0)
    assert table[2].path == (0, 1, 2)


def test_elp_params_validation():
    with pytest.raises(ValueError):
        ElpParams(w=0.5)
    with pytest.raises(ValueError):
        ElpParams(w=1.01)
    with pytest.raises(ValueError):
        ElpParams(ref_rate=0)
    with pytest.raises(ValueError):
        ElpParams(ewma_alpha=0)


ratios = st.one_of(st.floats(0.0, 1.0),
                   st.floats(DEAD_RATIO * 0.99, DEAD_RATIO * 1.01),
                   st.sampled_from([0.0, DEAD_RATIO, 1.0]))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(d_f=ratios, d_r=ratios, busy=st.floats(0.0, 1.2),
       cap=st.floats(1e5, 1e9), w=st.floats(0.5, 1.0, exclude_min=True),
       ref_rate=st.floats(1e5, 1e9))
def test_elp_link_matches_reference(d_f, d_r, busy, cap, w, ref_rate):
    params = ElpParams(w=w, ref_rate=ref_rate)
    cost = elp_link(d_f, d_r, busy, cap, params)
    try:
        expected = reference_elp_link(
            LinkStats(d_f=d_f, d_r=d_r, busy=busy, capacity=cap), params)
    except DeadLink:
        assert cost is None
    else:
        assert cost == expected


@given(d_f=st.floats(0.02, 1.0), d_r=st.floats(0.02, 1.0),
       busy=st.floats(0.0, 0.98), cap=st.floats(1e6, 54e6))
def test_elp_link_positive_and_at_least_capacity_factor(d_f, d_r, busy, cap):
    params = ElpParams()
    cost = elp_link(d_f, d_r, busy, cap, params)
    assert cost >= params.ref_rate / cap - 1e-9


@given(lo=st.floats(0.02, 0.99), delta=st.floats(0.001, 0.5))
def test_elp_link_improves_with_forward_ratio(lo, delta):
    hi = min(lo + delta, 1.0)
    params = ElpParams()
    worse = elp_link(lo, 1.0, 0.0, 12e6, params)
    better = elp_link(hi, 1.0, 0.0, 12e6, params)
    assert better <= worse


@given(b1=st.floats(0, 0.9), delta=st.floats(0.001, 0.09))
def test_elp_link_worsens_with_busy(b1, delta):
    params = ElpParams()
    a = elp_link(1.0, 1.0, b1, 12e6, params)
    b = elp_link(1.0, 1.0, b1 + delta, 12e6, params)
    assert b > a


def test_forward_direction_dominates_cost():
    # w > 0.5 biases the metric toward the data direction
    params = ElpParams(w=0.75)
    fwd_bad = elp_link(0.5, 1.0, 0.0, 12e6, params)
    rev_bad = elp_link(1.0, 0.5, 0.0, 12e6, params)
    assert fwd_bad > rev_bad
