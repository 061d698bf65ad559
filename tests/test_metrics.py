import pytest
from hypothesis import given, strategies as st

from meshsim.errors import DeadLink
from meshsim.metrics import (BUSY_MAX, DEAD_RATIO, ElpParams, LinkStats,
                             elp_link, elp_path, hop_count_metric, record_probe)


def test_probe_loss_ewma_step():
    stats = LinkStats(d_f=1.0)
    record_probe(stats, "fwd", False, alpha=0.1)
    assert stats.d_f == pytest.approx(0.9)
    assert stats.samples["fwd"] == 1


def test_probe_alternating_settles_in_band():
    stats = LinkStats(d_f=1.0)
    for i in range(2000):
        record_probe(stats, "fwd", i % 2 == 0, alpha=0.1)
    # the EWMA oscillates around 0.5 with amplitude alpha/(2-alpha)
    assert abs(stats.d_f - 0.5) < 0.06


def test_probe_rejects_unknown_direction():
    with pytest.raises(ValueError):
        record_probe(LinkStats(), "sideways", True)


def test_elp_link_worked_example():
    # d_f=0.5, d_r=1, w=0.75, busy 0.5, capacity at half the reference rate
    params = ElpParams(w=0.75, ref_rate=12e6)
    stats = LinkStats(d_f=0.5, d_r=1.0, busy=0.5, capacity=6e6)
    assert elp_link(stats, params) == pytest.approx(6.727171322029716, rel=1e-12)


def test_elp_link_ideal_is_one():
    stats = LinkStats(d_f=1.0, d_r=1.0, busy=0.0, capacity=12e6)
    assert elp_link(stats, ElpParams()) == pytest.approx(1.0)


def test_elp_link_dead_below_floor():
    params = ElpParams()
    with pytest.raises(DeadLink):
        elp_link(LinkStats(d_f=DEAD_RATIO / 2, d_r=1.0, capacity=12e6), params)
    with pytest.raises(DeadLink):
        elp_link(LinkStats(d_f=1.0, d_r=0.001, capacity=12e6), params)


def test_elp_busy_clamped_at_b_max():
    stats = LinkStats(d_f=1.0, d_r=1.0, busy=1.0, capacity=12e6)
    assert elp_link(stats, ElpParams()) == pytest.approx(1.0 / (1.0 - BUSY_MAX))


def test_elp_path_is_sum():
    assert elp_path([1.0, 2.0, 3.0]) == 6.0
    assert elp_path([]) == 0


def test_hop_count_baseline():
    assert hop_count_metric() == 1.0
    assert hop_count_metric(object()) == 1.0
    assert elp_path(hop_count_metric() for _ in range(3)) == 3.0


def test_elp_params_validation():
    with pytest.raises(ValueError):
        ElpParams(w=0.5)
    with pytest.raises(ValueError):
        ElpParams(w=1.01)
    with pytest.raises(ValueError):
        ElpParams(ref_rate=0)
    with pytest.raises(ValueError):
        ElpParams(ewma_alpha=0)


@given(d_f=st.floats(0.02, 1.0), d_r=st.floats(0.02, 1.0),
       busy=st.floats(0.0, 0.98), cap=st.floats(1e6, 54e6))
def test_elp_link_positive_and_at_least_capacity_factor(d_f, d_r, busy, cap):
    params = ElpParams()
    cost = elp_link(LinkStats(d_f=d_f, d_r=d_r, busy=busy, capacity=cap), params)
    assert cost >= params.ref_rate / cap - 1e-9


@given(lo=st.floats(0.02, 0.99), delta=st.floats(0.001, 0.5))
def test_elp_link_improves_with_forward_ratio(lo, delta):
    hi = min(lo + delta, 1.0)
    params = ElpParams()
    worse = elp_link(LinkStats(d_f=lo, d_r=1.0, capacity=12e6), params)
    better = elp_link(LinkStats(d_f=hi, d_r=1.0, capacity=12e6), params)
    assert better <= worse


@given(b1=st.floats(0, 0.9), delta=st.floats(0.001, 0.09))
def test_elp_link_worsens_with_busy(b1, delta):
    params = ElpParams()
    a = elp_link(LinkStats(d_f=1.0, d_r=1.0, busy=b1, capacity=12e6), params)
    b = elp_link(LinkStats(d_f=1.0, d_r=1.0, busy=b1 + delta, capacity=12e6), params)
    assert b > a


def test_forward_direction_dominates_cost():
    # w > 0.5 biases the metric toward the data direction
    params = ElpParams(w=0.75)
    fwd_bad = elp_link(LinkStats(d_f=0.5, d_r=1.0, capacity=12e6), params)
    rev_bad = elp_link(LinkStats(d_f=1.0, d_r=0.5, capacity=12e6), params)
    assert fwd_bad > rev_bad
