import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from meshsim import load_preset
from meshsim.errors import UnknownLink, ValidationError
from meshsim.topology import (Link, NodeSpec, PropagationModel, RadioSpec,
                              build_topology, contention_domain)

from conftest import make_nodes


def test_two_nodes_within_range_form_one_link():
    # omni radios reaching 1 km, 0.5 km apart
    nodes = make_nodes([(0, 0), (500, 0)], tx_range=1000.0, cs_range=2000.0)
    topo = build_topology(nodes)
    assert len(topo.links) == 1
    link = topo.links[0]
    assert (link.src, link.dst) == (0, 1)
    assert link.distance == pytest.approx(500.0)


def test_collinear_chain_links_pairwise_distance():
    nodes = make_nodes([(0, 0), (750, 0), (1500, 0)],
                       tx_range=1000.0, cs_range=2000.0)
    topo = build_topology(nodes)
    pairs = {(l.src, l.dst) for l in topo.links}
    assert pairs == {(0, 1), (1, 2)}


def test_isolated_link_domain_is_itself():
    nodes = make_nodes([(0, 0), (10, 0)])
    topo = build_topology(nodes)
    link = topo.links[0]
    assert contention_domain(topo, link) == {link}


def test_chain_middle_domain_covers_all_three_links():
    # cs_range twice the hop distance: the middle link senses everything
    nodes = make_nodes([(0, 0), (20, 0), (40, 0), (60, 0)],
                       tx_range=25.0, cs_range=40.0)
    topo = build_topology(nodes)
    assert len(topo.links) == 3
    middle = topo.link_between(1, 2)
    assert contention_domain(topo, middle) == set(topo.links)


def test_contention_domain_rejects_foreign_link():
    topo = build_topology(make_nodes([(0, 0), (10, 0)]))
    stray = Link(5, 0, 1, 1, 10.0, 1.0, 1.0, 12e6)
    with pytest.raises(UnknownLink):
        contention_domain(topo, stray)


def test_duplicate_node_id_rejected():
    r = RadioSpec(1, 12e6, 40.0, 80.0)
    nodes = [NodeSpec(0, (0.0, 0.0), (r,)), NodeSpec(0, (10.0, 0.0), (r,))]
    with pytest.raises(ValidationError, match="duplicate node id"):
        build_topology(nodes)


def test_cs_range_below_tx_range_rejected():
    with pytest.raises(ValueError, match="cs_range"):
        RadioSpec(1, 12e6, 40.0, 20.0)


def test_override_sets_asymmetric_probabilities():
    nodes = make_nodes([(0, 0), (10, 0)])
    topo = build_topology(nodes, overrides={(0, 1): (0.9, 0.4)})
    link = topo.links[0]
    assert link.p_deliver_fwd == 0.9
    assert link.p_deliver_rev == 0.4


def test_override_out_of_range_rejected():
    nodes = make_nodes([(0, 0), (10, 0)])
    with pytest.raises(ValidationError):
        build_topology(nodes, overrides={(0, 1): 1.5})


def test_deletion_removes_link():
    nodes = make_nodes([(0, 0), (10, 0), (20, 0)])
    topo = build_topology(nodes, deletions=[(0, 1)])
    pairs = {(l.src, l.dst) for l in topo.links}
    assert (0, 1) not in pairs
    assert (1, 2) in pairs


@pytest.mark.parametrize("channel", [(), (1,)], ids=["pair", "pair-and-channel"])
def test_override_key_may_name_the_pair_either_way(channel):
    # p_fwd is the odds of the a -> b direction, whichever of a and b is lower
    nodes = make_nodes([(0, 0), (10, 0)])

    def odds(key, ov):
        link, = build_topology(nodes, overrides={key + channel: ov}).links
        return link.p_deliver_fwd, link.p_deliver_rev
    assert odds((1, 0), (0.6, 0.3)) == odds((0, 1), (0.3, 0.6)) == (0.3, 0.6)
    assert odds((1, 0), 0.7) == odds((0, 1), 0.7) == (0.7, 0.7)


def test_deletion_of_one_channel_keeps_the_other():
    r1, r6 = RadioSpec(1, 12e6, 40.0, 80.0), RadioSpec(6, 6e6, 40.0, 80.0)
    nodes = [NodeSpec(0, (0.0, 0.0), (r1, r6)), NodeSpec(1, (10.0, 0.0), (r1, r6))]
    assert [l.channel for l in build_topology(nodes).links] == [1, 6]
    for d in ((0, 1, 6), (1, 0, 6)):
        assert [l.channel for l in build_topology(nodes, deletions=[d]).links] == [1]


def test_two_radios_on_one_channel_give_one_link():
    r, wide = RadioSpec(1, 12e6, 40.0, 80.0), RadioSpec(1, 6e6, 60.0, 90.0)
    nodes = [NodeSpec(0, (0.0, 0.0), (r, wide)), NodeSpec(1, (10.0, 0.0), (r, wide))]
    link, = build_topology(nodes).links
    assert (link.src, link.dst, link.channel, link.capacity) == (0, 1, 1, 12e6)


def test_position_must_be_finite():
    r = RadioSpec(1, 12e6, 40.0, 80.0)
    with pytest.raises(ValueError, match=r"position must be finite, got \(inf, 0.0\)"):
        NodeSpec(0, (math.inf, 0.0), (r,))


def test_link_between_unknown_pair():
    topo = build_topology(make_nodes([(0, 0), (10, 0)]))
    with pytest.raises(UnknownLink):
        topo.link_between(0, 5)


def test_different_channels_never_link():
    ra = RadioSpec(1, 12e6, 40.0, 80.0)
    rb = RadioSpec(6, 12e6, 40.0, 80.0)
    nodes = [NodeSpec(0, (0.0, 0.0), (ra,)), NodeSpec(1, (10.0, 0.0), (rb,))]
    assert build_topology(nodes).links == []


def test_propagation_flat_then_linear():
    prop = PropagationModel(p_max=0.98, p_min=0.5, knee=0.6)
    assert prop.delivery_probability(0.0, 100.0) == 0.98
    assert prop.delivery_probability(60.0, 100.0) == 0.98
    assert prop.delivery_probability(100.0, 100.0) == pytest.approx(0.5)
    assert prop.delivery_probability(80.0, 100.0) == pytest.approx(0.74)
    assert prop.delivery_probability(100.1, 100.0) == 0.0


@given(d1=st.floats(0, 200), d2=st.floats(0, 200))
def test_propagation_monotone_nonincreasing(d1, d2):
    prop = PropagationModel()
    lo, hi = sorted((d1, d2))
    assert prop.delivery_probability(lo, 100.0) >= prop.delivery_probability(hi, 100.0)


@given(d=st.floats(0, 99.999), pmax=st.floats(0.5, 1.0), pmin=st.floats(0.01, 0.5))
def test_propagation_bounded(d, pmax, pmin):
    p = PropagationModel(p_max=pmax, p_min=pmin).delivery_probability(d, 100.0)
    assert pmin - 1e-12 <= p <= pmax + 1e-12


def test_domains_are_symmetric_and_reflexive():
    nodes = make_nodes([(0, 0), (20, 0), (40, 0), (60, 0)],
                       tx_range=25.0, cs_range=45.0)
    topo = build_topology(nodes)
    for link in topo.links:
        dom = topo.domains[link.index]
        assert link.index in dom
        for other in dom:
            assert link.index in topo.domains[other]


def test_link_is_frozen():
    link = build_topology(make_nodes([(0, 0), (10, 0)])).links[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        link.p_deliver_fwd = 0.0


def reference_sensed_and_domains(topo):
    """Brute-force carrier-sense sets and the O(links^2) domain scan."""
    def cs_range(node, channel):
        return max(r.cs_range for r in node.radios if r.channel == channel)

    def dist(a, b):
        return math.hypot(a.position[0] - b.position[0],
                          a.position[1] - b.position[1])

    sensed, domains = [], []
    for link in topo.links:
        ea, eb = topo.nodes[link.src], topo.nodes[link.dst]
        sensed.append([
            n.id for n in sorted(topo.nodes.values(), key=lambda n: n.id)
            if any(r.channel == link.channel for r in n.radios)
            and (dist(n, ea) <= cs_range(ea, link.channel)
                 or dist(n, eb) <= cs_range(eb, link.channel))])
        members = []
        for other in topo.links:
            if other.channel != link.channel:
                continue
            for tx_id in (other.src, other.dst):
                tx = topo.nodes[tx_id]
                if (dist(tx, ea) <= cs_range(ea, link.channel)
                        or dist(tx, eb) <= cs_range(eb, link.channel)):
                    members.append(other.index)
                    break
        domains.append(members)
    return sensed, domains


@pytest.mark.parametrize("name", ["indoor22", "outdoor7", "line4"])
def test_sensed_and_domains_match_reference(name):
    if name == "line4":
        topo = build_topology(make_nodes([(0, 0), (20, 0), (40, 0), (60, 0)],
                                         tx_range=25.0, cs_range=45.0))
    else:
        topo = load_preset(name).topology
    assert (topo.sensed, topo.domains) == reference_sensed_and_domains(topo)
