import copy

import pytest

from meshsim.engine import rng_stream
from meshsim.errors import NoRoute, UnknownFlow
from meshsim.qos import (Admit, AdmissionLedger, FlowSpec, QosParams, Reject,
                         flow_airtime)
from meshsim.topology import build_topology

from conftest import make_nodes


def flow(fid, demand=64000.0, src=0, dst=1, kind="voice"):
    return FlowSpec(fid, src, dst, demand, 1280.0, kind)


def chain_topology(n=2, spacing=10.0, rate=12e6):
    # everything inside one carrier-sense footprint: a single shared domain
    nodes = make_nodes([(i * spacing, 0) for i in range(n)],
                       rate=rate, tx_range=1.5 * spacing, cs_range=1000.0)
    return build_topology(nodes, overrides={(i, i + 1): 1.0 for i in range(n - 1)})


def make_ledger(n=2, rate=12e6, u_max=0.85):
    return AdmissionLedger(chain_topology(n, rate=rate), QosParams(u_max=u_max))


def test_flow_airtime_scales_inversely_with_capacity():
    topo10 = chain_topology(rate=10e6)
    topo5 = chain_topology(rate=5e6)
    f = flow("f", demand=1e6)
    assert flow_airtime(f, topo10.links[0], 0.8) == pytest.approx(0.125)
    assert flow_airtime(f, topo5.links[0], 0.8) == pytest.approx(0.25)


def test_zero_demand_rejected_upstream():
    with pytest.raises(ValueError):
        FlowSpec("f", 0, 1, 0.0, 1280.0)
    with pytest.raises(ValueError):
        FlowSpec("f", 0, 1, 64000.0, 0.0)


def test_residual_uses_worst_of_model_and_measurement():
    ledger = make_ledger()
    ledger.flows["booked"] = {0: 0.5}
    assert ledger.residual(0, measured_busy=0.3) == pytest.approx(0.35)
    assert ledger.residual(0, measured_busy=0.7) == pytest.approx(0.15)
    assert ledger.residual(0, measured_busy=0.9) == 0.0


def test_first_flow_on_idle_network_admitted():
    ledger = make_ledger()
    decision = ledger.admit(flow("f1"), [ledger.topo.links[0]])
    assert isinstance(decision, Admit)
    assert decision.reservation


def test_empty_path_is_no_route():
    ledger = make_ledger()
    with pytest.raises(NoRoute):
        ledger.admit(flow("f1"), [])


def test_second_large_flow_rejected_with_domain():
    ledger = make_ledger(rate=1e6)      # 64 kb/s costs 0.08 airtime per link
    big = 0.6 * 1e6 * 0.8               # airtime 0.6 of the one domain
    link = ledger.topo.links[0]
    assert isinstance(ledger.admit(flow("a", demand=big), [link]), Admit)
    decision = ledger.admit(flow("b", demand=big), [link])
    assert isinstance(decision, Reject)
    assert decision.bottleneck == link.index
    assert decision.needed == pytest.approx(0.6)
    assert decision.residual == pytest.approx(0.85 - 0.6)


def test_intra_flow_interference_across_shared_domain():
    # 3 links of one domain, each traversal costing 0.3: a single flow
    # needs 0.9 there, over the 0.85 ceiling
    ledger = make_ledger(n=4, rate=1e6)
    demand = 0.3 * 1e6 * 0.8
    decision = ledger.admit(flow("f", demand=demand, dst=3), ledger.topo.links)
    assert isinstance(decision, Reject)
    assert decision.needed == pytest.approx(0.9)


def test_admit_release_restores_ledger_exactly():
    ledger = make_ledger()
    before = copy.deepcopy(ledger.committed)
    ledger.admit(flow("f1"), [ledger.topo.links[0]])
    ledger.release("f1")
    assert ledger.committed == before
    assert "f1" not in ledger.flows


def test_release_unknown_flow():
    with pytest.raises(UnknownFlow):
        make_ledger().release("ghost")


def test_release_preserves_other_reservations():
    ledger = make_ledger(rate=1e6)
    link = [ledger.topo.links[0]]
    ledger.admit(flow("a", demand=1e5), link)
    ledger.admit(flow("b", demand=2e5), link)
    b_before = dict(ledger.flows["b"])
    ledger.release("a")
    assert ledger.flows["b"] == b_before
    expected = sum(b_before.values())
    assert sum(ledger.committed.values()) == pytest.approx(expected)


def test_readmitting_a_live_flow_replaces_its_reservation():
    # short carrier sense: the two ends of the line are separate domains
    nodes = make_nodes([(i * 10.0, 0) for i in range(6)], tx_range=15.0,
                       cs_range=15.0)
    topo = build_topology(nodes, overrides={(i, i + 1): 1.0 for i in range(5)})
    ledger = AdmissionLedger(topo)
    first = ledger.admit(flow("a"), topo.links[:1]).reservation
    ledger.admit(flow("b"), topo.links[4:])
    ledger.admit(flow("a"), topo.links[3:4])
    total = {}
    for inc in ledger.flows.values():
        for anchor, share in inc.items():
            total[anchor] = total.get(anchor, 0.0) + share
    assert set(first) - set(total)            # old anchors no flow books
    assert ledger.committed == total
    assert list(ledger.flows) == ["a", "b"]


def test_log_records_decisions_in_order():
    ledger = make_ledger(rate=1e6)
    link = [ledger.topo.links[0]]
    ledger.admit(flow("a", demand=6e5 * 0.8), link)
    ledger.admit(flow("b", demand=6e5 * 0.8), link)
    ledger.release("a")
    kinds = [(k, fid) for (k, fid, _x) in ledger.log]
    assert kinds == [("admit", "a"), ("reject", "b"), ("release", "a")]


def test_random_admit_release_conservation():
    ledger = make_ledger(n=4)
    rng = rng_stream(5, "qos-conservation")
    links = ledger.topo.links
    live = set()
    for i in range(2000):
        if live and rng.random() < 0.45:
            fid = rng.choice(sorted(live))
            ledger.release(fid)
            live.discard(fid)
        else:
            fid = f"f{i}"
            path = links[:rng.randint(1, len(links))]
            d = ledger.admit(flow(fid, demand=rng.uniform(1e4, 3e5)), path)
            if isinstance(d, Admit):
                live.add(fid)
        # invariant: committed is exactly the sum over live reservations
        total = {}
        for fid in ledger.flows:
            for anchor, share in ledger.flows[fid].items():
                total[anchor] = total.get(anchor, 0.0) + share
        assert ledger.committed == total
        assert set(ledger.flows) == live
        assert all(v <= ledger.qos.u_max + 1e-9 for v in ledger.committed.values())
    for fid in sorted(live):
        ledger.release(fid)
    assert ledger.committed == {}
