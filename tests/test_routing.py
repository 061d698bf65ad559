import heapq
from functools import partial
from typing import NamedTuple

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from meshsim import metrics, preset_path
from meshsim.engine import Medium, rng_stream
from meshsim.harness import Simulation
from meshsim.metrics import BUSY_MAX
from meshsim.routing import (Route, Router, compute_routes, maybe_switch_route,
                             takes_copy)
from meshsim.scenario import Scenario

from conftest import make_net
from runstate import RUN_STATE_VARIANTS, run_state, run_state_raw


# -- shortest paths ---------------------------------------------------------

def test_single_link_route():
    table = compute_routes({0: {1: 1.0}, 1: {0: 1.0}}, 0)
    assert set(table) == {1}
    r = table[1]
    assert (r.next_hop, r.path_cost, r.path) == (1, 1.0, (0, 1))


def random_graph(rng, n):
    graph = {i: {} for i in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                cost = rng.uniform(0.1, 10.0)
                graph[a][b] = cost
                graph[b][a] = cost
    return graph


def brute_force_costs(graph, source):
    best = {}

    def dfs(node, cost, visited):
        if node != source and (node not in best or cost < best[node]):
            best[node] = cost
        for nbr, c in graph[node].items():
            if nbr not in visited:
                dfs(nbr, cost + c, visited | {nbr})

    dfs(source, 0.0, {source})
    return best


def test_routes_match_exhaustive_enumeration():
    rng = rng_stream(11, "routing-unit")
    for _ in range(30):
        n = rng.randint(2, 6)
        graph = random_graph(rng, n)
        table = compute_routes(graph, 0)
        expected = brute_force_costs(graph, 0)
        assert set(table) == set(expected)
        for dest, r in table.items():
            assert r.path_cost == pytest.approx(expected[dest], rel=1e-12)
            assert len(set(r.path)) == len(r.path)   # simple path


def test_forwarding_is_loop_free_across_tables():
    rng = rng_stream(12, "routing-loops")
    for _ in range(20):
        n = rng.randint(3, 7)
        graph = random_graph(rng, n)
        tables = {src: compute_routes(graph, src) for src in graph}
        for src in graph:
            for dest in tables[src]:
                node, hops = src, 0
                while node != dest:
                    node = tables[node][dest].next_hop
                    hops += 1
                    assert hops <= n


def test_tiebreak_prefers_fewer_hops_then_lowest_path():
    # equal-cost: 0-3 direct (cost 2) vs 0-1-3 (1+1); fewer hops wins
    g = {0: {1: 1.0, 3: 2.0}, 1: {0: 1.0, 3: 1.0}, 3: {0: 2.0, 1: 1.0}}
    assert compute_routes(g, 0)[3].path == (0, 3)
    # equal cost and hops: via 1 beats via 2 lexicographically
    g = {0: {1: 1.0, 2: 1.0}, 1: {0: 1.0, 3: 1.0},
         2: {0: 1.0, 3: 1.0}, 3: {1: 1.0, 2: 1.0}}
    assert compute_routes(g, 0)[3].path == (0, 1, 3)


def test_elp_prefers_clean_two_hop_over_lossy_shortcut():
    # shortcut at d_f=0.5 on a half-rate channel vs two clean links
    shortcut_cost = 6.727171322029716
    g = {0: {2: shortcut_cost, 1: 1.02}, 1: {0: 1.02, 2: 1.02},
         2: {0: shortcut_cost, 1: 1.02}}
    assert compute_routes(g, 0)[2].path == (0, 1, 2)
    hop_g = {a: {b: 1.0 for b in nbrs} for a, nbrs in g.items()}
    assert compute_routes(hop_g, 0)[2].path == (0, 2)


def reference_compute_routes(graph, source):
    """compute_routes as it was before label pruning, kept as the oracle."""
    settled = {}
    heap = [(0.0, 0, (source,))]
    while heap:
        cost, hops, path = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled[u] = (cost, hops, path)
        for v in sorted(graph.get(u, ())):
            if v not in settled:
                heapq.heappush(heap, (cost + graph[u][v], hops + 1, path + (v,)))
    table = {}
    for dest, (cost, _hops, path) in settled.items():
        if dest == source:
            continue
        table[dest] = Route(dest, path[1], cost, path)
    return table


# all-1.0 costs tie on cost; sums of these fractions tie, or miss a tie by
# one float rounding step (0.1 + 0.2 != 0.3)
COST_FAMILIES = {
    "hop": st.just(1.0),
    "fractions": st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7]),
    "uniform": st.floats(0.01, 10.0),
}


@st.composite
def advertised_graphs(draw):
    """Directed graphs on nodes 0..n; some nodes advertise no links at all."""
    n = draw(st.integers(1, 12))
    cost = COST_FAMILIES[draw(st.sampled_from(sorted(COST_FAMILIES)))]
    graph = {}
    for u in range(n):
        if draw(st.booleans()) or u == 0:
            graph[u] = draw(st.dictionaries(st.integers(0, n), cost, max_size=n))
    return graph, n


@settings(derandomize=True, deadline=None, max_examples=300)
@given(advertised_graphs())
def test_compute_routes_matches_reference(case):
    graph, n = case
    for source in range(n + 1):
        got = [(d, r.next_hop, r.path_cost, r.path)
               for d, r in compute_routes(graph, source).items()]
        want = [(d, r.next_hop, r.path_cost, r.path)
                for d, r in reference_compute_routes(graph, source).items()]
        assert got == want                 # same routes in the same order


# -- hysteresis -------------------------------------------------------------

def _route(cost):
    return Route(9, 1, cost, (0, 1, 9))


def test_switch_hysteresis_thresholds():
    assert not maybe_switch_route(_route(1.0), _route(0.95), h=0.1)
    assert maybe_switch_route(_route(1.0), _route(0.8), h=0.1)
    assert not maybe_switch_route(_route(1.0), _route(0.9), h=0.1)  # boundary
    assert maybe_switch_route(None, _route(5.0), h=0.1)
    assert not maybe_switch_route(_route(1.0), None, h=0.1)


# -- protocol behavior over a live medium -----------------------------------

def test_two_nodes_learn_symmetric_routes():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(4.0)
    r01 = net.routers[0].table[1]
    r10 = net.routers[1].table[0]
    assert r01.path == (0, 1) and r10.path == (1, 0)
    nl = net.routers[0].neighbors[1][0]
    assert nl.reported and nl.d_f > 0.9


def test_tc_duplicate_and_stale_are_ignored():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(4.0)
    router = net.routers[0]
    sent = []
    router._broadcast_ctrl = sent.append
    msg = {"type": "tc", "origin": 7, "seq": 5, "links": {8: 1.0}}
    router.receive_control(msg, 4.0)
    assert router.db[7]["links"] == {8: 1.0}
    router.receive_control({"type": "tc", "origin": 7, "seq": 5,
                            "links": {8: 9.0}}, 4.1)
    assert router.db[7]["links"] == {8: 1.0}   # duplicate seq: no change
    router.receive_control({"type": "tc", "origin": 7, "seq": 3,
                            "links": {8: 9.0}}, 4.2)
    assert router.seqs["tc"][7] == 5           # stale seq: ignored
    hna = {"type": "hna", "origin": 7, "seq": 2}
    router.receive_control(hna, 4.3)
    assert router.seqs["hna"][7] == 2          # HNA seqs are kept apart
    assert sent == [msg, hna]                  # each flood re-flooded once
    router.receive_control({"type": "tc", "origin": 0, "seq": 99,
                            "links": {}}, 9.1)
    assert sent == [msg, hna] and 0 not in router.db   # own flood: dropped
    assert 0 not in router.seqs["tc"]


def test_hna_receive_keeps_newest_seq_and_refloods_it_once():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}, server=0).run(4.0)
    router = net.routers[1]
    sent = []
    router._broadcast_ctrl = sent.append
    hna = {"type": "hna", "origin": 7, "seq": 2}
    router.receive_control(hna, 4.0)
    assert router.seqs["hna"][7] == 2 and sent == [hna]   # accepted, re-flooded
    router.receive_control(dict(hna), 4.1)            # duplicate
    router.receive_control({"type": "hna", "origin": 7, "seq": 1}, 4.2)  # stale
    assert router.seqs["hna"][7] == 2 and sent == [hna]
    router.receive_control({"type": "hna", "origin": 1, "seq": 99}, 4.3)
    assert 1 not in router.seqs["hna"] and sent == [hna]  # own flood: dropped
    newer = {"type": "hna", "origin": 7, "seq": 3}
    router.receive_control(newer, 4.4)
    assert router.seqs["hna"][7] == 3 and sent == [hna, newer]


def test_tc_flood_crosses_five_node_line():
    pos = [(i * 30, 0) for i in range(5)]      # only adjacent nodes in range
    ovr = {(i, i + 1): 1.0 for i in range(4)}
    net = make_net(pos, overrides=ovr).run(8.0)
    # far ends know about each other's links and have full routes
    assert 4 in net.routers[0].db
    assert net.routers[0].table[4].path == (0, 1, 2, 3, 4)
    assert net.routers[4].table[0].path == (4, 3, 2, 1, 0)


def test_missed_hellos_drop_neighbor_without_maintenance():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0},
                   maintenance=False).run(5.0)
    assert 1 in net.routers[0].table
    net.medium.outage(0, 1, 100.0)
    net.run(12.0)
    downs = net.events(0, "link_down")
    assert any("neighbor_lost" in info for (_t, info) in downs)
    assert any(t > 5.0 for (t, _info) in net.events(0, "tc_flood"))
    assert 1 not in net.routers[0].table


def test_failure_off_route_is_bookkeeping_only():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(4.0)
    router = net.routers[0]
    router.table = {}                      # no routes point at the neighbor
    before = len(net.events(0, "tc_flood"))
    router.handle_tx_failure(1, 0, net.engine.now)
    assert net.events(0, "tx_failure")
    assert not net.events(0, "suppress")
    assert len(net.events(0, "tc_flood")) == before


def test_good_link_failure_burst_suppresses_without_flood():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(5.0)
    router = net.routers[0]
    nl = router.neighbors[1][0]
    assert nl.long_term_score >= 0.7
    before = len(net.events(0, "tc_flood"))
    router.handle_tx_failure(1, 0, net.engine.now)
    assert net.events(0, "suppress")
    assert len(net.events(0, "tc_flood")) == before
    assert net.engine.now < nl.suppressed_until


def test_chronically_bad_link_goes_down_with_flood():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(5.0)
    router = net.routers[0]
    router.neighbors[1][0].long_term_score = 0.4
    router.handle_tx_failure(1, 0, net.engine.now)
    assert any("tx_failure" in info for (_t, info) in net.events(0, "link_down"))
    assert any(info == "tx_failure" for (_t, info) in net.events(0, "tc_flood"))


def test_suppression_strikes_force_down():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0},
                   max_suppressions=2, suppress_duration=0.0).run(5.0)
    router = net.routers[0]
    now = net.engine.now
    for _ in range(2):
        router.handle_tx_failure(1, 0, now)
    assert len(net.events(0, "suppress")) == 2
    router.handle_tx_failure(1, 0, now)    # third strike inside the window
    assert any("tx_failure" in info for (_t, info) in net.events(0, "link_down"))


def test_strikes_older_than_the_window_are_forgotten():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}, max_suppressions=2,
                   suppress_duration=0.0, strike_window=10.0).run(5.0)
    router = net.routers[0]
    nl = router.neighbors[1][0]
    for _ in range(2):
        router.handle_tx_failure(1, 0, net.engine.now)
    net.run(net.engine.now + 10.5)         # both strikes leave the window
    now = net.engine.now
    router.handle_tx_failure(1, 0, now)    # a third strike, but alone in it
    assert len(net.events(0, "suppress")) == 3
    assert not net.events(0, "link_down")
    assert list(nl.suppression_times) == [now]


def test_expired_tc_entry_is_left_out_of_the_graph():
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(4.0)
    router = net.routers[0]
    router._broadcast_ctrl = lambda msg: None
    router.receive_control({"type": "tc", "origin": 7, "seq": 1,
                            "links": {8: 1.0}}, 4.0)
    expires = 4.0 + 3 * 5.0                # hold_multiplier * tc_interval
    assert router._graph(expires, {})[7] == {8: 1.0}
    assert 7 not in router._graph(expires + 1e-9, {})


def test_hna_floods_reach_every_node_but_their_origin():
    pos = [(i * 10, 0) for i in range(3)]
    ovr = {(i, i + 1): 1.0 for i in range(2)}
    net = make_net(pos, overrides=ovr, server=0).run(8.0)
    hna = {nid: r.seqs["hna"] for nid, r in net.routers.items()}
    assert set(hna[1]) == set(hna[2]) == {0}
    assert hna[2][0] == net.routers[0]._seq["hna"]
    assert hna[0] == {}


def test_two_servers_announce_separately():
    pos = [(0, 0), (10, 0), (20, 0)]
    nodes_net = make_net(pos, overrides={(0, 1): 1.0, (1, 2): 1.0}, server=0)
    nodes_net.routers[2].is_server = True  # both ends announce
    net = nodes_net.run(8.0)
    hna = {nid: r.seqs["hna"] for nid, r in net.routers.items()}
    assert set(hna[1]) == {0, 2}
    assert set(hna[0]) == {2} and set(hna[2]) == {0}


def test_flood_copies_reach_only_nodes_that_accept_them():
    # on a lossless line every copy a neighbor could still accept is the
    # first it hears, so every copy that arrives must be taken
    pos = [(i * 30, 0) for i in range(5)]
    ovr = {(i, i + 1): 1.0 for i in range(4)}
    net = make_net(pos, overrides=ovr, server=0)
    sender, copies = [None], []
    broadcast = net.medium.broadcast

    def tagged_broadcast(node_id, bits, deliver, wanted=None):
        def tagged(receivers, t):
            sender[0] = node_id
            deliver(receivers, t)
        broadcast(node_id, bits, tagged, wanted)
    net.medium.broadcast = tagged_broadcast

    for router in net.routers.values():
        def spy(msg, t, r=router, receive=router.receive_control):
            origin = msg["origin"]
            copies.append((sender[0], r.node_id, msg["type"], origin,
                           msg["seq"], held_seq(r, msg["type"], origin)))
            receive(msg, t)
        router.receive_control = spy
    net.run(12.0)
    assert {(c[1], c[2], c[3]) for c in copies} >= {(4, "tc", 0), (4, "hna", 0),
                                                    (0, "tc", 4)}
    assert all(rx != origin for (_s, rx, _k, origin, _q, _h) in copies)
    keys = [c[:5] for c in copies]
    assert len(keys) == len(set(keys))     # one copy per sender and seq
    assert all(held < seq for (*_, seq, held) in copies)


def test_suppressed_link_penalized_until_release():
    # triangle: direct 0-2 plus detour via 1; suppressing the direct link
    # must move the route to the detour, and back after release
    pos = [(0, 0), (10, 10), (20, 0)]
    ovr = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}
    net = make_net(pos, overrides=ovr, suppress_duration=3.0).run(6.0)
    router = net.routers[0]
    assert router.table[2].path == (0, 2)
    router.handle_tx_failure(2, router.table[2].link_idx, net.engine.now)
    assert router.route_to(2).path == (0, 1, 2)
    net.run(12.0)                          # past suppression + recompute
    assert router.route_to(2).path == (0, 2)


# -- route_to fast path ----------------------------------------------------

def reference_route_to(router, dest):
    """Router.route_to as it was before routes carried their NeighborLink,
    kept as the oracle: it looks the neighbour link up on every call."""
    r = router.table.get(dest)
    if r is None:
        if router.dirty:
            router._recompute(router.engine.now)
            r = router.table.get(dest)
        return r
    links = router.neighbors.get(r.next_hop)
    nl = None if links is None else links.get(r.link_idx)
    if nl is None or router.engine.now < nl.suppressed_until:
        router._recompute(router.engine.now)
        r = router.table.get(dest)
    return r


def bound_to_its_neighbor_link(router, r):
    return r.nl is router.neighbors.get(r.next_hop, {}).get(r.link_idx)


def churn_scenario(maintenance):
    # long outages under calls suppress links and drop them, on missed
    # HELLOs and on tx failures; with one suppression allowed per link, a
    # silent link is dropped on its next strike
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["protocol"]["routing"].update(maintenance=maintenance, max_suppressions=1)
    raw["run"].update(duration=30.0, warmup=4.0)
    raw["workload"]["calls"].update(count=3, background=2, start=4.0)
    raw["workload"]["actions"] = [
        {"at": 6.0, "kind": "outage", "a": 0, "b": 1, "duration": 18.0},
        {"at": 7.0, "kind": "outage", "a": 1, "b": 2, "duration": 4.0},
        {"at": 9.0, "kind": "outage", "a": 8, "b": 9, "duration": 15.0},
        {"at": 12.0, "kind": "outage", "a": 1, "b": 2, "duration": 14.0},
    ]
    return Scenario.from_dict(raw, "route-to-churn")


def route_to_log(monkeypatch, maintenance, lookup):
    """Every route_to call of one run as (t, node, dest, route fields)."""
    calls = []

    def logged(router, dest):
        r = lookup(router, dest)
        calls.append((router.engine.now, router.node_id, dest, None if r is None
                      else (r.next_hop, r.path_cost, r.path, r.link_idx, r.forward)))
        return r
    monkeypatch.setattr(Router, "route_to", logged)
    sim = Simulation(churn_scenario(maintenance), 1)
    sim.run()
    monkeypatch.undo()
    kinds = [(kind, info.split()[-1]) for r in sim.routers.values()
             for (_t, kind, info) in r.events]
    return calls, kinds


@pytest.mark.parametrize("maintenance", [True, False])
def test_route_to_matches_reference_lookup(monkeypatch, maintenance):
    fast = Router.route_to
    unbound = []

    def checked(router, dest):
        before = router.table.get(dest)
        if before is not None and not bound_to_its_neighbor_link(router, before):
            unbound.append((router.engine.now, router.node_id, dest))
        r = fast(router, dest)
        if r is not None and not bound_to_its_neighbor_link(router, r):
            unbound.append((router.engine.now, router.node_id, dest))
        return r

    got, kinds = route_to_log(monkeypatch, maintenance, checked)
    want, _ = route_to_log(monkeypatch, maintenance, reference_route_to)
    assert unbound == []
    assert got == want
    # the run exercised what could unbind a route
    drops = {reason for kind, reason in kinds if kind == "link_down"}
    if maintenance:
        assert any(kind == "suppress" for kind, _reason in kinds)
        assert "neighbor_lost" in drops
    else:
        assert {"tx_failure", "neighbor_lost"} <= drops


# -- flood copies beaten in flight ----------------------------------------

def test_takes_keeps_the_newest_copy_in_flight():
    router = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(4.0).routers[0]
    flight = router.in_flight["tc"]

    def takes(kind, origin, seq, t_arrive):    # a copy sent to node 0
        return takes_copy(router.peers, kind, origin, seq, [(0, 0, t_arrive)]) != []
    assert takes("tc", 7, 5, 6.0)
    assert flight[7] == (5, 6.0)
    assert takes("tc", 7, 4, 5.0)          # earlier but older: still lands first
    assert flight[7] == (5, 6.0)           # and the newer copy stays the best
    assert not takes("tc", 7, 4, 7.0)      # beaten in flight
    assert not takes("tc", 7, 5, 6.0)      # a tie in time pops the first
    assert takes("tc", 7, 6, 8.0)          # a newer seq always lands
    assert flight[7] == (6, 8.0)
    assert router.in_flight["hna"] == {}   # kinds are kept apart
    assert not takes("tc", 0, 99, 6.0)     # our own flood
    # one broadcast reaching node 0 over two links at two instants: its
    # entries are judged in fan-out order, whichever lands first
    slow, fast = (0, 0, 9.5), (0, 1, 9.0)
    assert takes_copy(router.peers, "tc", 7, 7, [slow, fast]) == [slow, fast]
    assert flight[7] == (7, 9.0)           # the faster copy overtakes
    fast, slow = (0, 0, 10.0), (0, 1, 10.5)
    assert takes_copy(router.peers, "tc", 7, 8, [fast, slow]) == [fast]
    assert flight[7] == (8, 10.0)          # the slower copy is beaten in flight


def reference_wanted(router, msg):
    """The flood-copy test as it was before copies beaten in flight were
    left out, kept as the oracle: it asks only whether the neighbour is the
    origin or already holds the seq."""
    kind, origin, seq, peers = msg["type"], msg["origin"], msg["seq"], router.peers

    def wanted(nbr):
        return nbr != origin and held_seq(peers[nbr], kind, origin) < seq
    return wanted


def per_entry(check):
    """A per-neighbour flood check, check(nbr, t_arrive), as the batched
    wanted hook of Medium.broadcast: asked entry by entry in fan-out order."""
    return lambda reached: [entry for entry in reached if check(entry[0], entry[2])]


def per_receiver(deliver):
    """A per-receiver deliver(nbr, link_idx, t) as the batched deliver hook
    of Medium.broadcast: called receiver by receiver in fan-out order."""
    def batch(receivers, t):
        for nbr, link_idx in receivers:
            deliver(nbr, link_idx, t)
    return batch


def reference_broadcast_ctrl(router, msg):
    peers, wanted = router.peers, reference_wanted(router, msg)
    router.medium.broadcast(
        router.node_id, router.params.control_bits,
        per_receiver(lambda nbr, li, tt: peers[nbr].receive_control(msg, tt)),
        per_entry(lambda nbr, _t: wanted(nbr)))


def held_seq(router, kind, origin):
    return router.seqs[kind].get(origin, 0)


class FloodRun(NamedTuple):
    """What flood_run logs: the flood copies taken on arrival as (t,
    receiver, kind, origin, seq), the number dropped on arrival, the run
    state without the event count, that count, every process_hello call as
    (t, receiver, link index), and every entry a wanted hook kept as
    (broadcast number, t, sender, neighbour, link index, t_arrive)."""
    accepted: list
    dropped: int
    state: dict
    events: int
    hellos: list
    taken: list


def flood_run(monkeypatch, scn, broadcast=None, **router_methods):
    """One seed-1 run of scn, with broadcast standing in for Medium.broadcast
    and each of router_methods for the Router method of its name."""
    accepted, dropped, hellos, taken = [], [], [], []
    receive, hello = Router.receive_control, Router.process_hello
    base, sent = broadcast or Medium.broadcast, [0]

    def logged(router, msg, t):
        copy = (t, router.node_id, msg["type"], msg["origin"], msg["seq"])
        before = held_seq(router, msg["type"], msg["origin"])
        receive(router, msg, t)
        if held_seq(router, msg["type"], msg["origin"]) != before:
            accepted.append(copy)
        else:
            dropped.append(copy)

    def logged_hello(router, msg, link_idx, t):
        hellos.append((t, router.node_id, link_idx))
        hello(router, msg, link_idx, t)

    def logged_broadcast(medium, node_id, bits, deliver, wanted=None):
        sent[0] += 1
        if wanted is not None:
            def wanted(reached, check=wanted, n=sent[0], now=medium.engine.now):
                kept = check(reached)
                taken.extend((n, now, node_id, *entry) for entry in kept)
                return kept
        base(medium, node_id, bits, deliver, wanted)
    monkeypatch.setattr(Router, "receive_control", logged)
    monkeypatch.setattr(Router, "process_hello", logged_hello)
    monkeypatch.setattr(Medium, "broadcast", logged_broadcast)
    for name, method in router_methods.items():
        monkeypatch.setattr(Router, name, method)
    state = run_state(Simulation(scn, 1))
    monkeypatch.undo()
    events = state["engine"].pop("events_processed")
    return FloodRun(accepted, len(dropped), state, events, hellos, taken)


@pytest.mark.parametrize("variant", sorted(RUN_STATE_VARIANTS))
def test_flood_elision_leaves_the_run_unchanged(monkeypatch, variant):
    scenario = RUN_STATE_VARIANTS[variant]
    got = flood_run(monkeypatch, scenario())
    want = flood_run(monkeypatch, scenario(), _broadcast_ctrl=reference_broadcast_ctrl)
    assert got.accepted == want.accepted   # same copies taken at the same times
    assert got.state == want.state
    assert got.events < want.events
    assert got.dropped < want.dropped
    if variant == "mixed-rate":
        assert got.dropped > 0             # overtaking copies still arrive
    else:
        assert got.dropped == 0


def test_no_flood_copy_dropped_on_arrival_at_equal_rates(monkeypatch):
    run = flood_run(monkeypatch, churn_scenario(True))
    assert {kind for (_t, _rx, kind, _o, _q) in run.accepted} == {"tc", "hna"}
    assert run.dropped == 0


# -- one event per broadcast arrival instant --------------------------------

def reference_broadcast(medium, node_id, bits, deliver, wanted=None):
    """Medium.broadcast as it was before arrivals were batched, kept as the
    oracle: one event per reached neighbour link. It takes the batched
    hooks, asking wanted about one entry at a time and delivering one
    receiver per event; it books airtime by hand, so it bumps the busy-sum
    epoch too."""
    engine = medium.engine
    now = engine.now
    medium._epoch += 1
    for nbr, link_idx, d, capacity, slot in medium._fanout.get(node_id, ()):
        if slot is not None:
            air = bits / capacity
            medium._cur_air[slot] += air
            medium._win_air[slot] += air
            engine.stats.frames_sent += 1
        if medium._random() < medium._p[d]:
            t_arrive = now + bits / capacity
            if wanted is None or wanted([(nbr, link_idx, t_arrive)]):
                engine.schedule(t_arrive, partial(deliver, [(nbr, link_idx)], t_arrive))


@pytest.mark.parametrize("variant", sorted(RUN_STATE_VARIANTS))
def test_broadcast_batching_leaves_the_run_unchanged(monkeypatch, variant):
    scenario = RUN_STATE_VARIANTS[variant]
    got = flood_run(monkeypatch, scenario())
    want = flood_run(monkeypatch, scenario(), broadcast=reference_broadcast)
    assert got.accepted == want.accepted   # same copies taken at the same times
    assert got.taken == want.taken         # and scheduled by the same checks
    assert got.hellos == want.hellos       # same HELLOs heard, in the same order
    assert got.state == want.state
    assert got.events < want.events


# -- control plane with fewer frames ----------------------------------------

def reference_link_cost(router, nl):
    """Router._link_cost as it was before link costs were computed inline
    in _local_links, kept with the three references below as the oracle."""
    if router.params.metric == "hop_count":
        return 1.0
    busy = router.medium.busy_fraction(nl.link_idx)
    return metrics.elp_link(nl.d_f, nl.d_r, busy, nl.capacity, router.elp)


def reference_local_links(router, now, advertise=False):
    p = router.params
    hold = p.hold_multiplier * p.hello_interval
    out = {}
    for nbr_id, links in sorted(router.neighbors.items()):
        best = None
        for _li, nl in sorted(links.items()):
            suppressed = now < nl.suppressed_until
            alive = (nl.reported and nl.last_heard >= 0
                     and now - nl.last_heard <= hold)
            if not alive and not suppressed:
                continue
            cost = reference_link_cost(router, nl)
            if cost is None:
                continue
            if suppressed and not advertise:
                cost *= router.SUPPRESS_PENALTY
            if best is None or cost < best[0]:
                best = (cost, nl)
        if best is not None:
            out[nbr_id] = best
    return out


def reference_graph(router, now, local):
    graph = {}
    for origin in sorted(router.db):
        entry = router.db[origin]
        if entry["expires"] < now:
            continue
        graph[origin] = entry["links"]
    graph[router.node_id] = {nbr: cost for nbr, (cost, _nl) in local.items()}
    return graph


def reference_bind(route, nl):
    route.link_idx, route.forward, route.nl = nl.link_idx, nl.forward, nl


def reference_recompute(router, now):
    router.dirty = False
    local = router._local_links(now)
    graph = reference_graph(router, now, local)
    fresh = compute_routes(graph, router.node_id)
    table = {}
    h = router.params.hysteresis
    for dest in fresh:
        cand = fresh[dest]
        reference_bind(cand, local[cand.next_hop][1])
        cur = router.table.get(dest)
        cur_valid = (cur is not None and cur.next_hop in local
                     and now >= cur.nl.suppressed_until)
        if cur_valid:
            path = cur.path
            prev = path[0]
            for hop in path[1:]:
                if hop not in graph.get(prev, {}):
                    cur_valid = False
                    break
                prev = hop
        if not cur_valid:
            if cur is not None:
                router.log("route_switch", f"dest={dest} invalidated")
            table[dest] = cand
        elif cand.path == cur.path:
            table[dest] = cand
        elif maybe_switch_route(cur, cand, h):
            router.log("route_switch", f"dest={dest} {cur.path}->{cand.path}")
            table[dest] = cand
        else:
            reference_bind(cur, local[cur.next_hop][1])
            table[dest] = cur
    for dest, cur in router.table.items():
        if dest not in table:
            router.log("route_switch", f"dest={dest} lost")
    router.table = table


def reference_takes_copy(peers, kind, origin, seq, nbr, t_arrive) -> bool:
    """routing.takes_copy as it was before it judged a whole broadcast in
    one call: whether peers[nbr] takes one copy."""
    rt = peers[nbr]
    if origin == nbr or seq <= rt.seqs[kind].get(origin, 0):
        return False
    flight = rt.in_flight[kind]
    best = flight.get(origin)
    if best is not None:
        best_seq, best_t = best
        if best_seq >= seq and best_t <= t_arrive:
            return False
        if best_seq > seq:
            return True
    flight[origin] = (seq, t_arrive)
    return True


def reference_takes_broadcast_ctrl(router, msg):
    """Router._broadcast_ctrl as it was before its hooks took batches: the
    per-neighbour takes_copy and a per-receiver lambda, through adapters."""
    peers = router.peers
    router.medium.broadcast(
        router.node_id, router.params.control_bits,
        per_receiver(lambda nbr, li, tt: peers[nbr].receive_control(msg, tt)),
        per_entry(partial(reference_takes_copy, peers, msg["type"], msg["origin"],
                          msg["seq"])))


def reference_hello_tick(router):
    """Router._hello_tick as it was before one pass over the neighbour
    tables aged the ratios, listed the silent links and built the HELLO:
    three passes, and a per-receiver lambda through an adapter."""
    now = router.engine.now
    alpha = router.elp.ewma_alpha
    for links in router.neighbors.values():
        for nl in links.values():
            x = 1.0 if nl.heard_since_tick else 0.0
            nl.d_r = (1.0 - alpha) * nl.d_r + alpha * x
            nl.heard_since_tick = False
    reference_expire_neighbors(router, now)
    ratios = {li: nl.d_r
              for links in router.neighbors.values() for li, nl in links.items()}
    msg = {"type": "hello", "origin": router.node_id, "ratios": ratios}
    peers = router.peers
    router.medium.broadcast(
        router.node_id, router.params.control_bits,
        per_receiver(lambda nbr, li, tt: peers[nbr].process_hello(msg, li, tt)))
    router.engine.schedule(now + router.params.hello_interval, router._hello_tick)


def reference_expire_neighbors(router, now):
    """_expire_neighbors as it was before it listed the silent links first:
    it walks a copy of every neighbour's links."""
    p = router.params
    hold = p.hold_multiplier * p.hello_interval
    for nbr_id in list(router.neighbors):
        for li, nl in list(router.neighbors[nbr_id].items()):
            if nl.last_heard < 0 or now - nl.last_heard <= hold:
                continue
            if now < nl.suppressed_until:
                continue
            if (p.maintenance and nl.long_term_score >= p.long_term_threshold
                    and router._suppression_allowed(nl, now)):
                router._suppress(nbr_id, nl, now, "missed hellos")
            else:
                router._drop_neighbor_link(nbr_id, li, now, "neighbor_lost")


def hop_count_scenario():
    raw = run_state_raw()
    raw["protocol"]["metric"] = "hop_count"
    return Scenario.from_dict(raw, "indoor22-run-state-hop-count")


CONTROL_PLANE_VARIANTS = {**RUN_STATE_VARIANTS,
                          "churn-maintained": partial(churn_scenario, True),
                          "churn-unmaintained": partial(churn_scenario, False),
                          "hop-count": hop_count_scenario}


def control_plane_run(monkeypatch, scn, reference):
    """One seed-1 run of scn, with the reference control plane or today's:
    every router's table at each _recompute exit, whether some neighbour
    then had two links, every router's in_flight and the run state."""
    tables, two_links = [], [False]
    recompute = reference_recompute if reference else Router._recompute

    def logged(router, now):
        recompute(router, now)
        nbrs = router.neighbors
        tables.append((router.engine.now, router.node_id, [
            (d, r.next_hop, r.path_cost, r.path, r.link_idx, r.forward,
             r.nl is nbrs.get(r.next_hop, {}).get(r.link_idx))
            for d, r in router.table.items()]))
        two_links[0] = two_links[0] or any(len(ls) > 1 for ls in nbrs.values())
    monkeypatch.setattr(Router, "_recompute", logged)
    if reference:
        monkeypatch.setattr(Router, "_local_links", reference_local_links)
        monkeypatch.setattr(Router, "_broadcast_ctrl", reference_takes_broadcast_ctrl)
        monkeypatch.setattr(Router, "_hello_tick", reference_hello_tick)
    sim = Simulation(scn, 1)
    state = run_state(sim)
    monkeypatch.undo()
    flights = {nid: r.in_flight for nid, r in sim.routers.items()}
    return tables, two_links[0], flights, state


@pytest.mark.parametrize("variant", sorted(CONTROL_PLANE_VARIANTS))
def test_control_plane_matches_reference(monkeypatch, variant):
    scenario = CONTROL_PLANE_VARIANTS[variant]
    got = control_plane_run(monkeypatch, scenario(), reference=False)
    want = control_plane_run(monkeypatch, scenario(), reference=True)
    tables, two_links, flights, state = got
    assert tables == want[0]               # same table at every recompute exit
    assert all(bound for (_t, _n, rows) in tables for *_, bound in rows)
    assert flights == want[2]
    assert state == want[3]                # router logs (t, kind, info) too
    assert two_links                       # both branches of _local_links ran
    assert any(kind == "route_switch" for r in state["routers"].values()
               for (_t, kind, _info) in r["events"])


# -- batched broadcast hooks and shared busy sums ---------------------------

def two_rate_radio_scenario():
    """The run-state scenario with, by node id, neither radio, the channel-1
    one or the channel-6 one at 5.5 Mb/s and the other at 12 Mb/s. A link
    runs at its slower end's rate, so a neighbour reached over both of its
    links hears one copy before the other; the channel-1 link comes first in
    the fan-out, and some neighbours hear its copy first, others last."""
    raw = run_state_raw()
    for node in raw["topology"]["nodes"]:
        slow = (None, 1, 6)[node["id"] % 3]
        for radio in node["radios"]:
            radio["nominal_rate"] = 5.5e6 if radio["channel"] == slow else 12e6
    return Scenario.from_dict(raw, "indoor22-run-state-two-rate")


BATCH_VARIANTS = {**CONTROL_PLANE_VARIANTS, "two-rate-radios": two_rate_radio_scenario}


def reached_twice(taken):
    """Whether some broadcast kept copies to one neighbour at two instants."""
    instants = {}
    for n, _t, _sender, nbr, _li, t_arrive in taken:
        instants.setdefault((n, nbr), set()).add(t_arrive)
    return any(len(ts) > 1 for ts in instants.values())


@pytest.mark.parametrize("variant", sorted(BATCH_VARIANTS))
def test_batched_broadcast_hooks_match_reference(monkeypatch, variant):
    scenario = BATCH_VARIANTS[variant]
    got = flood_run(monkeypatch, scenario())
    want = flood_run(monkeypatch, scenario(),
                     _broadcast_ctrl=reference_takes_broadcast_ctrl,
                     _hello_tick=reference_hello_tick)
    assert got.taken == want.taken         # the flood check kept the same copies
    assert got.accepted == want.accepted
    assert got.hellos == want.hellos       # same HELLOs heard, in the same order
    assert got.state == want.state
    assert got.events == want.events
    assert got.taken and got.hellos
    # only where a channel is slower can one broadcast reach a neighbour
    # over two links at two instants, and its entries' order then matters
    assert reached_twice(got.taken) == (variant == "two-rate-radios")


def outdoor7_call_scenario():
    with open(preset_path("outdoor7")) as fh:
        raw = yaml.safe_load(fh)
    raw["run"].update(duration=20.0, warmup=4.0)
    raw["workload"]["calls"].update(count=3, background=2, start=4.0)
    return Scenario.from_dict(raw, "outdoor7-busy-calls")


def reference_busy_fraction(medium, cache, link_idx):
    """Medium.busy_fraction as it was before links shared their domain's
    sum: the per-link 0.05 s cache over a plain re-sum of the airtime of the
    transmitter slots that the link's endpoints sense."""
    now = medium.engine.now
    t, b = cache.get(link_idx, (-1.0, 0.0))
    if now - t < 0.05:
        return b
    link = medium.topo.links[link_idx]
    air = 0.0
    for nid in medium.topo.sensed[link_idx]:
        air += medium._win_air[medium._slot_of[(nid, link.channel)]]
    b = min(air / medium.params.busy_window, BUSY_MAX)
    cache[link_idx] = (now, b)
    return b


BUSY_VARIANTS = {"churn": partial(churn_scenario, True),
                 "outdoor7-calls": outdoor7_call_scenario}


@pytest.mark.parametrize("variant", sorted(BUSY_VARIANTS))
def test_busy_fraction_equals_a_plain_resum(monkeypatch, variant):
    # every value, cache hits included, against the sum it stands for; a
    # read between a bucket rotation and the next booking is rare in these
    # runs, so test_engine.py checks the rotation's epoch bump directly
    busy = Medium.busy_fraction
    cache, wrong, counts = {}, [], {"shared": 0, "busy": 0}

    def checked(medium, link_idx):
        now = medium.engine.now
        if (now - medium._busy_cache_t[link_idx] >= 0.05
                and medium._domain[link_idx][0] == medium._epoch):
            counts["shared"] += 1          # a miss answered by the domain's sum
        b = busy(medium, link_idx)
        want = reference_busy_fraction(medium, cache, link_idx)
        if b != want:
            wrong.append((now, link_idx, b, want))
        counts["busy"] += b > 0
        return b
    monkeypatch.setattr(Medium, "busy_fraction", checked)
    Simulation(BUSY_VARIANTS[variant](), 1).run()
    monkeypatch.undo()
    assert wrong == []
    assert counts["shared"] > 0 and counts["busy"] > 0
