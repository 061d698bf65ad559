import heapq
import math
from collections import deque
from functools import partial

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from meshsim import metrics, preset_path
from meshsim.engine import Medium, rng_stream
from meshsim.harness import Simulation
from meshsim.metrics import BUSY_MAX
from meshsim.routing import Route, compute_routes, maybe_switch_route, takes_copy
from meshsim.scenario import Scenario

from conftest import make_net
from runstate import churn_scenario, held_seq


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


def test_failure_on_a_dropped_link_is_ignored():
    # a second failure notice for a link its first one brought down
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(5.0)
    router = net.routers[0]
    router.neighbors[1][0].long_term_score = 0.4
    router.handle_tx_failure(1, 0, net.engine.now)
    assert 1 not in router.neighbors
    events = list(router.events)
    router.handle_tx_failure(1, 0, net.engine.now)
    assert router.events == events


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


# the maintainer's rule for a troubled link, one row per input it reads:
# (maintenance on, the score the rule reads is at long_term_threshold
# rather than just below it, the strike window has room, the link's fate)
TROUBLE_RULE = [
    (True, True, True, "suppress"),
    (True, True, False, "link_down"),
    (True, False, True, "link_down"),
    (True, False, False, "link_down"),
    (False, True, True, "link_down"),
    (False, True, False, "link_down"),
    (False, False, True, "link_down"),
    (False, False, False, "link_down"),
]


@pytest.mark.parametrize("maintenance, at_threshold, room, fate", TROUBLE_RULE)
def test_silence_and_tx_failure_share_one_rule(maintenance, at_threshold, room, fate):
    """A link silent past the hold and an on-route tx failure burst meet the
    same fate, logged with their own why or reason, and leave the same
    strikes behind."""
    strikes = {}
    for trigger, why, reason in (("hello", "missed hellos", "neighbor_lost"),
                                 ("tx", "tx failure burst", "tx_failure")):
        net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0},
                       maintenance=maintenance, max_suppressions=2).run(5.0)
        router, now = net.routers[0], net.engine.now
        p, nl = router.params, router.neighbors[1][0]
        nl.long_term_score = 0.8
        # a tx failure decays the score before the rule reads it
        score = (1 - p.long_term_alpha) * 0.8 if trigger == "tx" else 0.8
        p.long_term_threshold = score if at_threshold else math.nextafter(score, 1.0)
        # two strikes fill the window; one older than the window leaves room
        nl.suppression_times = deque([now - (61.0 if room else 1.0), now - 0.5])
        before = len(router.events)
        if trigger == "hello":
            nl.last_heard = now - p.hold_multiplier * p.hello_interval - 0.01
            router._hello_tick()
        else:
            router.handle_tx_failure(1, 0, now)
        acts = [(kind, info) for (_t, kind, info) in router.events[before:]
                if kind in ("suppress", "link_down")]
        info = f"({why})" if fate == "suppress" else reason
        assert acts == [(fate, f"nbr=1 link=0 {info}")], trigger
        strikes[trigger] = (now, list(nl.suppression_times))
    assert strikes["hello"] == strikes["tx"]


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


@pytest.mark.parametrize("ratio", ["d_f", "d_r"])
def test_link_below_the_dead_ratio_is_left_out(ratio):
    net = make_net([(0, 0), (10, 0)], overrides={(0, 1): 1.0}).run(4.0)
    router, now = net.routers[0], net.engine.now
    assert set(router._local_links(now)) == {1}
    setattr(router.neighbors[1][0], ratio, metrics.DEAD_RATIO / 2)
    assert router._local_links(now) == {}
    assert router._local_links(now, advertise=True) == {}


def test_suppressed_link_penalized_until_release():
    # triangle: direct 0-2 plus detour via 1; suppressing the direct link
    # must move the route to the detour, and back after release
    pos = [(0, 0), (10, 10), (20, 0)]
    ovr = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}
    net = make_net(pos, overrides=ovr, suppress_duration=3.0).run(6.0)
    router = net.routers[0]
    assert router.table[2].path == (0, 2)
    router.handle_tx_failure(2, router.table[2].nl.link_idx, net.engine.now)
    assert router.route_to(2).path == (0, 1, 2)
    net.run(12.0)                          # past suppression + recompute
    assert router.route_to(2).path == (0, 2)


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


# -- shared busy sums -------------------------------------------------------

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
