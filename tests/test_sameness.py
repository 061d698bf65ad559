"""Sameness of a run with the code that a byte-identical change replaced.

Such a change keeps that code here, as a reference_* function or an
adapter, and adds a row to ROWS. test_matches_reference runs each variant
of a row with the reference installed and compares its act log
(runstate.act_log) with today's, computed once per variant.
"""

import marshal
import operator
from functools import partial

import pytest

from meshsim import metrics, services
from meshsim.engine import Medium
from meshsim.routing import Router, compute_routes, maybe_switch_route

from runstate import VARIANTS, act_log, current_acts, held_seq


# -- the code that byte-identical changes replaced ---------------------------


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
    nl = None if links is None else links.get(r.nl.link_idx)
    if nl is None or router.engine.now < nl.suppressed_until:
        router._recompute(router.engine.now)
        r = router.table.get(dest)
    return r


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
    route.nl = nl


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


class OneLegFlowRunner:
    """FlowRunner as it was before the legs of a stream shared one tick
    event, kept as the oracle: a CBR generator for one unidirectional flow."""

    def __init__(self, net, src_node, dst_node, packet_bits, interval,
                 t_end, record):
        self.net = net
        self.src_node = src_node
        self.dst_node = dst_node
        self.packet_bits = packet_bits
        self.interval = interval
        self.t_end = t_end
        self.record = record

    def start(self):
        self._tick()
        return self

    def _tick(self):
        net = self.net
        now = net.now()
        if now >= self.t_end:
            return
        record = self.record
        record.on_send(now)
        net.send(self.src_node, self.dst_node, self.packet_bits,
                 partial(record.on_recv, now))
        net.schedule(now + self.interval, self._tick)


class reference_flow_runner:
    """Stands in for FlowRunner: one OneLegFlowRunner per leg, started in
    leg order, so each leg ticks as its own event."""

    def __init__(self, net, legs, packet_bits, interval, t_end):
        self.legs = legs
        self.runners = [OneLegFlowRunner(net, src, dst, packet_bits, interval,
                                         t_end, record)
                        for src, dst, record in legs]

    def start(self):
        for runner in self.runners:
            runner.start()
        return self

# -- the registry -----------------------------------------------------------

# name: (patches, variants, relation, same_kept). patches are (owner, name,
# reference) triples. relation compares today's events and seqs with the
# reference run's: operator.eq, or operator.lt for a change that folds
# events or leaves some out. With same_kept the flood checks keep the same
# entries, in_flight and drops on arrival; without, today's run drops fewer.
CONTROL_PLANE_VARIANTS = ("churn-maintained", "churn-unmaintained",
                          "equal-rate", "hop-count", "mixed-rate")
BATCHED_HOOKS = ((Router, "_broadcast_ctrl", reference_takes_broadcast_ctrl),
                 (Router, "_hello_tick", reference_hello_tick))
ROWS = {
    "route-to-lookup": (((Router, "route_to", reference_route_to),),
                        ("churn-maintained", "churn-unmaintained"), operator.eq, True),
    "flood-elision": (((Router, "_broadcast_ctrl", reference_broadcast_ctrl),),
                      ("equal-rate", "mixed-rate"), operator.lt, False),
    "broadcast-batching": (((Medium, "broadcast", reference_broadcast),),
                           ("equal-rate", "mixed-rate"), operator.lt, True),
    "stream-fold": (((services, "FlowRunner", reference_flow_runner),),
                    ("equal-rate", "mixed-rate", "services"), operator.lt, True),
    "control-plane": (((Router, "_recompute", reference_recompute),
                       (Router, "_local_links", reference_local_links), *BATCHED_HOOKS),
                      CONTROL_PLANE_VARIANTS, operator.eq, True),
    "batched-hooks": (BATCHED_HOOKS, (*CONTROL_PLANE_VARIANTS, "two-rate-radios"),
                      operator.eq, True),
}
CASES = [(name, variant) for name, row in ROWS.items() for variant in row[1]]


@pytest.mark.parametrize("name,variant", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_matches_reference(name, variant):
    patches, _variants, relation, same_kept = ROWS[name]
    got, want = current_acts(variant), act_log(VARIANTS[variant](), 1, patches)
    if got.acts != want.acts:              # unpacked, pytest shows where they part
        assert marshal.loads(got.acts) == marshal.loads(want.acts)
    assert relation(got.events, want.events) and relation(got.seqs, want.seqs)
    if same_kept:
        assert got.kept == want.kept
        assert (got.in_flight, got.dropped) == (want.in_flight, want.dropped)
    else:
        assert got.dropped < want.dropped


def spread(pairs):
    """Whether some key of the (key, value) pairs comes with two values."""
    values = {}
    for key, value in pairs:
        values.setdefault(key, set()).add(value)
    return any(len(v) > 1 for v in values.values())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_runs_what_its_rows_compare(variant):
    run, acts = current_acts(variant), {}
    for act in marshal.loads(run.acts):
        acts.setdefault(act[0], []).append(act)
    events = [(kind, info) for r in acts["end"][0][1]["routers"].values()
              for _t, kind, info in r["events"]]
    kinds = {kind for kind, _info in events}
    drops = {info.split()[-1] for kind, info in events if kind == "link_down"}
    # route_to relies on every table route being bound to its live link
    assert all(row[-1] for *_, rows in acts["table"] for row in rows)
    assert all(row is None or row[-1] for *_, row in acts["route_to"])
    assert "route_switch" in kinds
    # a router heard a neighbour over two links: both branches of _local_links
    assert spread(((rx, origin), li) for _, _t, rx, origin, li in acts["hello"])
    assert {kind for *_, kind, _origin, _seq in acts["copy"]} == {"tc", "hna"}
    # copies are dropped on arrival only where links differ in rate, and only
    # a slower channel lets one broadcast reach a neighbour at two instants
    assert (run.dropped > 0) == (variant in ("mixed-rate", "two-rate-radios"))
    assert spread(((n, nbr), t_arrive) for n, _t, _sender, nbr, _li, t_arrive
                  in run.kept) == (variant == "two-rate-radios")
    if variant == "churn-maintained":
        assert "suppress" in kinds and "neighbor_lost" in drops
    if variant == "churn-unmaintained":
        assert {"tx_failure", "neighbor_lost"} <= drops
