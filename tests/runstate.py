"""The pinned test scenarios, the state of a finished run, and the act log.

act_log records what a run does, in the order it does it. Each variant's
act-log digest is pinned in tests/test_fingerprint.py, and
tests/test_sameness.py compares act logs of runs with a kept reference
installed against today's.
"""

import dataclasses
import functools
import marshal
from typing import NamedTuple

import yaml

from meshsim import preset_path
from meshsim.engine import Medium
from meshsim.harness import Simulation
from meshsim.routing import Router
from meshsim.scenario import Scenario
from meshsim.services import FlowRecord

# Outages (two overlapping on 0<->1), SMS and one file transfer over calls
# 2 / bg 1: the run-state digest covers what the exports cannot see, such as
# every router's log and final table.
RUN_STATE_ACTIONS = [
    {"at": 8.0, "kind": "outage", "a": 0, "b": 1, "duration": 6.0},
    {"at": 9.0, "kind": "sms", "src": "c02", "dst": "c07"},
    {"at": 10.0, "kind": "outage", "a": 0, "b": 1, "duration": 3.0},
    {"at": 11.0, "kind": "file", "src": "c03", "dst": "c09", "size": 64000.0,
     "chunk_size": 8000.0},
    {"at": 12.0, "kind": "outage", "a": 1, "b": 2, "duration": 15.0},
    {"at": 13.0, "kind": "sms", "src": "c05", "dst": "c01"},
    {"at": 15.0, "kind": "outage", "a": 8, "b": 9, "duration": 4.0},
    {"at": 17.0, "kind": "sms", "src": "c08", "dst": "c04"},
]


def run_state_raw():
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["run"].update(duration=30.0, warmup=6.0)
    raw["workload"]["calls"].update(count=2, background=1)
    raw["workload"]["actions"] = RUN_STATE_ACTIONS
    return raw


def run_state_scenario():
    return Scenario.from_dict(run_state_raw(), "indoor22-run-state")


def mixed_rate_run_state_scenario():
    """The run-state scenario with each node's radios at 2, 5.5 or 12 Mb/s
    by node id, so a copy sent later over a faster link can overtake one
    already in flight."""
    raw = run_state_raw()
    for node in raw["topology"]["nodes"]:
        for radio in node["radios"]:
            radio["nominal_rate"] = (2e6, 5.5e6, 12e6)[node["id"] % 3]
    return Scenario.from_dict(raw, "indoor22-run-state-mixed-rate")


def hop_count_scenario():
    raw = run_state_raw()
    raw["protocol"]["metric"] = "hop_count"
    return Scenario.from_dict(raw, "indoor22-run-state-hop-count")


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


# Every service kind on one indoor22 run: broadcast audio, an accepted, a
# declined and a late video, a call action, a re-attach of that call's caller
# while the call runs (the call keeps the nodes it started between), an SMS,
# a file transfer and an outage, on top of calls 3 / bg 2.
SERVICE_ACTIONS = [
    {"at": 8.0, "kind": "broadcast_audio", "duration": 20.0},
    {"at": 9.0, "kind": "video_request", "src": "c01", "dst": "c05"},
    {"at": 9.5, "kind": "video_request", "src": "c02", "dst": "c04"},
    {"at": 10.0, "kind": "call", "src": "c06", "dst": "c09"},
    {"at": 11.0, "kind": "attach", "client": "c06", "node": 12},
    {"at": 12.0, "kind": "sms", "src": "c03", "dst": "c08"},
    {"at": 13.0, "kind": "file", "src": "c07", "dst": "c10", "size": 80000.0,
     "chunk_size": 8000.0},
    {"at": 14.0, "kind": "outage", "a": 0, "b": 1},
    {"at": 15.0, "kind": "video_request", "src": "c03", "dst": "c07",
     "response": "accept"},
]


def service_scenario():
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["run"].update(duration=40.0, warmup=6.0)
    workload = raw["workload"]
    workload["calls"].update(count=3, background=2)
    for client in workload["clients"]:
        if client["id"] == "c04":
            client["video_answer"] = "decline"
    workload["actions"] = SERVICE_ACTIONS
    return Scenario.from_dict(raw, "indoor22-services")


# The scenarios whose act logs are pinned, each run at seed 1.
VARIANTS = {
    "equal-rate": run_state_scenario,
    "mixed-rate": mixed_rate_run_state_scenario,
    "two-rate-radios": two_rate_radio_scenario,
    "hop-count": hop_count_scenario,
    "churn-maintained": functools.partial(churn_scenario, True),
    "churn-unmaintained": functools.partial(churn_scenario, False),
    "services": service_scenario,
}


def deliveries(server):
    """Each relayed message's outcome, by message id."""
    d = server.deliveries
    return [[k, d[k].phase, d[k].retries_used] for k in sorted(d)]


def flows(records):
    """Each flow record's counts and admission flag."""
    return [[f.flow_id, f.kind, f.src, f.dst, f.sent, f.delivered, f.admitted]
            for f in records]


def run_state(sim):
    """Routers' logs and tables, engine and transport counts, admission
    log and relay outcomes of one finished run."""
    report = sim.run()
    return {
        "routers": {str(nid): {
            "events": [list(e) for e in r.events],
            "table": [[d, t.next_hop, t.path_cost, list(t.path), t.nl.link_idx,
                       t.nl.forward] for d, t in r.table.items()]}
            for nid, r in sorted(sim.routers.items())},
        "engine": dataclasses.asdict(sim.engine.stats),
        "no_route_drops": sim.transport.no_route_drops,
        "admission": [list(e) for e in report.admission_log],
        "deliveries": deliveries(sim.server),
    }


def held_seq(router, kind, origin):
    return router.seqs[kind].get(origin, 0)


def route_row(router, r):
    """A route's fields, and whether it is bound to its live neighbour link."""
    return (r.dest, r.next_hop, r.path_cost, r.path, r.nl.link_idx, r.nl.forward,
            r.nl is router.neighbors.get(r.next_hop, {}).get(r.nl.link_idx))


class ActLog(NamedTuple):
    """One run as act_log saw it. acts is what sameness means; the other
    fields may move by design when a change folds events that run back to
    back, or leaves out flood copies certain to be dropped."""
    acts: bytes     # the run's acts in execution order, then ("end", state)
    events: int     # events run
    seqs: int       # engine seqs taken, one per event scheduled
    kept: list      # (broadcast's index in acts, t, sender, *entry kept)
    in_flight: dict  # node -> its Router.in_flight at the end
    dropped: int    # flood copies that arrived and were not taken


def act_log(scenario, seed, patches=()):
    """Run scenario at seed and log its observable acts.

    patches are (owner, name, value) triples set in place for the run, such
    as (Router, "route_to", reference_route_to); the log wraps whatever is
    then installed. Acts are tagged tuples in execution order:
    ("transmit", t_start, link_idx, forward, attempts, delivered, t_done),
    ("broadcast", t, sender, [(nbr, link_idx, t_arrive) whose coin passed]),
    ("copy", t, receiver, kind, origin, seq) once a flood copy is taken,
    ("hello", t, receiver, origin, link_idx), ("recv", flow_id, t_sent,
    t_arrived) per FlowRecord.on_recv, ("route_to", t, node, dest, route_row
    or None), ("table", t, node, route_rows) at each Router._recompute exit,
    and last ("end", run_state without events_processed, with the flows).
    """
    acts, kept, dropped, installed = [], [], [0], []
    log = acts.append

    def install(owner, name, value):
        installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def observe(owner, name, act):
        """Wrap owner.name to log act(result, *args) after each call."""
        def logged(*args, fn=getattr(owner, name)):
            out = fn(*args)
            log(act(out, *args))
            return out
        install(owner, name, logged)

    try:
        for patch in patches:
            install(*patch)
        broadcast, receive = Medium.broadcast, Router.receive_control

        def logged_broadcast(medium, node_id, bits, deliver, wanted=None):
            n, now, reached = len(acts), medium.engine.now, []
            log(("broadcast", now, node_id, reached))

            def logged_wanted(entries):
                reached.extend(entries)
                if wanted is None:
                    return entries
                keep = wanted(entries)
                kept.extend((n, now, node_id, *entry) for entry in keep)
                return keep
            broadcast(medium, node_id, bits, deliver, logged_wanted)

        def logged_receive(router, msg, t):
            kind, origin = msg["type"], msg["origin"]
            before = held_seq(router, kind, origin)
            receive(router, msg, t)
            if held_seq(router, kind, origin) != before:
                log(("copy", t, router.node_id, kind, origin, msg["seq"]))
            else:
                dropped[0] += 1

        install(Medium, "broadcast", logged_broadcast)
        install(Router, "receive_control", logged_receive)
        observe(Medium, "transmit", lambda out, _medium, _bits, link_idx, forward,
                t_start: ("transmit", t_start, link_idx, forward, out.attempts,
                          out.delivered, out.completion_time))
        observe(Router, "process_hello", lambda _, router, msg, link_idx, t: (
            "hello", t, router.node_id, msg["origin"], link_idx))
        observe(Router, "route_to", lambda r, router, dest: (
            "route_to", router.engine.now, router.node_id, dest,
            None if r is None else route_row(router, r)))
        observe(Router, "_recompute", lambda _, router, now: (
            "table", now, router.node_id,
            [route_row(router, r) for r in router.table.values()]))
        observe(FlowRecord, "on_recv", lambda _, record, t_sent, t_arrived: (
            "recv", record.flow_id, t_sent, t_arrived))
        sim = Simulation(scenario, seed)
        state = run_state(sim)
    finally:
        for owner, name, value in reversed(installed):
            setattr(owner, name, value)
    events = state["engine"].pop("events_processed")
    state["flows"] = flows(sim.stack.flows)
    log(("end", state))
    # marshal format 2 writes values alone, without shared references, so
    # equal acts give equal bytes, which compare and hash fast and take a
    # fraction of the tuples' memory; marshal.loads gives the acts back
    return ActLog(marshal.dumps(acts, 2), events, next(sim.engine._seq), kept,
                  {nid: r.in_flight for nid, r in sim.routers.items()}, dropped[0])


@functools.cache
def current_acts(variant):
    """variant's seed-1 act log with nothing patched; callers must not change it."""
    return act_log(VARIANTS[variant](), 1)

