"""The run-state scenario and the projection of a finished run's state.

Shared by the pinned run-state fingerprint and by the routing tests that
compare a run against a reference implementation of one of its parts.
"""

import dataclasses

import yaml

from meshsim import preset_path
from meshsim.scenario import Scenario

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


RUN_STATE_VARIANTS = {"equal-rate": run_state_scenario,
                      "mixed-rate": mixed_rate_run_state_scenario}


def deliveries(server):
    """Each relayed message's outcome, by message id."""
    d = server.deliveries
    return [[k, d[k].phase, d[k].retries_used] for k in sorted(d)]


def run_state(sim):
    """Routers' logs and tables, engine and transport counts, admission
    log and relay outcomes of one finished run."""
    report = sim.run()
    return {
        "routers": {str(nid): {
            "events": [list(e) for e in r.events],
            "table": [[d, t.next_hop, t.path_cost, list(t.path), t.link_idx,
                       t.forward] for d, t in r.table.items()]}
            for nid, r in sorted(sim.routers.items())},
        "engine": dataclasses.asdict(sim.engine.stats),
        "no_route_drops": sim.transport.no_route_drops,
        "admission": [list(e) for e in report.admission_log],
        "deliveries": deliveries(sim.server),
    }
