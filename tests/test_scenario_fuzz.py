"""Fuzz the scenario loader with mutated copies of the outdoor7 preset,
given one workload action of each kind.

Each example applies a few edits to the preset document: a value replaced
by one from a palette of wrong types and edge values, a key or list item
deleted, or a stray key added. The loader may only answer with ParseError
or ValidationError; whatever it accepts must build a Simulation and run
two simulated seconds. A run that schedules EVENT_BUDGET events in them has
stalled: some timer or stream fires faster than its frame fits on a link.
"""

import copy

import yaml
from hypothesis import example, given, settings, strategies as st

from meshsim import preset_path
from meshsim.errors import ParseError, ValidationError
from meshsim.harness import Simulation
from meshsim.scenario import Scenario

with open(preset_path("outdoor7")) as fh:
    PRESET = yaml.safe_load(fh)
# calls start when the warmup ends: end it inside the two seconds, so that
# accepted examples run streams as well as routing start-up
PRESET["run"]["warmup"] = 0.5
# one action of each kind inside the two seconds, so that mutations reach
# action keys; the streams stay on node 0, where c01, c08 and the server
# sit, so they start before any route exists
PRESET["workload"]["actions"] = [
    {"at": 0.6, "kind": "sms", "src": "c01", "dst": "c08"},
    {"at": 0.7, "kind": "file", "src": "c08", "dst": "c01", "size": 16000.0,
     "chunk_size": 8000.0},
    {"at": 0.8, "kind": "call", "src": "c01", "dst": "c08", "duration": 1.0},
    {"at": 0.9, "kind": "broadcast_audio", "duration": 1.0},
    {"at": 1.0, "kind": "video_request", "src": "c08", "dst": "c01",
     "duration": 0.5, "response": "accept"},
    {"at": 1.2, "kind": "attach", "client": "c02", "node": 0},
    {"at": 1.4, "kind": "outage", "a": 0, "b": 5, "duration": 0.5},
]


def _paths(node, prefix=()):
    """Key/index path of every value below the document root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = list(_paths(PRESET))
VALUES = [None, True, False, 0, 1, -1, 3, 100, 0.0, 1e-9, 1e-6, 0.5, -0.5, 2.5, 1e3,
          float("nan"), float("inf"), "", "x", "elp", [], [1, 2], {}, {"x": 1}]
KEYS = ["x", "metric", "header_bits", "b_max", "count", "duration", "p", "id",
        "radios", "actions", "response", "node"]

mutation = st.tuples(st.sampled_from(PATHS),
                     st.sampled_from(["replace", "delete", "add"]),
                     st.sampled_from(VALUES), st.sampled_from(KEYS))


def _mutate(doc, path, op, value, key):
    parent = doc
    for step in path[:-1]:
        try:
            parent = parent[step]
        except (KeyError, IndexError, TypeError):
            return                    # an earlier edit removed this path
    last = path[-1]
    if not isinstance(parent, (dict, list)) or (
            isinstance(parent, list) and not last < len(parent)) or (
            isinstance(parent, dict) and last not in parent):
        return
    if op == "replace":
        parent[last] = copy.deepcopy(value)
    elif op == "delete":
        del parent[last]
    elif isinstance(parent[last], dict):
        parent[last][key] = copy.deepcopy(value)


EVENT_BUDGET = 200_000        # a run the loader accepts stays far below this


def run_within_budget(scn):
    """Run scn for two simulated seconds; fail once it has scheduled
    EVENT_BUDGET events, rather than spending hours on a stalled run."""
    engine = Simulation(scn, 1).engine
    schedule, left = engine.schedule, [EVENT_BUDGET]

    def budgeted(t, fn):
        left[0] -= 1
        assert left[0] >= 0, f"stalled: {EVENT_BUDGET} events by {engine.now} s"
        schedule(t, fn)
    engine.schedule = budgeted
    engine.run_until(2.0)


def _actions(*actions):
    return (("workload",), "add", list(actions), "actions")


# Each timer at 1e-9 s and each CBR rate at 1e12 b/s, with the streams
# started inside the two seconds; calls, videos and broadcasts stay on
# node 0, where c01, c08 and the server sit, so they start without routes.
# voice_rate is tried once with the preset's call template and once with a
# call action alone.
STALLS = [
    [(("protocol", "routing", "hello_interval"), "replace", 1e-9, "x")],
    [(("protocol", "routing", "tc_interval"), "replace", 1e-9, "x")],
    [(("protocol", "routing"), "add", 1e-9, "recompute_interval")],
    [(("protocol", "services", "beacon_interval"), "replace", 1e-9, "x")],
    [(("protocol", "engine"), "add", 1e-9, "busy_window")],
    [(("protocol", "services"), "add", 1e12, "voice_rate")],
    [(("workload", "calls", "count"), "replace", 0, "x"),
     (("workload", "calls", "background"), "replace", 0, "x"),
     (("protocol", "services"), "add", 1e12, "voice_rate"),
     _actions({"at": 0.5, "kind": "call", "src": "c01", "dst": "c08"})],
    [(("protocol", "services"), "add", 1e12, "video_rate"),
     _actions({"at": 0.2, "kind": "video_request", "src": "c01", "dst": "c08",
               "response": "accept"})],
    [(("protocol", "services"), "add", 1e12, "broadcast_rate"),
     _actions({"at": 0.5, "kind": "broadcast_audio", "duration": 10.0})],
]


def _stall_examples(test):
    for mutations in STALLS:
        test = example(mutations)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(mutation, min_size=1, max_size=3))
@_stall_examples
def test_mutated_preset_is_rejected_or_runs(mutations):
    doc = copy.deepcopy(PRESET)
    for m in mutations:
        _mutate(doc, *m)
    try:
        scn = Scenario.from_dict(doc, "fuzz")
    except (ParseError, ValidationError):
        return
    run_within_budget(scn)
