"""Fuzz the scenario loader with mutated copies of the outdoor7 preset.

Each example applies a few edits to the preset document: a value replaced
by one from a palette of wrong types and edge values, a key or list item
deleted, or a stray key added. The loader may only answer with ParseError
or ValidationError; whatever it accepts must build a Simulation and run
two simulated seconds.
"""

import copy

import yaml
from hypothesis import given, settings, strategies as st

from meshsim import preset_path
from meshsim.errors import ParseError, ValidationError
from meshsim.harness import Simulation
from meshsim.scenario import Scenario

with open(preset_path("outdoor7")) as fh:
    PRESET = yaml.safe_load(fh)


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
        "radios", "actions"]

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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(mutation, min_size=1, max_size=3))
def test_mutated_preset_is_rejected_or_runs(mutations):
    doc = copy.deepcopy(PRESET)
    for m in mutations:
        _mutate(doc, *m)
    try:
        scn = Scenario.from_dict(doc, "fuzz")
    except (ParseError, ValidationError):
        return
    Simulation(scn, 1).engine.run_until(2.0)
