"""Pinned fingerprints of simulated output.

A change that only makes meshsim faster or simpler must leave every value
here unchanged. The export hashes cover whole short runs; the MAC outcome
lists catch a reordered random draw at the unit level. A change that is
meant to alter simulated output updates these values and says why.
"""

import hashlib
import json

import pytest
import yaml

from meshsim import preset_path
from meshsim.engine import Engine, Medium
from meshsim.harness import Simulation, export, single_run_result, sweep
from meshsim.scenario import Scenario
from meshsim.topology import build_topology

from conftest import make_nodes, two_node_topology
from runstate import (VARIANTS, current_acts, deliveries, flows, run_state,
                      run_state_scenario, service_scenario)

SEEDS = [1, 2]
CALLS = [3]
BG = [1, 4]


def fresh_preset(name, **run):
    """A newly loaded preset Scenario with a shortened run section."""
    with open(preset_path(name)) as fh:
        raw = yaml.safe_load(fh)
    raw["run"].update(run)
    return Scenario.from_dict(raw, name)


def export_digests(result, tmp_path):
    """SHA-256 of the csv (summary + flows) and json exports."""
    csv_files = export(result, "csv", tmp_path / "out.csv")
    json_files = export(result, "json", tmp_path / "out.json")
    digests = {}
    for fmt, files in (("csv", csv_files), ("json", json_files)):
        h = hashlib.sha256()
        for path in files:
            with open(path, "rb") as fh:
                h.update(fh.read())
        digests[fmt] = h.hexdigest()
    return digests


SWEEP_DIGESTS = {
    "indoor22": {
        "csv": "1ba67e0076cf81fc55dcfa660e038c0f37e646a9c36b9c5e1b6fc16144a18010",
        "json": "cfc9f8fcb97a3d23f7720d5136472e4cc96d478cbccd379bc1baeb52af188d84"},
    "outdoor7": {
        "csv": "7ac6f323f72b35b914305b3fb52648cf7c7f23d1e9e899ea5a9d7c1eefd58a92",
        "json": "d8745288f2cc5290a2a4e169fb9a23827ab3b5985e7d395ecee69cd91158355d"},
}


@pytest.mark.parametrize("preset", sorted(SWEEP_DIGESTS))
def test_sweep_export_fingerprint(preset, tmp_path):
    scn = fresh_preset(preset, duration=16.0, warmup=6.0)
    result = sweep(scn, CALLS, BG, SEEDS, keep_flow_details=True)
    assert export_digests(result, tmp_path) == SWEEP_DIGESTS[preset]


# The cuts overlap from 10 s to 13 s and close out of order; the 0<->1 links
# stay dead from 8 s until the last cut closes at 15 s, then carry again.
OUTAGE_DIGESTS = {
    "csv": "2e92ee5cf1f9c5f88f419023f8e128a6f07ebe124ab965db2c878f1d909d7f42",
    "json": "0cb9acd11a6f828857d0bf31947d32419207df5482576b1b4b5eefcd4b11712c"}


def test_overlapping_outages_fingerprint(tmp_path):
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["run"].update(duration=20.0, warmup=6.0)
    raw["workload"]["calls"].update(count=3, background=2)
    raw["workload"]["actions"] = [
        {"at": 8.0, "kind": "outage", "a": 0, "b": 1, "duration": 5.0},
        {"at": 10.0, "kind": "outage", "a": 0, "b": 1, "duration": 5.0},
    ]
    scn = Scenario.from_dict(raw, "indoor22-outages")
    result = single_run_result(scn, [3])
    assert export_digests(result, tmp_path) == OUTAGE_DIGESTS


# (delivered, attempts, completion_time, airtime)
TRANSMIT_OUTCOMES = [
    (True, 1, 0.0009365499060781004, 4.1666666666666665e-05),
    (True, 2, 0.0011688248860226014, 8.333333333333333e-05),
    (True, 2, 0.0010868997950351119, 8.333333333333333e-05),
    (True, 1, 0.0009887703253506097, 4.1666666666666665e-05),
    (True, 1, 0.0010864842634389549, 4.1666666666666665e-05),
    (True, 1, 0.00013608626745922856, 4.1666666666666665e-05),
    (True, 2, 0.0021796078472697874, 8.333333333333333e-05),
    (True, 1, 7.647845860712148e-05, 4.1666666666666665e-05),
    (True, 1, 0.0006609032614144502, 4.1666666666666665e-05),
    (True, 1, 0.0010919732186591056, 4.1666666666666665e-05),
    (True, 1, 0.00018639515377607657, 4.1666666666666665e-05),
    (True, 3, 0.004494560250532622, 0.000125),
    (True, 1, 0.0004619884031957265, 4.1666666666666665e-05),
    (True, 1, 0.00039985950063937026, 4.1666666666666665e-05),
    (True, 1, 0.000367237129753958, 4.1666666666666665e-05),
    (True, 1, 0.00024999938645075577, 4.1666666666666665e-05),
    (True, 2, 0.0018814573872821278, 8.333333333333333e-05),
    (True, 1, 9.692639583319752e-05, 4.1666666666666665e-05),
    (True, 1, 0.0002395839631374227, 4.1666666666666665e-05),
    (True, 2, 0.0007147389423931207, 8.333333333333333e-05),
]


def test_transmit_outcomes_pinned():
    topo = two_node_topology(p=0.7)
    med = Medium(topo, Engine(42))
    outs = [tuple(med.transmit(500, 0, True, 0.0)) for _ in range(20)]
    assert outs == TRANSMIT_OUTCOMES


# (neighbor, link index, arrival time)
BROADCAST_DELIVERIES = [
    (1, 0, 0.00017066666666666668),
    (2, 1, 0.00017066666666666668),
    (4, 3, 0.00017066666666666668),
    (1, 0, 0.10017066666666667),
    (2, 1, 0.10017066666666667),
    (4, 3, 0.10017066666666667),
    (1, 0, 0.2001706666666667),
    (2, 1, 0.2001706666666667),
    (4, 3, 0.2001706666666667),
    (1, 0, 0.3001706666666667),
    (2, 1, 0.3001706666666667),
    (3, 2, 0.3001706666666667),
    (4, 3, 0.3001706666666667),
    (1, 0, 0.4001706666666667),
    (4, 3, 0.4001706666666667),
]


def test_broadcast_deliveries_pinned():
    nodes = make_nodes([(0, 0), (10, 0), (0, 10), (-10, 0), (0, -10)])
    topo = build_topology(nodes, overrides={(0, 1): 0.9, (0, 2): 0.6,
                                            (0, 3): 0.3, (0, 4): 1.0})
    eng = Engine(42)
    med = Medium(topo, eng)
    got = []
    for i in range(5):
        eng.run_until(i * 0.1)
        med.broadcast(0, 2048, lambda receivers, t: got.extend(
            (nbr, li, t) for nbr, li in receivers))
    eng.run_until(1.0)
    assert got == BROADCAST_DELIVERIES


# service_scenario (runstate.py): every service kind on one indoor22 run.
SERVICE_DIGESTS = {
    "json": "c02c0ca4abf89e14edebbc51182599ba1080ca7180ef2c1d8682ed100f6e6313",
    "state": "674ff3c9eaeb9749201b480a12d6cd10670e8310a8ccc89f142f627d4ed3e029"}


def service_state(sim, report):
    """Relay outcomes, flow rows with their admission flag, admission log."""
    return {
        "deliveries": deliveries(sim.server),
        "flows": flows(report.flows),
        "admission": [list(e) for e in report.admission_log],
    }


def test_services_fingerprint(tmp_path):
    scn = service_scenario()
    digests = {"json": export_digests(single_run_result(scn, SEEDS),
                                      tmp_path)["json"]}
    states = []
    for seed in SEEDS:
        sim = Simulation(service_scenario(), seed)
        states.append(service_state(sim, sim.run()))
    digests["state"] = hashlib.sha256(
        json.dumps(states, sort_keys=True).encode()).hexdigest()
    assert digests == SERVICE_DIGESTS


# The run-state scenario and the state it projects are in runstate.py.
# The digest covers the run's state without engine.events_processed, which
# is pinned on its own: a change that stops scheduling events that do
# nothing, or folds events that run back to back into one, moves only the
# count.
RUN_STATE_DIGEST = "d430f4434d70ffcca357824d2fc1cfafbe6137e97376e8363c74b440cbed1b48"
RUN_STATE_EVENTS = 16378


def test_run_state_fingerprint():
    state = run_state(Simulation(run_state_scenario(), 1))
    events = state["engine"].pop("events_processed")
    digest = hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()
    assert digest == RUN_STATE_DIGEST
    assert events == RUN_STATE_EVENTS


# Each variant's act log (runstate.act_log, seed 1). It holds no event count
# and no flood-check decisions, so a change that only folds events or leaves
# out flood copies certain to be dropped keeps these digests too.
ACT_LOG_DIGESTS = {
    "churn-maintained": "b099b222c06d25fb4528c6bae3bfb307eadc99dc87ed0f19e137b3e968209fad",
    "churn-unmaintained": "6aabd261aa24b43e8da93c04934cb11dc5aea491fa5f4222d839c69df0a152b9",
    "equal-rate": "68d273102ad960a419223c23f5a2c5304bf3da2c37214cde227717ad8c14c339",
    "hop-count": "873e8517f4780afeade03ccf7090573458f29273e563252604bc4a2a9b39b3b2",
    "mixed-rate": "5272c420289786b90b00281612cdebf5b4cdf81eb9f6bf13418c3cd8e0898da3",
    "services": "29234f36f2079ab9f24fe45c4cafd46f654d8aed7e3d967fd6f6d993722afacc",
    "two-rate-radios": "efbfb689e0ac5cbb8bb1dc17b62254bd70fce12b7493521093c7b26e1ce94a3f",
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_act_log_fingerprint(variant):
    acts = current_acts(variant).acts
    assert hashlib.sha256(acts).hexdigest() == ACT_LOG_DIGESTS[variant]
