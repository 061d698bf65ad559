import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
import yaml

from meshsim import preset_path
from meshsim.errors import IoError, TooFewSamples
from meshsim.engine import EngineStats
from meshsim.harness import (ExperimentResult, MetricsReport, Simulation,
                             confidence_interval, count_trend_violations, export,
                             run_scenario, single_run_result, sweep, t_quantile_975)
from meshsim.scenario import Scenario
from meshsim.services import FlowRecord, ServiceStack


def tiny_scenario(calls=0, bg=0, retry_limit=8, p=1.0, duration=25.0,
                  warmup=10.0, metric="elp"):
    return Scenario.from_dict({
        "topology": {"nodes": [
            {"id": i, "position": [i * 10.0, 0.0], "is_server": i == 0,
             "radios": [{"channel": 1, "nominal_rate": 12e6,
                         "tx_range": 15.0, "cs_range": 80.0}]}
            for i in range(3)],
            "link_overrides": [{"a": 0, "b": 1, "p": p},
                               {"a": 1, "b": 2, "p": p}]},
        "protocol": {
            "metric": metric,
            "engine": {"retry_limit": retry_limit},
            # at a 1-attempt cap every lost frame looks like a failure burst;
            # neutralize the maintainer so the measured loss is purely MAC
            "routing": {} if retry_limit > 1 else {
                "long_term_threshold": 0.0, "suppress_duration": 0.0,
                "max_suppressions": 10 ** 6, "strike_window": 1e9},
        },
        "workload": {
            "clients": [{"id": "cA", "attach": 0}, {"id": "cB", "attach": 2}],
            "calls": {"count": calls, "background": bg, "duration": 10.0},
        },
        "run": {"duration": duration, "warmup": warmup, "seeds": [1, 2]},
    }, name="tiny")


# -- statistics helpers -------------------------------------------------------

def flow_jitter(transits):
    """Jitter a flow record reports for packets sent at 0 with these transits."""
    rec = FlowRecord("f", "voice", "a", "b")
    for transit in transits:
        rec.on_recv(0.0, transit)
    return rec.jitter


def test_jitter_periodic_arrivals_is_zero():
    assert flow_jitter([0.010] * 50) == 0.0


def test_jitter_alternating_converges_to_step():
    # transit alternates +-5 ms, so |D| is a constant 10 ms; the recurrence
    # approaches it geometrically with ratio 15/16
    n = 200
    transits = [0.010 + (0.005 if i % 2 else -0.005) for i in range(n)]
    expected = 0.010 * (1.0 - (15.0 / 16.0) ** (n - 1))
    assert flow_jitter(transits) == pytest.approx(expected, rel=1e-12)


def test_confidence_interval_worked_example():
    mean, half = confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mean == pytest.approx(3.0)
    assert half == pytest.approx(1.9634, abs=5e-4)


def test_confidence_interval_degenerate_cases():
    mean, half = confidence_interval([2.0, 2.0, 2.0])
    assert (mean, half) == (2.0, 0.0)
    with pytest.raises(TooFewSamples):
        confidence_interval([1.0])


def test_means_add_left_to_right_on_every_python():
    # compensated summation (the built-in sum() from Python 3.12 on) gives
    # 1/3 here; adding left to right loses the 1.0 and gives 0.0
    parted = [1e100, 1.0, -1e100]
    mean, _half = confidence_interval(parted)
    assert mean == 0.0
    flows = [FlowRecord(f"f{i}", "voice", "a", "b", sent=1, delivered=1,
                        delay_sum=x, jitter=x) for i, x in enumerate(parted)]
    agg = MetricsReport(flows, [], 0, EngineStats()).aggregate()
    assert agg["delay"] == 0.0 and agg["jitter"] == 0.0
    # ten tenths: 0.9999999999999999 left to right, 1.0 compensated
    mean, _half = confidence_interval([0.1] * 10)
    assert mean == 0.9999999999999999 / 10


# Student-t 0.975 quantiles as printed by scipy 1.17.1 (scipy.stats.t.ppf)
T975 = {
    1: 12.706204736174694, 2: 4.302652729749462, 3: 3.1824463052837078,
    4: 2.7764451051977934, 5: 2.5705818356363146, 6: 2.4469118511449786,
    7: 2.364624251592784, 8: 2.306004135204166, 9: 2.262157162798205,
    10: 2.228138851986274, 11: 2.200985160091639, 12: 2.1788128296672284,
    13: 2.1603686564627913, 14: 2.144786687917804, 15: 2.131449545559776,
    16: 2.1199052992212546, 17: 2.1098155778333156, 18: 2.1009220402410382,
    19: 2.0930240544083087, 20: 2.085963447265864, 21: 2.0796138447276795,
    22: 2.0738730679040254, 23: 2.0686576104190486, 24: 2.0638985616280245,
    25: 2.0595385527532972, 26: 2.0555294386428735, 27: 2.0518305164802846,
    28: 2.0484071417952454, 29: 2.045229642132703, 30: 2.0422724563012378,
    50: 2.008559112100761, 100: 1.9839715185235518, 299: 1.9679296690656698,
}


@pytest.mark.parametrize("df", sorted(T975))
def test_t_quantile_matches_reference(df):
    assert t_quantile_975(df) == pytest.approx(T975[df], rel=1e-12, abs=0)


def test_import_loads_no_numerical_library():
    import meshsim
    src = os.path.dirname(os.path.dirname(meshsim.__file__))
    code = ("import sys, meshsim; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


# -- scenario execution -------------------------------------------------------

def test_zero_workload_empty_flow_table():
    report = run_scenario(tiny_scenario(calls=0), seed=1)
    assert report.flows == []
    assert math.isnan(report.aggregate()["pdr"])


def test_single_call_measured():
    report = run_scenario(tiny_scenario(calls=1), seed=1)
    agg = report.aggregate()
    assert agg["pdr"] > 0.95
    assert 0 < agg["delay"] < 0.05
    assert agg["plr"] == pytest.approx(1.0 - agg["pdr"])


def test_two_hop_pdr_follows_retry_law():
    # per-hop frame delivery 0.9: with retries on the product is ~1.0,
    # capped at a single attempt it collapses to ~0.81
    report = run_scenario(tiny_scenario(calls=1, p=0.9, duration=40.0), seed=3)
    assert report.aggregate()["pdr"] > 0.99

    capped = run_scenario(tiny_scenario(calls=1, p=0.9, retry_limit=1,
                                        duration=40.0), seed=3)
    samples = [f for f in capped.flows if f.kind == "voice" and f.sent > 0]
    sent = sum(f.sent for f in samples)
    delivered = sum(f.delivered for f in samples)
    sigma = math.sqrt(0.81 * 0.19 / sent)
    assert abs(delivered / sent - 0.81) < 4 * sigma


def test_run_is_deterministic_per_seed():
    rows1 = run_scenario(tiny_scenario(calls=2, bg=1), seed=7).flow_rows()
    rows2 = run_scenario(tiny_scenario(calls=2, bg=1), seed=7).flow_rows()
    assert rows1 == rows2
    rows3 = run_scenario(tiny_scenario(calls=2, bg=1), seed=8).flow_rows()
    assert rows1 != rows3


def test_warmup_excluded_from_measurement():
    report = run_scenario(tiny_scenario(calls=1), seed=1)
    scn = tiny_scenario(calls=1)
    assert all(f.measure_from == scn.warmup for f in report.flows)


def test_sms_from_offline_client_is_skipped():
    # bringup registers the clients at t=0.2, so cA is still offline at 0.1
    scn = dataclasses.replace(tiny_scenario(calls=1), actions=[
        {"at": 0.1, "kind": "sms", "src": "cA", "dst": "cB", "size": None},
        {"at": 12.0, "kind": "sms", "src": "cA", "dst": "cB", "size": None}])
    sim = Simulation(scn, seed=1)
    report = sim.run()
    assert report.aggregate()["pdr"] > 0.95
    assert [m.msg_id for m in sim.clients["cB"].inbox] == ["cA/sms/1"]


def test_call_between_clients_of_one_node_still_pairs_two_clients():
    # every draw of _pick_pair finds the two clients on one node; the
    # fallback pairs them anyway, and the call's legs stay on that node
    scn = tiny_scenario(calls=1)
    scn = dataclasses.replace(scn, clients=[dataclasses.replace(c, attach=2)
                                            for c in scn.clients])
    report = run_scenario(scn, seed=1)
    legs = sorted((f.src, f.dst) for f in report.flows)
    assert legs == [("cA", "cB"), ("cB", "cA")]
    assert all(f.sent > 0 and f.delivered == f.sent for f in report.flows)


def test_one_client_workload_places_no_call():
    scn = tiny_scenario(calls=2, bg=1)
    sim = Simulation(dataclasses.replace(scn, clients=scn.clients[:1]), seed=1)
    report = sim.run()
    assert report.flows == [] and report.admission_log == []


def test_call_setup_bug_escapes_run(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in call setup")
    monkeypatch.setattr(ServiceStack, "start_call", broken)
    sim = Simulation(tiny_scenario(calls=1), seed=1)
    with pytest.raises(RuntimeError, match="bug in call setup"):
        sim.run()


# -- sweeps -------------------------------------------------------------------

def open_outage_scenario():
    """indoor22 for 20 s with a 50 s cut on 0<->1 still open at the end."""
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["run"].update(duration=20.0, warmup=6.0)
    raw["workload"]["calls"].update(count=3, background=2)
    raw["workload"]["actions"] = [
        {"at": 18.0, "kind": "outage", "a": 0, "b": 1, "duration": 50.0}]
    return Scenario.from_dict(raw, "indoor22-open-outage")


def csv_bytes(result, path):
    files = export(result, "csv", path)
    return b"".join(pathlib.Path(f).read_bytes() for f in files)


def test_open_outage_does_not_leak_into_next_seed(tmp_path):
    scn = open_outage_scenario()
    single_run_result(scn, [3])
    after = csv_bytes(single_run_result(scn, [4]), tmp_path / "after.csv")
    fresh = csv_bytes(single_run_result(open_outage_scenario(), [4]),
                      tmp_path / "fresh.csv")
    assert after == fresh


def test_sweep_grid_counts():
    scn = tiny_scenario()
    result = sweep(scn, [1, 2], [0, 1], seeds=[1, 2])
    assert set(result.cells) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    seeds_seen = {(r["cell_calls"], r["cell_bg_load"], r["seed"])
                  for r in result.flow_details}
    assert len(seeds_seen) == 8            # 4 cells x 2 seeds
    for cell in result.cells.values():
        mean, half, n = cell["pdr"]
        assert n == 2 and half >= 0.0


def test_single_cell_matches_run_scenario():
    scn = tiny_scenario(calls=1)
    result = single_run_result(scn, seeds=[5])
    cell = result.cells[(1, 0)]
    direct = run_scenario(scn, 5).aggregate()
    assert cell["pdr"][0] == pytest.approx(direct["pdr"])
    assert cell["pdr"][2] == 1


def synthetic_result(values):
    res = ExperimentResult()
    for (calls, bg), (mean, half) in values.items():
        res.cells[(calls, bg)] = {"pdr": (mean, half, 5)}
    return res


def test_trend_violation_counting():
    flat = synthetic_result({(1, 2): (0.99, 0.01), (1, 10): (0.97, 0.01),
                             (1, 20): (0.96, 0.01)})
    assert count_trend_violations(flat, 1, [2, 10, 20]) == 0
    # an increase inside overlapping confidence intervals is not a violation
    noisy = synthetic_result({(1, 2): (0.95, 0.02), (1, 10): (0.96, 0.02),
                              (1, 20): (0.94, 0.02)})
    assert count_trend_violations(noisy, 1, [2, 10, 20]) == 0
    bad = synthetic_result({(1, 2): (0.80, 0.01), (1, 10): (0.95, 0.01),
                            (1, 20): (0.94, 0.01)})
    assert count_trend_violations(bad, 1, [2, 10, 20]) == 1


# -- export -------------------------------------------------------------------

def test_export_empty_result_header_only(tmp_path):
    paths = export(ExperimentResult(), "csv", tmp_path / "empty.csv")
    summary = (tmp_path / "empty.csv").read_text().strip().splitlines()
    assert summary == ["cell_calls,cell_bg_load,metric,mean,ci95_half,n_seeds"]
    flows = (tmp_path / "empty.flows.csv").read_text().strip().splitlines()
    assert flows == ["flow_id,kind,src,dst,sent,delivered,pdr,"
                     "mean_delay_s,jitter_s"]
    assert len(paths) == 2


def test_export_json_round_trip(tmp_path):
    scn = tiny_scenario(calls=1)
    result = single_run_result(scn, seeds=[1, 2])
    export(result, "json", tmp_path / "out.json")
    doc = json.loads((tmp_path / "out.json").read_text())
    mean, half, n = result.cells[(1, 0)]["pdr"]
    assert doc["cells"]["1,0"]["pdr"] == [mean, half, n]
    assert len(doc["flows"]) == len(result.flow_details)


def test_export_deterministic_bytes(tmp_path):
    scn = tiny_scenario(calls=1)
    result = single_run_result(scn, seeds=[1])
    export(result, "csv", tmp_path / "a.csv")
    export(result, "csv", tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.flows.csv").read_bytes() == \
        (tmp_path / "b.flows.csv").read_bytes()


def test_export_csv_cells_are_plain_numbers(tmp_path):
    # the t quantile comes back as np.float64; its repr must not leak into csv
    result = sweep(tiny_scenario(), [1], [0], seeds=[1, 2])
    export(result, "csv", tmp_path / "out.csv")
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(tmp_path / "out.flows.csv", newline="") as fh:
        flows = list(csv.reader(fh))[1:]
    assert rows and flows
    for row in rows:
        for cell in row[:2] + row[3:]:
            float(cell)
    for row in flows:
        for cell in row[4:]:
            float(cell)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_to_a_path_that_cannot_be_opened(tmp_path, fmt):
    with pytest.raises(IoError, match="missing"):
        export(ExperimentResult(), fmt, tmp_path / "missing" / f"out.{fmt}")


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export(ExperimentResult(), "parquet", tmp_path / "x")


@pytest.mark.parametrize("workload", [
    {"actions": [{"at": 0.5, "kind": "call", "src": "c01", "dst": "c24"}]},
    {"calls": {"count": 1, "background": 0, "start": 0.5}},
])
def test_call_before_routes_converge_is_skipped(workload):
    # at 0.5 s the clients are registered but routes are still missing
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["run"].update(duration=8.0, warmup=2.0)
    raw["workload"]["calls"] = {"count": 0, "background": 0}
    raw["workload"].update(workload)
    sim = Simulation(Scenario.from_dict(raw, "indoor22-early-call"), seed=1)
    report = sim.run()
    assert sim.engine.now == 8.0
    assert report.flows == [] and sim.ledger.flows == {}
