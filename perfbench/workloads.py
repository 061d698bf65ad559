"""Workload definitions and their seeded input generators.

Each workload turns a workload seed into one scenario file plus a job spec.
The job process sees only that generated file: the seed never reaches
meshsim itself except as the replica seeds written into ``run.seeds``.

Why each workload exists. The profile shares are cProfile self time grouped
by meshsim module, for workload seed 1, measured on a 2-vCPU x86-64 VM with
Python 3.11 at the commit that added this benchmark; the remaining ~20% of
each profile is builtins and stdlib (heapq, random, dict and list methods)
called from those modules:

voice-dense
    The ``indoor22`` preset (22 nodes, 2 radios each, 3 channels) swept with
    ``harness.sweep`` over calls {20} x background {2, 20} and two replica
    seeds, then ``harness.export``. All 20 calls go through admission
    control; the grid is kept this small so a run holds several jobs.
    High-delivery data plane: ``engine`` (event loop plus the ``Medium`` MAC)
    takes 48% of host time, ``services`` (``MeshTransport`` forwarding and
    the CBR generators) 16%, ``routing`` 14%. It goes through ``sweep``, so
    hot-path slimming and a process-pool sweep both show here.

voice-lossy
    The ``outdoor7`` preset through the same grid and call path. Marginal
    long links drive up MAC attempts per frame; a four-replica job drops
    33k-59k frames (seeds 1-3), and each retry-exhausted frame feeds a
    tx-failure notice into the route maintainer. ``engine`` takes 50%,
    ``services`` forwarding rises to 24% and ``routing`` falls to 6%. A
    change that speeds clean delivery but costs the retry path shows here.

churn-single
    One long ``indoor22`` replica (300 s simulated) with no calls: 90 seeded
    outages on linked node pairs, lasting 2-12 s and sometimes overlapping on
    the same pair; 225 SMS; 5 chunked file transfers. About 700k events and
    1.7k route switches; a 40 s run still holds four or more of them.
    This is the control plane: ``routing`` takes 37% and ``Medium.broadcast``
    12%, ``services`` under 1%. It is one seed, so a parallel sweep cannot
    help it (predicted change: none). Its length also exposes memory growth
    of the per-router logs and seen-sets in ``peak_rss_mb``.

Known defect kept on purpose: ``Simulation._outage`` writes into the shared
``Link`` objects, so two overlapping outages on one pair leave that link
dead for the rest of the run, and an outage still open at the end of a run
leaks into the next run on the same ``Scenario`` object. The generator keeps
overlapping outages, and every churn job runs on a ``Scenario`` built
afresh from the generated file, as ``meshsim run --seed N`` would. Fixing that defect will
change the churn digest and its routing counts; that change is expected.
"""

from __future__ import annotations

import copy
import json
import random

import yaml

VOICE_CALLS = [20]
VOICE_BG = [2, 20]
VOICE_REPLICAS = 2

CHURN_DURATION = 300.0
CHURN_WARMUP = 15.0
CHURN_OUTAGES = 90
CHURN_SMS = 225
CHURN_FILES = 5
CHURN_FILE_BITS = 400_000
CHURN_CHUNK_BITS = 8_000

WORKLOADS = {
    "voice-dense": "indoor22",
    "voice-lossy": "outdoor7",
    "churn-single": "indoor22",
}


def _replica_seeds(rng: random.Random, n: int) -> list[int]:
    return sorted(rng.sample(range(1, 1_000_000), n))


def _linked_pairs(raw: dict) -> list[tuple[int, int]]:
    """Node pairs within radio range on a shared channel, in id order.

    Mirrors the link rule of ``build_topology`` without importing meshsim,
    so generating inputs costs nothing that the job process measures.
    """
    nodes = sorted(raw["topology"]["nodes"], key=lambda n: n["id"])
    pairs = []
    for i, na in enumerate(nodes):
        for nb in nodes[i + 1:]:
            dx = na["position"][0] - nb["position"][0]
            dy = na["position"][1] - nb["position"][1]
            d = (dx * dx + dy * dy) ** 0.5
            if any(ra["channel"] == rb["channel"]
                   and d <= min(ra["tx_range"], rb["tx_range"])
                   for ra in na["radios"] for rb in nb["radios"]):
                pairs.append((na["id"], nb["id"]))
    return pairs


def churn_actions(raw: dict, rng: random.Random) -> list[dict]:
    """Outages, SMS and file transfers for one long control-plane replica."""
    pairs = _linked_pairs(raw)
    clients = [c["id"] for c in raw["workload"]["clients"]]
    end = CHURN_DURATION
    actions = []
    for _ in range(CHURN_OUTAGES):
        a, b = rng.choice(pairs)
        actions.append({"at": round(rng.uniform(20.0, end - 5.0), 3),
                        "kind": "outage", "a": a, "b": b,
                        "duration": round(rng.uniform(2.0, 12.0), 3)})
    for _ in range(CHURN_SMS):
        src, dst = rng.sample(clients, 2)
        actions.append({"at": round(rng.uniform(20.0, end - 10.0), 3),
                        "kind": "sms", "src": src, "dst": dst})
    for _ in range(CHURN_FILES):
        src, dst = rng.sample(clients, 2)
        actions.append({"at": round(rng.uniform(20.0, end - 60.0), 3),
                        "kind": "file", "src": src, "dst": dst,
                        "size": CHURN_FILE_BITS, "chunk_size": CHURN_CHUNK_BITS})
    actions.sort(key=lambda a: (a["at"], a["kind"]))
    return actions


def generate(name: str, seed: int, preset_dir, out_dir) -> dict:
    """Write the workload's scenario file into out_dir; return the job spec.

    The voice workloads are written as YAML and read back through
    ``load_scenario``; churn-single is written as JSON and read through
    ``Scenario.from_dict``, so both loader entry points are measured.
    """
    preset = WORKLOADS[name]
    with open(preset_dir / f"{preset}.yaml") as fh:
        raw = yaml.safe_load(fh)
    rng = random.Random(f"{name}:{seed}")
    if name.startswith("voice-"):
        raw["run"]["seeds"] = _replica_seeds(rng, VOICE_REPLICAS)
        path = out_dir / f"{name}.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(raw, fh, sort_keys=False)
        return {"mode": "sweep", "loader": "yaml", "scenario": str(path),
                "calls": VOICE_CALLS, "bg": VOICE_BG,
                "replicas": len(VOICE_CALLS) * len(VOICE_BG) * VOICE_REPLICAS}
    scn = copy.deepcopy(raw)
    scn["workload"]["calls"] = {"count": 0, "background": 0}
    scn["run"] = {"duration": CHURN_DURATION, "warmup": CHURN_WARMUP,
                  "seeds": _replica_seeds(rng, 1)}
    scn["workload"]["actions"] = churn_actions(raw, rng)
    path = out_dir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(scn, fh, indent=1)
    return {"mode": "single", "loader": "dict", "scenario": str(path),
            "replicas": 1}
