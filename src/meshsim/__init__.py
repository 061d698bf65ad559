"""Discrete-event simulator for disaster-relief wireless mesh networks.

Core pieces: physical topology with derived lossy links, a deterministic
event engine with an 802.11-style retry/contention frame model, the ELP
link-quality routing metric over an OLSR-like link-state protocol with
resilient route maintenance, airtime admission control for real-time flows,
a relayed store-and-forward messaging layer, and an experiment harness that
reproduces PDR/delay/jitter sweeps with confidence intervals.
"""

from .engine import Engine, EngineStats, MacParams, Medium, TransmitOutcome, rng_stream
from .errors import *  # noqa: F401,F403
from .harness import (ExperimentResult, MetricsReport, Simulation,
                      confidence_interval, export, run_scenario, sweep)
from .metrics import ElpParams, elp_link
from .qos import AdmissionLedger, Admit, FlowSpec, QosParams, Reject, flow_airtime
from .routing import Route, Router, RoutingParams, compute_routes, maybe_switch_route
from .scenario import Scenario, load_scenario
from .services import (Client, ClientSession, DeliveryState, Message,
                       Server, ServiceParams, ServiceStack, dedupe)
from .topology import (Link, NodeSpec, PropagationModel, RadioSpec, Topology,
                       build_topology, contention_domain)

__version__ = "0.1.0"


def preset_path(name: str):
    """Filesystem path of a bundled scenario preset (e.g. 'indoor22')."""
    from importlib import resources    # not at module level: slow to import
    return resources.files(__name__) / "presets" / f"{name}.yaml"


def load_preset(name: str) -> Scenario:
    return load_scenario(preset_path(name))
