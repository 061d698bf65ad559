"""Scenario files: strict structured-text configuration for experiments.

YAML with four sections (topology, protocol, workload, run). Unknown keys
and mistyped values are hard errors: silent typos in field configs are how
deployments die, so the loader fails loud and reports every problem it can
find at once. A section backed by a parameter dataclass takes its keys and
types from that dataclass's fields, so the schema cannot drift from the code.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import types
import typing
from dataclasses import dataclass

from .engine import MacParams
from .errors import ParseError, ValidationError, check_ranges
from .metrics import ElpParams
from .qos import AdmissionLedger, QosParams
from .routing import RoutingParams
from .services import VIDEO_ANSWERS, ServiceParams
from .topology import NodeSpec, PropagationModel, Topology, build_topology

_TOP_TYPES = {"topology": dict, "protocol": dict, "workload": dict, "run": dict}
_TOPOLOGY_TYPES = {"nodes": list[NodeSpec], "link_overrides": list,
                   "link_deletions": list, "propagation": PropagationModel}
_PROTOCOL_TYPES = {"metric": str, "elp": ElpParams, "routing": dict,
                   "engine": MacParams, "qos": QosParams, "services": ServiceParams}
_OVERRIDE_TYPES = {"a": int, "b": int, "channel": int, "p": float, "p_fwd": float,
                   "p_rev": float}
_RUN_TYPES = {"duration": float, "warmup": float, "seeds": list[int]}


def _kind(**keys):
    """An action kind's (key types, required keys, defaults) from its keys
    besides at and kind: key=type, or key=(type, default) if optional."""
    hints = {"at": float, "kind": str}
    defaults = {}
    for key, spec in keys.items():
        if isinstance(spec, tuple):
            spec, defaults[key] = spec
        hints[key] = spec
    return hints, [k for k in hints if k not in defaults], defaults


# Each workload action kind and the keys it reads. A call's duration of None
# is filled in with workload.calls.duration; an sms of size None sends
# protocol.services.sms_bits.
_ACTIONS = {
    "sms": _kind(src=str, dst=str, size=(float, None)),
    "file": _kind(src=str, dst=str, size=float, chunk_size=float),
    "call": _kind(src=str, dst=str, duration=(float, None)),
    "broadcast_audio": _kind(duration=float),
    "video_request": _kind(src=str, dst=str, duration=(float, 30.0),
                           response=(str, None)),
    "attach": _kind(client=str, node=int),
    "outage": _kind(a=int, b=int, duration=(float, 5.0)),
}

_BAD = object()


def _value(value, hint, path, problems):
    """value checked against a type hint; on failure a problem and _BAD.

    A dataclass hint builds that dataclass from a mapping. Numbers must be
    finite, an int passes where a float is expected, and a bool passes only
    where a bool is expected. Bad items of a list or tuple are reported and
    dropped; a fixed-length one short of an item is never used, as only a
    dataclass field has that type and _params then builds no dataclass.
    """
    if dataclasses.is_dataclass(hint):
        built = _params(hint, value, path, problems)
        return _BAD if built is None else built
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        hint, = (a for a in args if a is not type(None))
        return _value(value, hint, path, problems)
    fixed_len = origin is tuple and args[-1] is not Ellipsis
    if origin in (list, tuple) and isinstance(value, (list, tuple)) and (
            not fixed_len or len(value) == len(args)):
        items = [_value(v, args[0], f"{path}[{i}]", problems)
                 for i, v in enumerate(value)]
        return origin(v for v in items if v is not _BAD)
    if origin is None and isinstance(value, bool) == (hint is bool):
        if hint is float and isinstance(value, int):
            value = float(value)
        if isinstance(value, hint) and (hint is not float or math.isfinite(value)):
            return value
    # drop module paths: list[meshsim.topology.NodeSpec] -> list[NodeSpec]
    name = re.sub(r"\w+\.", "", hint.__name__ if isinstance(hint, type) else str(hint))
    problems.append(f"{path}: expected {name}, got {value!r}")
    return _BAD


def _mapping(raw, hints, path, problems, required=()) -> dict:
    """Typed copy of one mapping; unknown keys, bad values and missing
    required keys are recorded in problems and left out."""
    if not isinstance(raw, dict):
        problems.append(f"{path}: expected a mapping, got {raw!r}")
        return {}
    out = {}
    for key, value in raw.items():
        if key not in hints:
            problems.append(f"{path}.{key}: unknown key")
            continue
        got = _value(value, hints[key], f"{path}.{key}", problems)
        if got is not _BAD:
            out[key] = got
    problems.extend(f"{path}: missing key {k!r}" for k in required if k not in raw)
    return out


_hints = functools.cache(typing.get_type_hints)    # evaluating annotations is slow


def _params(cls, raw, path, problems, **fixed):
    """Build the dataclass cls from a mapping, or return None.

    The allowed keys and their types are cls's fields, less the ones the
    caller fixes; fields without a default are required. A ValueError from
    cls's own checks is recorded like any other problem.
    """
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    before = len(problems)
    kwargs = _mapping(raw, {f.name: _hints(cls)[f.name] for f in fields}, path,
                      problems, required)
    if len(problems) > before:
        return None
    try:
        return cls(**kwargs, **fixed)
    except ValueError as e:
        problems.append(f"{path}: {e}")
        return None


@dataclass
class CallTemplate:
    count: int = 0
    background: int = 0
    duration: float = 30.0
    start: float | None = None        # default: warmup end
    stagger: float = 0.05

    def __post_init__(self):
        check_ranges(self, positive=("duration",),
                     nonnegative=("count", "background", "stagger"))
        if self.start is not None and self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start!r}")


_ANSWERS = f"must be one of {', '.join(VIDEO_ANSWERS)}"


@dataclass
class ClientDef:
    id: str
    attach: int
    video_answer: str = "accept"

    def __post_init__(self):
        if self.video_answer not in VIDEO_ANSWERS:
            raise ValueError(f"video_answer {_ANSWERS}, got {self.video_answer!r}")


_WORKLOAD_TYPES = {"clients": list[ClientDef], "calls": CallTemplate, "actions": list}


@dataclass
class Scenario:
    name: str
    topology: Topology
    elp: ElpParams
    routing: RoutingParams
    mac: MacParams
    qos: QosParams
    services: ServiceParams
    clients: list[ClientDef]
    calls: CallTemplate
    actions: list[dict]
    duration: float
    warmup: float
    seeds: list[int]

    def make_ledger(self) -> AdmissionLedger:
        return AdmissionLedger(self.topology, self.qos)

    @staticmethod
    def from_dict(raw: dict, name: str = "<dict>") -> "Scenario":
        return _build(raw, name)


@functools.cache
def _yaml_loader():
    """PyYAML's safe loader on libyaml's C scanner and parser where PyYAML was
    built with libyaml, else the pure-Python one. Both build the document with
    the same safe constructor and resolver, so a scenario file gives equal
    dicts; they part only at the edges of the syntax (see the README)."""
    import yaml
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path) -> Scenario:
    # yaml is imported here, not at module level, so that `import meshsim`
    # and Scenario.from_dict do without it
    import yaml
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror}")
    try:
        # bytes, not str: the loader decodes them, and bad UTF-8 is a YAMLError
        raw = yaml.load(text, Loader=_yaml_loader())
    except yaml.YAMLError as e:
        raise ParseError(f"{path}: {e}")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scenario must be a mapping")
    return _build(raw, str(path))


def _reported(problems, *paths) -> bool:
    """Whether a problem was recorded at one of paths or inside it."""
    heads = tuple(f"{path}{sep}" for path in paths for sep in ":[")
    return any(p.startswith(heads) for p in problems)


def _build(raw, name) -> Scenario:
    problems: list[str] = []
    top = _mapping(raw, _TOP_TYPES, "scenario", problems)
    topo = _mapping(top.get("topology", {}), _TOPOLOGY_TYPES, "topology", problems)
    proto = _mapping(top.get("protocol", {}), _PROTOCOL_TYPES, "protocol", problems)
    workload = _mapping(top.get("workload", {}), _WORKLOAD_TYPES, "workload", problems)
    run = _mapping(top.get("run", {}), _RUN_TYPES, "run", problems)
    # a list that lost an item, or the section holding it, to a problem above
    # is no ground for checking references to it: they would only report
    # knock-on errors
    nodes_whole = not _reported(problems, "scenario", "scenario.topology",
                                "topology.nodes")
    clients_whole = not _reported(problems, "workload.clients")

    # topology
    nodes = topo.get("nodes", [])
    node_ids = set()
    for n in nodes:
        if n.id in node_ids:
            problems.append(f"topology.nodes: duplicate node id {n.id}")
        node_ids.add(n.id)
    if nodes_whole and not any(n.is_server for n in nodes):
        problems.append("topology.nodes: no node is a server")

    def check_pair(path, a, b, at=(".a", ".b")):
        """Whether nodes a and b, found at path + at, are two defined nodes;
        if not, the problems are recorded."""
        before = len(problems)
        if nodes_whole:
            problems.extend(f"{path}{key}: undefined node {n!r}"
                            for key, n in zip(at, (a, b)) if n not in node_ids)
        if a == b:
            problems.append(f"{path}: names node {a} twice")
        return len(problems) == before

    linked = []          # (path, a, b, channel), checked on the built topology
    overrides = {}
    for i, ov in enumerate(topo.get("link_overrides", [])):
        path = f"topology.link_overrides[{i}]"
        ov = _mapping(ov, _OVERRIDE_TYPES, path, problems, required=("a", "b"))
        if "a" not in ov or "b" not in ov:
            continue
        a, b = ov["a"], ov["b"]
        if check_pair(path, a, b):
            linked.append((path, a, b, ov.get("channel")))
        problems.extend(f"{path}.{p}: must be in [0, 1], got {ov[p]!r}"
                        for p in ("p", "p_fwd", "p_rev") if not 0 <= ov.get(p, 0) <= 1)
        key = (a, b, ov["channel"]) if "channel" in ov else (a, b)
        if "p" in ov and ("p_fwd" in ov or "p_rev" in ov):
            problems.append(f"{path}: gives p and p_fwd/p_rev; give p, or "
                            f"p_fwd and p_rev")
        elif "p" in ov or ("p_fwd" in ov and "p_rev" in ov):
            overrides.pop(key, None)     # re-inserted last: build_topology lets it win
            overrides[key] = ov["p"] if "p" in ov else (ov["p_fwd"], ov["p_rev"])
        else:
            problems.append(f"{path}: needs p, or p_fwd and p_rev")

    deletions = []
    for i, d in enumerate(topo.get("link_deletions", [])):
        path = f"topology.link_deletions[{i}]"
        before = len(problems)
        d = _value(d, list[int], path, problems)
        if len(problems) > before:
            continue
        if len(d) not in (2, 3):
            problems.append(f"{path}: {d} is not [a, b] or [a, b, channel]")
        elif check_pair(path, d[0], d[1], ("[0]", "[1]")):
            deletions.append(tuple(d))

    # protocol
    metric = proto.get("metric", "elp")
    if metric not in RoutingParams.METRICS:
        problems.append(f"protocol.metric: must be elp or hop_count, got {metric!r}")
        metric = "elp"                   # reported here, not again at protocol.routing
    routing = _params(RoutingParams, proto.get("routing", {}), "protocol.routing",
                      problems, metric=metric)
    services = proto.get("services", ServiceParams())

    # workload
    clients = workload.get("clients", [])
    client_ids = set()
    for c in clients:
        if c.id in client_ids:
            problems.append(f"workload.clients: duplicate client id {c.id!r}")
        if nodes_whole and node_ids and c.attach not in node_ids:
            problems.append(f"workload.clients: client {c.id!r} attaches to "
                            f"undefined node {c.attach}")
        client_ids.add(c.id)

    calls = workload.get("calls", CallTemplate())
    actions = []
    for i, a in enumerate(workload.get("actions", [])):
        path = f"workload.actions[{i}]"
        if not isinstance(a, dict):
            problems.append(f"{path}: expected a mapping, got {a!r}")
            continue
        kind = a.get("kind")
        # without a known kind there are no keys to check the rest against;
        # a kind that is not a str, say a list, cannot even be looked up
        if not isinstance(kind, str) or kind not in _ACTIONS:
            problems.append(f"{path}.kind: unknown kind {kind!r}" if "kind" in a
                            else f"{path}: missing key 'kind'")
            continue
        hints, required, defaults = _ACTIONS[kind]
        act = _mapping(a, hints, path, problems, required)
        for key, value in act.items():
            if key in ("src", "dst", "client"):
                if clients_whole and value not in client_ids:
                    problems.append(f"{path}.{key}: undefined client {value!r}")
            elif key == "node":
                if nodes_whole and value not in node_ids:
                    problems.append(f"{path}.{key}: undefined node {value!r}")
            elif key in ("size", "chunk_size", "duration") and value <= 0:
                problems.append(f"{path}.{key}: must be > 0, got {value!r}")
            elif key == "response" and value not in VIDEO_ANSWERS:
                problems.append(f"{path}.{key}: {_ANSWERS}, got {value!r}")
        limit = services.broadcast_limit
        if kind == "broadcast_audio" and act.get("duration", 0.0) > limit:
            problems.append(f"{path}.duration: over the broadcast limit of {limit} s")
        if act.get("at", 0.0) < 0:
            problems.append(f"{path}.at: must be >= 0, got {act['at']!r}")
        if (kind == "outage" and "a" in act and "b" in act
                and check_pair(path, act["a"], act["b"])):
            linked.append((path, act["a"], act["b"], None))
        act = {**defaults, **act}
        if kind == "call" and act["duration"] is None:
            act["duration"] = calls.duration
        actions.append(act)

    duration = run.get("duration", 60.0)
    warmup = run.get("warmup", 15.0)
    if warmup < 0:
        problems.append(f"run.warmup: must be >= 0, got {warmup}")
    if duration <= warmup:
        problems.append(f"run.duration ({duration}) must exceed run.warmup ({warmup})")

    if problems:
        raise ValidationError(problems)

    topology = build_topology(nodes, overrides, deletions,
                              topo.get("propagation", PropagationModel()))
    for path, a, b, channel in linked:
        if not any(nbr == b and channel in (None, topology.links[idx].channel)
                   for nbr, idx, _fwd in topology.adjacency[a]):
            problems.append(f"{path}: needs a link, none between nodes {a} and {b}"
                            + ("" if channel is None else f" on channel {channel}"))
    mac = proto.get("engine", MacParams())
    if topology.links:
        # a timer that fires faster than one control frame fits on the
        # slowest link stalls the run without simulating anything useful
        slowest = min(link.capacity for link in topology.links)
        floor = routing.control_bits / slowest
        timers = (("protocol.routing", routing,
                   ("hello_interval", "tc_interval", "recompute_interval")),
                  ("protocol.services", services, ("beacon_interval",)),
                  ("protocol.engine", mac, ("busy_window",)))
        for path, params, names in timers:
            for name in names:
                value = getattr(params, name)
                if value < floor:
                    problems.append(
                        f"{path}.{name}: must be at least one control frame's "
                        f"airtime on the slowest link, {floor!r} s, got {value!r}")
        # so does a CBR stream the workload starts that sends a packet
        # every packet_bits / rate s, faster than its frame fits on the
        # slowest link; a rate no stream uses is left alone. The call
        # template and call actions both stream at voice_rate.
        kinds = {act["kind"] for act in actions}
        streams = (("voice_rate", services.voice_packet_bits,
                    calls.count or calls.background or "call" in kinds),
                   ("video_rate", services.video_packet_bits,
                    "video_request" in kinds),
                   ("broadcast_rate", services.broadcast_packet_bits,
                    "broadcast_audio" in kinds))
        for name, bits, used in streams:
            rate = getattr(services, name)
            airtime = (bits + mac.header_bits) / slowest
            if used and bits / rate < airtime:
                problems.append(
                    f"protocol.services.{name}: sends a {bits}-bit packet every "
                    f"{bits / rate!r} s, less than its frame's airtime on the "
                    f"slowest link, {airtime!r} s")
    if problems:
        raise ValidationError(problems)

    return Scenario(
        name=name,
        topology=topology,
        elp=proto.get("elp", ElpParams()),
        routing=routing,
        mac=mac,
        qos=proto.get("qos", QosParams()),
        services=services,
        clients=clients,
        calls=calls,
        actions=actions,
        duration=duration,
        warmup=warmup,
        seeds=run.get("seeds", [1]),
    )
