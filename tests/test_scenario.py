import dataclasses
import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import meshsim
from meshsim import preset_path, scenario
from meshsim.errors import ParseError, ValidationError
from meshsim.scenario import Scenario, load_scenario


def minimal_dict():
    return {
        "topology": {"nodes": [
            {"id": 0, "position": [0.0, 0.0], "is_server": True,
             "radios": [{"channel": 1, "nominal_rate": 12e6,
                         "tx_range": 40.0, "cs_range": 80.0}]},
            {"id": 1, "position": [10.0, 0.0],
             "radios": [{"channel": 1, "nominal_rate": 12e6,
                         "tx_range": 40.0, "cs_range": 80.0}]},
        ]},
        "workload": {"clients": [{"id": "c1", "attach": 1}]},
        "run": {"duration": 30.0, "warmup": 5.0, "seeds": [1, 2]},
    }


def test_minimal_scenario_loads():
    scn = Scenario.from_dict(minimal_dict())
    assert len(scn.topology.nodes) == 2
    assert len(scn.topology.links) == 1
    assert scn.topology.server_nodes() == [0]
    assert [c.id for c in scn.clients] == ["c1"]
    assert scn.seeds == [1, 2]


def test_load_from_file(tmp_path):
    import yaml
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(minimal_dict()))
    scn = load_scenario(path)
    assert len(scn.topology.links) == 1
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "missing.yaml")


def test_malformed_yaml_is_parse_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("topology: [unclosed\n")
    with pytest.raises(ParseError):
        load_scenario(path)
    path.write_text("- just\n- a list\n")
    with pytest.raises(ParseError, match="mapping"):
        load_scenario(path)


def test_unknown_keys_reported_with_paths():
    raw = minimal_dict()
    raw["topology"]["nodes"][0]["colour"] = "red"
    raw["topology"]["nodes"][0]["radios"][0]["role"] = "backbone"
    raw["workload"]["clients"][0]["position"] = [1.0, 2.0]
    raw["workload"]["calls"] = {"codec_rate": 64000}
    raw["run"]["warmupp"] = 1
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    problems = exc.value.problems
    for path in ("topology.nodes[0].colour", "topology.nodes[0].radios[0].role",
                 "workload.clients[0].position", "workload.calls.codec_rate",
                 "run.warmupp"):
        assert f"{path}: unknown key" in problems


def test_action_referencing_undefined_client():
    raw = minimal_dict()
    raw["workload"]["actions"] = [
        {"at": 1.0, "kind": "sms", "src": "c1", "dst": "nobody"}]
    with pytest.raises(ValidationError, match="nobody"):
        Scenario.from_dict(raw)


def test_unknown_action_kind():
    raw = minimal_dict()
    raw["workload"]["actions"] = [{"at": 1.0, "kind": "teleport"}]
    with pytest.raises(ValidationError, match="teleport"):
        Scenario.from_dict(raw)


# Each action kind: the keys it needs, with a valid value on with_action's
# scenario, and the keys it may leave out, with their defaults. A call's
# duration defaults to workload.calls.duration, which with_action sets to 12.
ACTION_KINDS = {
    "sms": ({"src": "c1", "dst": "c2"}, {"size": None}),
    "file": ({"src": "c1", "dst": "c2", "size": 8000.0, "chunk_size": 800.0}, {}),
    "call": ({"src": "c1", "dst": "c2"}, {"duration": 12.0}),
    "broadcast_audio": ({"duration": 10.0}, {}),
    "video_request": ({"src": "c1", "dst": "c2"},
                      {"duration": 30.0, "response": None}),
    "attach": ({"client": "c1", "node": 0}, {}),
    "outage": ({"a": 0, "b": 1}, {"duration": 5.0}),
}
ACTION_KEYS = {key for needed, optional in ACTION_KINDS.values()
               for key in (*needed, *optional)}


def with_action(**action):
    """minimal_dict with a second client and the one action given, at 6 s."""
    raw = minimal_dict()
    raw["workload"]["clients"].append({"id": "c2", "attach": 0})
    raw["workload"]["calls"] = {"duration": 12.0}
    raw["workload"]["actions"] = [{"at": 6.0, **action}]
    return raw


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind, (needed, optional) in ACTION_KINDS.items()
    for key in sorted(ACTION_KEYS - set(needed) - set(optional))])
def test_key_of_another_action_kind_is_unknown(kind, key):
    raw = with_action(kind=kind, **ACTION_KINDS[kind][0], **{key: 1.0})
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == [f"workload.actions[0].{key}: unknown key"]


@pytest.mark.parametrize("kind", ACTION_KINDS)
def test_loaded_action_carries_every_key_of_its_kind(kind):
    needed, optional = ACTION_KINDS[kind]
    scn = Scenario.from_dict(with_action(kind=kind, **needed))
    assert scn.actions == [{"at": 6.0, "kind": kind, **needed, **optional}]
    # a key given keeps its value
    given = {key: {"size": 400.0, "duration": 3.0, "response": "decline"}[key]
             for key in optional}
    scn = Scenario.from_dict(with_action(kind=kind, **needed, **given))
    assert scn.actions == [{"at": 6.0, "kind": kind, **needed, **given}]


@pytest.mark.parametrize("action,problem", [
    ({"kind": "teleport"}, "workload.actions[0].kind: unknown kind 'teleport'"),
    ({"kind": ["sms"], "src": "c1"}, "workload.actions[0].kind: unknown kind ['sms']"),
    ({"kind": 3, "node": 0}, "workload.actions[0].kind: unknown kind 3"),
    ({"src": "c1", "dst": "c2"}, "workload.actions[0]: missing key 'kind'"),
    ({"kind": "sms", "src": "c1"}, "workload.actions[0]: missing key 'dst'"),
    ({"kind": "video_request", "src": "c1", "dst": "c2", "response": "maybe"},
     "workload.actions[0].response: must be one of accept, decline, none, "
     "got 'maybe'"),
    ({"kind": "sms", "src": "c1", "dst": "c2", "size": 0},
     "workload.actions[0].size: must be > 0, got 0.0"),
    ({"kind": "file", "src": "c1", "dst": "c2", "size": 800.0, "chunk_size": 0},
     "workload.actions[0].chunk_size: must be > 0, got 0.0"),
    ({"kind": "call", "src": "c1", "dst": "c2", "duration": 0},
     "workload.actions[0].duration: must be > 0, got 0.0"),
    ({"kind": "attach", "client": "c1", "node": 0, "at": -1},
     "workload.actions[0].at: must be >= 0, got -1.0"),
])
def test_bad_action_is_one_problem(action, problem):
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(with_action(**action))
    assert exc.value.problems == [problem]


def outdoor7():
    with open(preset_path("outdoor7")) as fh:
        return yaml.safe_load(fh)


def test_video_answer_must_be_known():
    raw = outdoor7()
    raw["workload"]["clients"][2]["video_answer"] = "acept"
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == [
        "workload.clients[2]: video_answer must be one of accept, decline, none, "
        "got 'acept'"]
    for answer in ("accept", "decline", "none"):
        raw["workload"]["clients"][2]["video_answer"] = answer
        assert Scenario.from_dict(raw).clients[2].video_answer == answer


@pytest.mark.parametrize("radio,problem", [
    ({"cs_range": 1.0}, "cs_range must be >= tx_range"),
    ({"tx_range": 0.0}, "tx_range must be > 0, got 0.0"),
    ({"nominal_rate": -1.0}, "nominal_rate must be > 0, got -1.0"),
])
def test_radio_range_is_reported_with_its_path_at_once(radio, problem):
    raw = outdoor7()
    raw["topology"]["nodes"][2]["radios"][0].update(radio)
    raw["run"]["warmupp"] = 1.0
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems[0].startswith(f"topology.nodes[2].radios[0]: {problem}")
    assert exc.value.problems[1:] == ["run.warmupp: unknown key"]


def test_node_without_radios_is_reported_with_its_path():
    raw = outdoor7()
    raw["topology"]["nodes"][2]["radios"] = []
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == ["topology.nodes[2]: needs at least one radio"]


# outdoor7 links 0-5 and 2-6, among others; 0 and 6 are not linked
@pytest.mark.parametrize("section,item,problem", [
    ("link_overrides", {"a": 0, "b": 9, "p": 0.5},
     "topology.link_overrides[1].b: undefined node 9"),
    ("link_overrides", {"a": 3, "b": 3, "p": 0.5},
     "topology.link_overrides[1]: names node 3 twice"),
    ("link_overrides", {"a": 0, "b": 5, "p": 0.5, "p_fwd": 0.4},
     "topology.link_overrides[1]: gives p and p_fwd/p_rev; give p, or p_fwd "
     "and p_rev"),
    ("link_overrides", {"a": 0, "b": 6, "p": 0.5},
     "topology.link_overrides[1]: needs a link, none between nodes 0 and 6"),
    ("link_overrides", {"a": 0, "b": 5, "p_fwd": 0.5, "p_rev": 1.5},
     "topology.link_overrides[1].p_rev: must be in [0, 1], got 1.5"),
    ("link_overrides", {"a": 0, "b": 5, "channel": 11, "p": 0.5},
     "topology.link_overrides[1]: needs a link, none between nodes 0 and 5 "
     "on channel 11"),
    ("link_deletions", [9, 0], "topology.link_deletions[1][0]: undefined node 9"),
    ("link_deletions", [4, 4, 1], "topology.link_deletions[1]: names node 4 twice"),
    ("link_deletions", [4], "topology.link_deletions[1]: [4] is not [a, b] or "
     "[a, b, channel]"),
    ("link_deletions", [4, "x"], "topology.link_deletions[1][1]: expected int, "
     "got 'x'"),
    ("link_overrides", 5, "topology.link_overrides[1]: expected a mapping, got 5"),
    ("link_overrides", {"a": 0, "p": 0.5}, "topology.link_overrides[1]: missing key 'b'"),
    ("link_overrides", {"a": 0, "b": 5, "p_fwd": 0.5},
     "topology.link_overrides[1]: needs p, or p_fwd and p_rev"),
])
def test_bad_link_override_or_deletion_names_its_path(section, item, problem):
    raw = outdoor7()
    raw["topology"].setdefault(section, [[1, 2]])[1:] = [item]
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == [problem]


def test_link_override_skips_node_checks_when_nodes_are_bad():
    raw = outdoor7()
    raw["topology"]["nodes"][0]["radios"][0]["role"] = "backbone"
    raw["topology"]["link_overrides"].append({"a": 0, "b": 9, "p": 0.5})
    raw["topology"]["link_deletions"] = [[9, 1]]
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == ["topology.nodes[0].radios[0].role: unknown key"]


def test_duplicate_node_id_rejected():
    raw = minimal_dict()
    raw["topology"]["nodes"][1]["id"] = 0
    with pytest.raises(ValidationError, match="duplicate node id"):
        Scenario.from_dict(raw)


def test_duplicate_client_id_rejected():
    raw = minimal_dict()
    raw["workload"]["clients"].append({"id": "c1", "attach": 0})
    with pytest.raises(ValidationError, match="duplicate client id"):
        Scenario.from_dict(raw)


def test_client_attached_to_undefined_node():
    raw = minimal_dict()
    raw["workload"]["clients"][0]["attach"] = 9
    with pytest.raises(ValidationError, match="undefined node 9"):
        Scenario.from_dict(raw)


def test_duration_must_exceed_warmup():
    raw = minimal_dict()
    raw["run"]["duration"] = 5.0
    with pytest.raises(ValidationError, match="must exceed"):
        Scenario.from_dict(raw)


def test_multiple_problems_reported_at_once():
    raw = minimal_dict()
    raw["run"]["duration"] = 1.0
    raw["workload"]["clients"][0]["attach"] = 9
    raw["topology"]["typo"] = 1
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert len(exc.value.problems) >= 3


def test_link_override_direction_normalization():
    raw = minimal_dict()
    raw["topology"]["link_overrides"] = [
        {"a": 1, "b": 0, "p_fwd": 0.9, "p_rev": 0.4}]
    scn = Scenario.from_dict(raw)
    link = scn.topology.links[0]
    # p_fwd was given for the 1 -> 0 direction, i.e. the reverse of storage
    assert link.p_deliver_fwd == 0.4
    assert link.p_deliver_rev == 0.9


def test_last_override_of_a_pair_wins_whichever_way_round():
    raw = minimal_dict()
    raw["topology"]["link_overrides"] = [
        {"a": 0, "b": 1, "p": 0.5}, {"a": 1, "b": 0, "p_fwd": 0.9, "p_rev": 0.4},
        {"a": 0, "b": 1, "p": 0.7}]
    link = Scenario.from_dict(raw).topology.links[0]
    assert (link.p_deliver_fwd, link.p_deliver_rev) == (0.7, 0.7)
    del raw["topology"]["link_overrides"][0]
    link = Scenario.from_dict(raw).topology.links[0]
    assert (link.p_deliver_fwd, link.p_deliver_rev) == (0.7, 0.7)


def test_null_call_start_loads_as_none():
    raw = minimal_dict()
    raw["workload"]["calls"] = {"start": None}
    assert Scenario.from_dict(raw).calls.start is None


def test_symmetric_override_and_deletion():
    raw = minimal_dict()
    raw["topology"]["link_overrides"] = [{"a": 0, "b": 1, "p": 0.7}]
    scn = Scenario.from_dict(raw)
    assert scn.topology.links[0].p_deliver_fwd == 0.7
    raw = minimal_dict()
    raw["topology"]["link_deletions"] = [[0, 1]]
    assert Scenario.from_dict(raw).topology.links == []


def test_protocol_overrides_flow_through():
    raw = minimal_dict()
    raw["protocol"] = {
        "metric": "hop_count",
        "routing": {"hello_interval": 0.5, "maintenance": False},
        "engine": {"retry_limit": 3, "header_bits": 400},
        "qos": {"u_max": 0.5},
        "services": {"ack_timeout": 1.0},
    }
    scn = Scenario.from_dict(raw)
    assert scn.routing.metric == "hop_count"
    assert scn.routing.hello_interval == 0.5
    assert scn.routing.maintenance is False
    assert scn.mac.retry_limit == 3
    assert scn.mac.header_bits == 400
    assert scn.qos.u_max == 0.5
    assert scn.make_ledger().residual(0) == 0.5
    assert scn.services.ack_timeout == 1.0


def test_bad_metric_name():
    raw = minimal_dict()
    raw["protocol"] = {"metric": "etx"}
    with pytest.raises(ValidationError, match="etx"):
        Scenario.from_dict(raw)


def test_every_service_param_is_a_key():
    raw = minimal_dict()
    raw["protocol"] = {"services": {
        "beacon_bits": 256, "control_bits": 640, "video_packet_bits": 4000,
        "video_answer_delay": 0.25, "broadcast_rate": 12000,
        "broadcast_packet_bits": 480}}
    svc = Scenario.from_dict(raw).services
    assert svc.beacon_bits == 256 and svc.control_bits == 640
    assert svc.video_packet_bits == 4000
    assert svc.video_answer_delay == 0.25
    assert svc.broadcast_rate == 12000.0
    assert svc.broadcast_packet_bits == 480


def test_knobs_at_the_edges_of_their_ranges_load():
    raw = outdoor7()
    raw["protocol"]["routing"].update(hysteresis=0.0, long_term_alpha=1.0,
                                      long_term_threshold=1.0, max_suppressions=0,
                                      strike_window=0.0)
    raw["protocol"]["qos"]["u_max"] = 1.0
    scn = Scenario.from_dict(raw)
    assert (scn.routing.hysteresis, scn.routing.long_term_threshold, scn.qos.u_max) == (
        0.0, 1.0, 1.0)


@pytest.mark.parametrize("section, key, value, path", [
    ("protocol", "routing", {"metric": "hop_count"}, "protocol.routing.metric"),
    ("workload", "calls", {"count": "many"}, "workload.calls.count"),
    ("protocol", "elp", {"w": 0.3}, "protocol.elp"),
    ("protocol", "routing", {"hello_interval": "fast"},
     "protocol.routing.hello_interval"),
    ("topology", "propagation", {"p_max": "x"}, "topology.propagation.p_max"),
    ("protocol", "qos", {"u_max": "high"}, "protocol.qos.u_max"),
    ("run", "seeds", "abc", "run.seeds"),
    ("topology", "nodes", 5, "topology.nodes"),
    ("workload", "actions", [5], "workload.actions[0]"),
    ("workload", "actions", [{"at": 1.0, "kind": "broadcast_audio", "duration": 500.0}],
     "workload.actions[0].duration"),
    ("protocol", "qos", {"goodput_factor": 0}, "protocol.qos"),
    ("workload", "calls", {"start": -1}, "workload.calls: start must be >= 0"),
    ("run", "warmup", -1, "run.warmup: must be >= 0, got -1.0"),
    ("protocol", "engine", {"queue_limit": -1},
     "protocol.engine: queue_limit must be >= 0, got -1"),
    ("protocol", "routing", {"hysteresis": 5.0},
     "protocol.routing: hysteresis must be in [0, 1), got 5.0"),
    ("protocol", "routing", {"hysteresis": 1.0},
     "protocol.routing: hysteresis must be in [0, 1), got 1.0"),
    ("protocol", "routing", {"hysteresis": -1.0},
     "protocol.routing: hysteresis must be in [0, 1), got -1.0"),
    ("protocol", "routing", {"long_term_alpha": 3.0},
     "protocol.routing: long_term_alpha must be in (0, 1], got 3.0"),
    ("protocol", "routing", {"long_term_alpha": 0.0},
     "protocol.routing: long_term_alpha must be in (0, 1], got 0.0"),
    ("protocol", "routing", {"long_term_threshold": -2.0},
     "protocol.routing: long_term_threshold must be in [0, 1], got -2.0"),
    ("protocol", "routing", {"long_term_threshold": 1.5},
     "protocol.routing: long_term_threshold must be in [0, 1], got 1.5"),
    ("protocol", "routing", {"max_suppressions": -1},
     "protocol.routing: max_suppressions must be >= 0, got -1"),
    ("protocol", "routing", {"strike_window": -5.0},
     "protocol.routing: strike_window must be >= 0, got -5.0"),
    ("protocol", "qos", {"u_max": -0.5},
     "protocol.qos: u_max must be in (0, 1], got -0.5"),
    ("protocol", "qos", {"u_max": 0.0},
     "protocol.qos: u_max must be in (0, 1], got 0.0"),
    ("protocol", "qos", {"u_max": 7.0},
     "protocol.qos: u_max must be in (0, 1], got 7.0"),
])
def test_malformed_value_names_its_path(section, key, value, path):
    raw = minimal_dict()
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert any(p.startswith(path) for p in exc.value.problems), exc.value.problems


@pytest.mark.parametrize("a, b, path", [
    (0, 4, "workload.actions[0]:"),        # no link between 0 and 4
    (3, 3, "workload.actions[0]:"),        # one node twice
    (0, 99, "workload.actions[0].b:"),     # undefined node
])
def test_outage_must_name_a_link(a, b, path):
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["workload"]["actions"] = [{"at": 20.0, "kind": "outage", "a": a, "b": b}]
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert any(p.startswith(path) for p in exc.value.problems), exc.value.problems


TIMERS = [("routing", "hello_interval"), ("routing", "tc_interval"),
          ("routing", "recompute_interval"), ("services", "beacon_interval"),
          ("engine", "busy_window")]


@pytest.mark.parametrize("section,name", TIMERS)
def test_timer_below_one_control_frame_is_rejected(section, name):
    # one 2048-bit control frame takes 2048 / capacity s on the only link
    capacity = Scenario.from_dict(minimal_dict()).topology.links[0].capacity
    floor = 2048 / capacity
    for value in (1e-9, 1e-6, floor * 0.999):
        raw = minimal_dict()
        raw["protocol"] = {section: {name: value}}
        with pytest.raises(ValidationError) as exc:
            Scenario.from_dict(raw)
        assert f"protocol.{section}.{name}" in str(exc.value)
    raw = minimal_dict()
    raw["protocol"] = {section: {name: floor}}
    assert getattr(getattr(Scenario.from_dict(raw),
                           {"engine": "mac"}.get(section, section)), name) == floor


# (id, services rate field, packet bits field, workload that starts the
# stream): the call template and a call action both stream at voice_rate
STREAM_RATES = [
    ("voice_rate-template", "voice_rate", "voice_packet_bits",
     {"calls": {"background": 1}}),
    ("voice_rate", "voice_rate", "voice_packet_bits",
     {"actions": [{"at": 6.0, "kind": "call", "src": "c1", "dst": "c2"}]}),
    ("video_rate", "video_rate", "video_packet_bits",
     {"actions": [{"at": 6.0, "kind": "video_request", "src": "c1", "dst": "c2"}]}),
    ("broadcast_rate", "broadcast_rate", "broadcast_packet_bits",
     {"actions": [{"at": 6.0, "kind": "broadcast_audio", "duration": 10.0}]})]


def with_rate(name, value, use=None):
    """minimal_dict with services.name set to value, and the stream
    started by the workload keys in use."""
    raw = minimal_dict()
    raw["workload"]["clients"].append({"id": "c2", "attach": 0})
    raw["workload"].update(use or {})
    raw["protocol"] = {"services": {name: value}}
    return raw


@pytest.mark.parametrize("name,bits_field,use", [r[1:] for r in STREAM_RATES],
                         ids=[r[0] for r in STREAM_RATES])
def test_stream_faster_than_its_frame_is_rejected(name, bits_field, use):
    # a packet every bits / rate s must leave room for its frame,
    # bits + 320 header bits, on the only link
    scn = Scenario.from_dict(minimal_dict())
    capacity = scn.topology.links[0].capacity
    bits = getattr(scn.services, bits_field)
    top = bits * capacity / (bits + 320)
    for value in (1e12, top * 1.001):
        with pytest.raises(ValidationError) as exc:
            Scenario.from_dict(with_rate(name, value, use))
        assert f"protocol.services.{name}" in str(exc.value)
    scn = Scenario.from_dict(with_rate(name, top * 0.999, use))
    assert getattr(scn.services, name) == top * 0.999
    # a rate that no stream of the workload uses is not checked
    Scenario.from_dict(with_rate(name, 1e12))


def test_huge_background_voice_rate_is_rejected():
    # validated, this ran 15,624 events in the first 10 simulated
    # microseconds after warmup and never reached warmup + 0.1 s
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["workload"]["calls"] = {"count": 0, "background": 1}
    raw["protocol"]["services"]["voice_rate"] = 1e12
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert len(exc.value.problems) == 1
    assert exc.value.problems[0].startswith("protocol.services.voice_rate")


def test_video_answer_that_can_never_arrive_in_time_is_rejected():
    # outdoor7 with every video answer sent 2 s after the request gave up
    with open(preset_path("outdoor7")) as fh:
        raw = yaml.safe_load(fh)
    raw["protocol"]["services"].update(video_answer_delay=12.0,
                                       video_answer_timeout=10.0)
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    problem, = exc.value.problems
    assert problem.startswith("protocol.services: ")
    assert "video_answer_delay" in problem and "video_answer_timeout" in problem
    raw["protocol"]["services"]["video_answer_delay"] = 9.5
    assert Scenario.from_dict(raw).services.video_answer_delay == 9.5


@pytest.mark.parametrize("content", [b"run: \x80\x81\n", None],
                         ids=["bad-utf8", "directory"])
def test_unreadable_file_is_parse_error(tmp_path, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
    with pytest.raises(ParseError, match=str(path)):
        load_scenario(path)


def test_bad_node_field_reports_no_knock_on_errors():
    # node 0 is the server and c01 and c08 attach to it; dropping the node
    # for its bad radio key must not also report those as problems
    with open(preset_path("outdoor7")) as fh:
        raw = yaml.safe_load(fh)
    raw["topology"]["nodes"][0]["radios"][0]["role"] = "backbone"
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == ["topology.nodes[0].radios[0].role: unknown key"]
    # nor when the whole section is lost
    raw["topology"] = 5
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == ["scenario.topology: expected dict, got 5"]


def test_bad_client_field_reports_no_knock_on_errors():
    raw = minimal_dict()
    raw["workload"]["clients"][0]["video_answer"] = 3
    raw["workload"]["actions"] = [
        {"at": 1.0, "kind": "attach", "client": "c1", "node": 0}]
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == [
        "workload.clients[0].video_answer: expected str, got 3"]
    # the checks still run against whole lists
    raw["workload"]["clients"][0]["video_answer"] = "accept"
    raw["workload"]["actions"][0].update(client="c2", node=7)
    with pytest.raises(ValidationError) as exc:
        Scenario.from_dict(raw)
    assert exc.value.problems == ["workload.actions[0].client: undefined client 'c2'",
                                  "workload.actions[0].node: undefined node 7"]


C_LOADER = getattr(yaml, "CSafeLoader", None)
needs_libyaml = pytest.mark.skipif(C_LOADER is None,
                                   reason="PyYAML built without libyaml")


@needs_libyaml
@pytest.mark.parametrize("name", ["indoor22", "outdoor7"])
def test_loaders_agree_on_presets(name):
    text = preset_path(name).read_bytes()
    assert yaml.load(text, Loader=C_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


SECTION_KEYS = ["topology", "protocol", "workload", "run", "nodes", "radios",
                "position", "channel", "seeds", "duration", "actions", "kind"]
scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
           | st.text())
documents = st.dictionaries(
    st.sampled_from(SECTION_KEYS) | st.text(),
    st.recursive(scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(SECTION_KEYS) | st.text(), inner, max_size=4), max_leaves=30),
    max_size=5)


@needs_libyaml
@settings(derandomize=True, deadline=None, max_examples=200)
@given(doc=documents)
def test_loaders_agree_on_dumped_documents(doc):
    text = yaml.safe_dump(doc).encode()
    assert yaml.load(text, Loader=C_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


def test_load_scenario_with_the_pure_python_loader(monkeypatch, tmp_path):
    path = preset_path("outdoor7")
    default = load_scenario(path)
    used = []
    monkeypatch.setattr(scenario, "_yaml_loader",
                        lambda: used.append(1) or yaml.SafeLoader)
    pure = load_scenario(path)
    assert used
    # links compare by identity, so compare what they are built from
    assert pure.topology.nodes == default.topology.nodes
    assert (dataclasses.replace(pure, topology=None)
            == dataclasses.replace(default, topology=None))
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"run: \x80\x81\n")
    with pytest.raises(ParseError):
        load_scenario(bad)


@pytest.mark.parametrize("flags,absent", [
    ([], ["yaml"]),
    # without site, nothing else has imported importlib.resources
    (["-S"], ["yaml", "importlib.resources"]),
])
def test_import_meshsim_loads_no_yaml(flags, absent):
    src = os.path.dirname(os.path.dirname(meshsim.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import meshsim; "
            f"print([m for m in {absent!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
