"""Call, broadcast, and video behavior of the service stack."""

import pytest
import yaml

from meshsim import preset_path
from meshsim.errors import CalleeOffline, DurationExceeded, NoRoute, SenderOffline
from meshsim.harness import Simulation
from meshsim.qos import FlowSpec, Reject
from meshsim.scenario import Scenario
from meshsim.services import (Client, MeshTransport, Server, ServiceParams,
                              ServiceStack)

from conftest import FakeNet, make_net
from runstate import service_scenario


def make_stack(n_clients=2, attach=0):
    net = FakeNet()
    server = Server(net, 0, ServiceParams())
    stack = ServiceStack(net, server, None, None)
    clients = []
    for i in range(n_clients):
        c = Client(f"c{i}", attach, net, server)
        c.register()
        clients.append(c)
    return net, server, stack, clients


def line_scenario(rate=12e6, count=0, xs=(0.0, 10.0, 20.0), actions=()):
    return Scenario.from_dict({
        "topology": {"nodes": [
            {"id": i, "position": [x, 0.0], "is_server": i == 0,
             "radios": [{"channel": 1, "nominal_rate": rate,
                         "tx_range": 40.0, "cs_range": 80.0}]}
            for i, x in enumerate(xs)],
            "link_overrides": [{"a": a, "b": b, "p": 1.0}
                               for a, b in ((0, 1), (1, 2), (0, 2))]},
        "workload": {
            "clients": [{"id": "c1", "attach": 1}, {"id": "c2", "attach": 2}],
            "calls": {"count": count, "duration": 5.0},
            "actions": list(actions),
        },
        "run": {"duration": 20.0, "warmup": 10.0, "seeds": [1]},
    }, name="line3")


# -- calls ------------------------------------------------------------------

def test_call_admitted_on_idle_network_and_packets_flow():
    sim = Simulation(line_scenario(count=1), seed=1)
    report = sim.run()
    voice = [f for f in report.flows if f.kind == "voice"]
    assert len(voice) == 2                      # one record per direction
    for f in voice:
        assert f.sent > 100
        assert f.pdr > 0.9
    admits = [fid for (k, fid, _x) in report.admission_log if k == "admit"]
    assert set(admits) == {"call1/fwd", "call1/rev"}
    # reservations were torn down when the call ended
    assert sim.ledger.flows == {}


def test_call_rejected_when_domain_saturates():
    # 150 kb/s links: each voice direction wants 0.53 airtime of the one
    # domain, so the second direction cannot fit under the 0.85 ceiling
    sim = Simulation(line_scenario(rate=150e3), seed=1)
    sim.engine.run_until(12.0)
    decision = sim.stack.start_call("c1", "c2", 5.0)
    assert isinstance(decision, Reject)
    assert decision.needed > decision.residual
    assert sim.ledger.flows == {}               # partial reservation rolled back
    rejected = [f for f in sim.stack.flows if not f.admitted]
    assert len(rejected) == 1


def test_no_route_back_releases_the_outbound_reservation():
    sim = Simulation(line_scenario(), seed=1)
    sim.engine.run_until(12.0)
    sim.routers[2].table = {}                   # c2's node has lost its routes
    sim.routers[2].dirty = False
    with pytest.raises(NoRoute):
        sim.stack.start_call("c1", "c2", 5.0)
    assert [e[:2] for e in sim.ledger.log] == [("admit", "call1/fwd"),
                                               ("release", "call1/fwd")]
    assert sim.ledger.flows == {}


def test_call_requires_online_endpoints():
    net, server, stack, clients = make_stack()
    server.sessions["c1"].status = "offline"
    with pytest.raises(CalleeOffline):
        stack.start_call("c0", "c1", 5.0)
    server.sessions["c0"].status = "offline"
    with pytest.raises(SenderOffline):
        stack.start_call("c0", "c1", 5.0)


def test_background_calls_bypass_admission():
    net, _server, stack, _clients = make_stack()
    reserved = stack.start_call("c0", "c1", 2.0, background=True)
    net.run(5.0)
    assert reserved == []
    assert all(f.kind == "background" for f in stack.flows)
    assert all(f.sent > 0 and f.delivered == f.sent for f in stack.flows)


# -- broadcast audio --------------------------------------------------------

def test_broadcast_no_online_clients_is_empty():
    net, server, stack, clients = make_stack(n_clients=2)
    for s in server.sessions.values():
        s.status = "offline"
    assert stack.broadcast_audio(10.0) == []


def test_broadcast_duration_cap():
    _net, _server, stack, _clients = make_stack()
    with pytest.raises(DurationExceeded):
        stack.broadcast_audio(121.0)
    stack.broadcast_audio(120.0)                # at the cap is fine


def test_broadcast_one_flow_per_online_client():
    net, server, stack, clients = make_stack(n_clients=3)
    server.sessions["c2"].status = "offline"
    records = stack.broadcast_audio(5.0)
    assert sorted(r.dst for r in records) == ["c0", "c1"]
    net.run(10.0)
    for r in records:
        assert r.sent > 0 and r.delivered == r.sent


# -- video requests ---------------------------------------------------------

def test_video_accept_starts_stream():
    net, _server, stack, clients = make_stack()
    req = stack.request_video("c0", "c1", duration=3.0)
    net.run(20.0)
    assert req.result == "accepted"
    vids = [f for f in stack.flows if f.kind == "video"]
    assert len(vids) == 1
    assert vids[0].sent > 0 and vids[0].delivered == vids[0].sent


def test_video_decline_creates_no_flow():
    net, _server, stack, clients = make_stack()
    clients[1].video_answer = "decline"
    req = stack.request_video("c0", "c1", duration=30.0)
    net.run(20.0)
    assert req.result == "declined"
    assert [f for f in stack.flows if f.kind == "video"] == []


def test_video_no_answer_times_out():
    net, _server, stack, clients = make_stack()
    clients[1].video_answer = "none"
    req = stack.request_video("c0", "c1", duration=30.0)
    net.run(9.9)
    assert req.result is None
    net.run(10.1)
    assert req.result == "timeout"
    assert [f for f in stack.flows if f.kind == "video"] == []


def test_video_answer_after_the_timeout_is_ignored():
    # every send takes 6 s: the request lands at 6 s, the accept leaves
    # 0.5 s later and lands at 12.5 s, 2.5 s past the 10 s timeout
    net, _server, stack, _clients = make_stack()
    net.latency = 6.0
    req = stack.request_video("c0", "c1", duration=3.0)
    net.run(30.0)
    assert net.count(0, 0) == 2                 # request and the late accept
    assert req.result == "timeout"
    assert [f for f in stack.flows if f.kind == "video"] == []


def test_video_opens_at_attach_node_of_answer_time():
    # node 3 is out of everyone's range; c2 moves there after the request
    # went out, so the stream opens toward node 3, finds no route and the
    # request ends rejected instead of ending the run
    sim = Simulation(line_scenario(xs=(0.0, 10.0, 20.0, 500.0)), seed=1)
    sim.engine.run_until(12.0)
    req = sim.stack.request_video("c1", "c2", duration=3.0)
    sim.engine.schedule(12.2, lambda: sim.clients["c2"].attach(3))
    sim.engine.run_until(20.0)
    assert req.result == "rejected"
    assert [f for f in sim.stack.flows if f.kind == "video"] == []
    assert sim.ledger.flows == {}


def test_second_video_on_a_live_pair_is_rejected():
    # both videos share the flow id video/c1/c2; the second is answered
    # while the first still holds it, so it must not take that reservation
    sim = Simulation(line_scenario(actions=[
        {"at": 11.0, "kind": "video_request", "src": "c1", "dst": "c2",
         "duration": 5.0, "response": "accept"},
        {"at": 12.0, "kind": "video_request", "src": "c1", "dst": "c2",
         "duration": 5.0, "response": "accept"}]), seed=1)
    report = sim.run()
    assert [f.flow_id for f in report.flows if f.kind == "video"] == ["video/c1/c2"]
    log = [(k, fid) for (k, fid, _x) in report.admission_log]
    assert log == [("admit", "video/c1/c2"), ("release", "video/c1/c2")]
    assert sim.ledger.flows == {}


def test_a_request_response_answers_that_request_alone(monkeypatch):
    # c04 declines videos; the first request carries its own accept, which
    # must not become c04's answer to the second request
    with open(preset_path("indoor22")) as fh:
        raw = yaml.safe_load(fh)
    raw["workload"]["clients"][3]["video_answer"] = "decline"
    raw["workload"]["actions"] = [
        {"at": 9.0, "kind": "video_request", "src": "c01", "dst": "c04",
         "response": "accept"},
        {"at": 20.0, "kind": "video_request", "src": "c02", "dst": "c04"}]
    requests, request_video = [], ServiceStack.request_video

    def logged(stack, *args):
        requests.append(request_video(stack, *args))
        return requests[-1]
    monkeypatch.setattr(ServiceStack, "request_video", logged)
    sim = Simulation(Scenario.from_dict(raw, "video-answers"), seed=1)
    sim.run()
    assert [(r.src_id, r.result) for r in requests] == [("c01", "accepted"),
                                                        ("c02", "declined")]
    assert sim.clients["c04"].video_answer == "decline"


# -- transport --------------------------------------------------------------

@pytest.mark.parametrize("with_callback", [True, False])
def test_send_that_arrives_is_not_a_no_route_drop(with_callback):
    sim = Simulation(line_scenario(), seed=1)
    sim.engine.run_until(10.0)                  # routes are up
    drops, arrived = sim.transport.no_route_drops, []
    sim.transport.send(2, 0, 1000, arrived.append if with_callback else None)
    sim.engine.run_until(11.0)
    assert sim.transport.no_route_drops == drops
    assert len(arrived) == with_callback


def test_ttl_expiry_counts_as_a_drop():
    # node 2 is two hops from node 0: with a TTL of 1 the frame reaches the
    # relay and goes no further, with 2 it arrives
    net = make_net([(0, 0), (30, 0), (60, 0)], overrides={(0, 1): 1.0, (1, 2): 1.0})
    net.run(8.0)
    assert net.routers[0].table[2].path == (0, 1, 2)
    transport, arrived = MeshTransport(net.medium, net.routers), []
    transport._forward(0, 2, 1000, arrived.append, 1)
    net.run(9.0)
    assert (transport.ttl_drops, transport.no_route_drops, arrived) == (1, 0, [])
    transport._forward(0, 2, 1000, arrived.append, 2)
    net.run(10.0)
    assert (transport.ttl_drops, transport.no_route_drops) == (1, 0)
    assert len(arrived) == 1


# -- one tick event per stream ----------------------------------------------

def test_legs_of_one_runner_share_rate_and_packet_size():
    _net, _server, stack, _clients = make_stack()
    fwd = FlowSpec("s/fwd", 0, 1, 64e3, 1280, "voice")
    rev = FlowSpec("s/rev", 1, 0, 32e3, 1280, "voice")
    with pytest.raises(ValueError, match="s/fwd"):
        stack._runner([(fwd, "c0", "c1"), (rev, "c1", "c0")], 5.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_legs_of_one_stream_send_alike(seed):
    report = Simulation(service_scenario(), seed).run()
    streams = {}
    for f in report.flows:
        assert f.delivered <= f.sent, f.flow_id
        if f.admitted:
            # callN/fwd and callN/rev are one stream, every bcast/<client>
            # of the run's one broadcast another, and each video its own
            stream = f.flow_id if f.kind == "video" else f.flow_id.rsplit("/", 1)[0]
            streams.setdefault(stream, []).append(f.sent)
    legs = {stream: len(sent) for stream, sent in streams.items()}
    assert legs["bcast"] > 2 and legs["call1"] == 2    # the run had many-leg streams
    assert all(len(set(sent)) == 1 for sent in streams.values()), streams
