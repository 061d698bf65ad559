import pytest

from meshsim.errors import ReceiverUnknown, SenderOffline, UnknownSession
from meshsim.services import (AckRetrySender, Client, Server, ServiceParams,
                              dedupe)

from conftest import FakeNet

SRV = 0        # server node
NODE_A = 10    # alice's attach node
NODE_B = 20    # bob's attach node


def make_world(loss_script=None):
    net = FakeNet(loss_script)
    server = Server(net, SRV, ServiceParams())
    alice = Client("alice", NODE_A, net, server)
    bob = Client("bob", NODE_B, net, server)
    return net, server, alice, bob


# -- dedupe -----------------------------------------------------------------

def test_dedupe_filter():
    log = set()
    assert dedupe(log, "m1") is True
    assert dedupe(log, "m1") is False
    assert dedupe(log, "m2") is True


# -- registration -----------------------------------------------------------

def test_open_mode_no_credentials():
    _net, server, alice, _bob = make_world()
    session = alice.register()
    assert session.status == "online"
    assert server.is_online("alice")


# -- presence ---------------------------------------------------------------

def test_presence_update_keeps_client_online():
    _net, server, alice, _bob = make_world()
    alice.register(t=0.0)
    server.presence_update("alice", 5.0)
    server.expire_stale(6.0)
    assert server.is_online("alice")


def test_silence_past_timeout_goes_offline():
    _net, server, alice, _bob = make_world()
    alice.register(t=0.0)
    assert server.expire_stale(20.0) == ["alice"]
    assert not server.is_online("alice")


def test_presence_update_for_unknown_session():
    _net, server, _alice, _bob = make_world()
    with pytest.raises(UnknownSession):
        server.presence_update("ghost", 1.0)


def test_beacon_back_from_offline_flushes_the_queue():
    net, server, alice, bob = make_world()
    bob.register(t=0.0)
    assert server.expire_stale(20.0) == ["bob"]
    alice.register(t=20.0)
    msg = alice.send_sms("bob")
    net.run(5.0)
    assert server.deliveries[msg.msg_id].phase == "queued_offline"
    bob.start_beacons()                         # its first beacon goes now
    net.run(10.0)
    assert server.is_online("bob") and "bob" not in server.offline_queue
    assert [m.msg_id for m in bob.inbox] == [msg.msg_id]
    assert server.deliveries[msg.msg_id].phase == "delivered"


def test_beacons_refresh_presence():
    net, server, alice, _bob = make_world()
    alice.register(t=0.0)
    alice.start_beacons()
    server.start_presence_timer()
    net.run(60.0)
    assert server.is_online("alice")


# -- relayed SMS ------------------------------------------------------------

def test_sms_lossless_single_transmission_each_leg():
    net, server, alice, bob = make_world()
    alice.register()
    bob.register()
    results = []
    msg = alice.send_sms("bob", on_done=lambda ok, t: results.append(ok))
    net.run(10.0)
    assert results == [True]
    assert [m.msg_id for m in bob.inbox] == [msg.msg_id]
    assert net.count(NODE_A, SRV) == 1          # uplink data
    assert net.count(SRV, NODE_B) == 1          # relay data, no retransmits
    assert server.deliveries[msg.msg_id].phase == "delivered"
    assert server.deliveries[msg.msg_id].retries_used == 0
    assert ("delivered" in [o for (_m, o, _t) in alice.notifications])


def test_sms_all_acks_lost_fails_after_four_transmissions():
    # data reaches the server every time; the ACK back never does
    net, _server, alice, bob = make_world(
        loss_script={(SRV, NODE_A): [False] * 10})
    alice.register()
    bob.register()
    results = []
    alice.send_sms("bob", on_done=lambda ok, t: results.append(ok))
    net.run(30.0)
    assert results == [False]
    assert net.count(NODE_A, SRV) == 4          # bounded retransmissions
    # the server got the payload anyway, and dedupe kept it exactly once
    assert len(bob.inbox) == 1


def test_sms_to_offline_recipient_queued_then_flushed():
    net, server, alice, bob = make_world()
    alice.register()
    results = []
    msg = alice.send_sms("bob", on_done=lambda ok, t: results.append(ok))
    net.run(5.0)
    assert results == [True]                    # uplink leg succeeded
    assert server.deliveries[msg.msg_id].phase == "queued_offline"
    assert bob.inbox == []
    bob.register()                              # arrival triggers the flush
    net.run(10.0)
    assert [m.msg_id for m in bob.inbox] == [msg.msg_id]
    assert server.deliveries[msg.msg_id].phase == "delivered"


@pytest.mark.parametrize("payload", [0.0, -5.0])
def test_sms_payload_must_be_positive(payload):
    net, _server, alice, _bob = make_world()
    alice.register()
    with pytest.raises(ValueError):
        alice.send_sms("bob", payload)
    assert net.sends == []


def test_sms_payload_none_sends_the_default_size():
    net, _server, alice, _bob = make_world()
    alice.register()
    assert alice.send_sms("bob").payload_size == ServiceParams().sms_bits
    assert net.sends[0][3] == ServiceParams().sms_bits


def test_sms_requires_online_sender():
    _net, _server, alice, _bob = make_world()
    with pytest.raises(SenderOffline):
        alice.send_sms("bob")


def test_sms_retry_after_single_data_loss():
    net, server, alice, bob = make_world(
        loss_script={(NODE_A, SRV): [False, True]})
    alice.register()
    bob.register()
    results = []
    alice.send_sms("bob", on_done=lambda ok, t: results.append(ok))
    net.run(10.0)
    assert results == [True]
    assert net.count(NODE_A, SRV) == 2
    assert len(bob.inbox) == 1


def test_relay_leg_retries_and_requeues_for_offline():
    # relay data frames all lost while bob is online; bob then goes offline
    # before the retries give up, so the message returns to the queue
    net, server, alice, bob = make_world(
        loss_script={(SRV, NODE_B): [False] * 4})
    alice.register()
    bob.register()
    msg = alice.send_sms("bob")
    net.run(3.0)
    server.sessions["bob"].status = "offline"
    net.run(30.0)
    assert server.deliveries[msg.msg_id].phase == "queued_offline"
    assert msg in server.offline_queue["bob"]


def test_relay_leg_fails_while_recipient_stays_online():
    # every relay data frame is lost and bob stays online: the message
    # fails, and the server tells alice so
    net, server, alice, bob = make_world(
        loss_script={(SRV, NODE_B): [False] * 4})
    alice.register()
    bob.register()
    msg = alice.send_sms("bob")
    net.run(30.0)
    assert net.count(SRV, NODE_B) == 4
    assert server.is_online("bob") and bob.inbox == []
    state = server.deliveries[msg.msg_id]
    assert (state.phase, state.retries_used) == ("failed", 3)
    assert "bob" not in server.offline_queue
    assert [(m, o) for (m, o, _t) in alice.notifications] == [(msg.msg_id, "failed")]


# -- exhaustive loss-pattern walk over one stop-and-wait leg ----------------

OK, DATA_LOST, ACK_LOST = "ok", "data_lost", "ack_lost"


def test_ack_after_the_leg_is_done_is_ignored():
    # 1.5 s each way: the first ACK lands at 3 s, after the 2 s timeout
    # resent the data, and the resend's ACK lands at 5 s
    net = FakeNet(latency=1.5)
    outcome = []
    AckRetrySender(net, 1, 2, 1600, ServiceParams(), on_receive=lambda t: None,
                   on_success=outcome.append).start()
    net.run(30.0)
    assert net.count(1, 2) == 2 and net.count(2, 1) == 2
    assert outcome == [3.0]


def run_leg_pattern(pattern):
    """Drive one AckRetrySender leg through a scripted loss pattern."""
    data_script = [p != DATA_LOST for p in pattern]
    ack_script = [p == OK for p in pattern if p != DATA_LOST]
    net = FakeNet({(1, 2): data_script, (2, 1): ack_script})
    params = ServiceParams()
    received, outcome = [], []
    AckRetrySender(net, 1, 2, 1600, params,
                   on_receive=lambda t: received.append(t),
                   on_success=lambda t: outcome.append(True),
                   on_fail=lambda t: outcome.append(False)).start()
    net.run(60.0)
    return net, received, outcome


@pytest.mark.parametrize("pattern", [
    (OK,),
    (DATA_LOST, OK),
    (ACK_LOST, OK),
    (DATA_LOST, DATA_LOST, DATA_LOST, OK),
    (ACK_LOST, ACK_LOST, ACK_LOST, OK),
    (DATA_LOST, ACK_LOST, DATA_LOST, OK),
    (DATA_LOST, DATA_LOST, DATA_LOST, DATA_LOST),
    (ACK_LOST, ACK_LOST, ACK_LOST, ACK_LOST),
    (DATA_LOST, ACK_LOST, DATA_LOST, ACK_LOST),
])
def test_leg_loss_patterns(pattern):
    net, received, outcome = run_leg_pattern(pattern)
    first_ok = next((i for i, p in enumerate(pattern) if p == OK), None)
    expect_success = first_ok is not None
    expect_tx = first_ok + 1 if expect_success else 4
    assert outcome == [expect_success]
    assert net.count(1, 2) == expect_tx
    data_through = sum(1 for p in pattern[:expect_tx] if p != DATA_LOST)
    assert len(received) == data_through


def test_leg_walk_exhaustive():
    import itertools
    for pattern in itertools.product((OK, DATA_LOST, ACK_LOST), repeat=4):
        net, received, outcome = run_leg_pattern(pattern)
        first_ok = next((i for i, p in enumerate(pattern) if p == OK), None)
        assert len(outcome) == 1
        assert outcome[0] == (first_ok is not None)
        assert net.count(1, 2) <= 4


# -- file transfer ----------------------------------------------------------

def test_file_single_chunk_when_small():
    net, server, alice, bob = make_world()
    alice.register()
    bob.register()
    done = []
    xfer = alice.send_file("bob", 800, 8000, on_done=lambda ok, t: done.append(ok))
    net.run(20.0)
    assert xfer.n_chunks == 1
    assert done == [True] and xfer.status == "delivered"


def test_file_ten_chunks_lossless():
    net, server, alice, bob = make_world()
    alice.register()
    bob.register()
    done = []
    xfer = alice.send_file("bob", 80_000, 8000,
                           on_done=lambda ok, t: done.append(ok))
    net.run(60.0)
    assert xfer.n_chunks == 10
    assert xfer.delivered_chunks == 10
    assert done == [True]
    assert sum(1 for m in bob.inbox if m.kind == "file_chunk") == 10


def test_file_aborts_at_failed_chunk():
    # chunk index 6 (the 7th) loses every uplink data frame
    script = [True] * 6 + [False] * 4
    net, server, alice, bob = make_world(loss_script={(NODE_A, SRV): script})
    alice.register()
    bob.register()
    done = []
    xfer = alice.send_file("bob", 80_000, 8000,
                           on_done=lambda ok, t: done.append(ok))
    net.run(120.0)
    assert xfer.status == "failed"
    assert done == [False]
    assert xfer.delivered_chunks == 6
    chunks = [m.msg_id for m in bob.inbox if m.kind == "file_chunk"]
    assert len(chunks) == 6                 # later chunks never sent
    assert not any(m.endswith("chunk7") or m.endswith("chunk8") for m in chunks)


def test_file_aborts_when_a_chunk_relay_fails():
    # the uplink succeeds, every relay frame to bob is lost and bob stays
    # online: the chunk's delivery fails and the transfer ends with it
    net, server, alice, bob = make_world(loss_script={(SRV, NODE_B): [False] * 4})
    alice.register()
    bob.register()
    done = []
    xfer = alice.send_file("bob", 16_000, 8000, on_done=lambda ok, t: done.append(ok))
    net.run(60.0)
    assert (xfer.status, done, xfer.delivered_chunks) == ("failed", [False], 0)
    assert net.count(NODE_A, SRV) == 1          # the second chunk never left
    assert server.deliveries[f"{xfer._transfer_id}/chunk0"].phase == "failed"


@pytest.mark.parametrize("chunk", [-8000, 0])
def test_file_chunk_must_be_positive(chunk):
    net, _server, alice, bob = make_world()
    alice.register()
    bob.register()
    done = []
    with pytest.raises(ValueError):
        alice.send_file("bob", 64_000, chunk, on_done=lambda ok, t: done.append(ok))
    assert (net.sends, done) == ([], [])


def test_file_to_unknown_receiver():
    _net, _server, alice, _bob = make_world()
    alice.register()
    with pytest.raises(ReceiverUnknown):
        alice.send_file("nobody", 800, 800)
    with pytest.raises(ValueError):
        alice.send_file("alice", 0, 800)
