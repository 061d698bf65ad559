"""Disaster-communication application layer over the simulated mesh.

Server-relayed messaging (SMS and chunked file transfer) with bounded
ACK/retry, store-and-forward queues for offline recipients, presence with
expiry, admission-controlled calls, broadcast audio, and a confirm-first
video request handshake. All state machines are driven by a transport
object exposing now()/schedule()/send(); production uses MeshTransport,
tests can substitute a scripted fake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import (CalleeOffline, DurationExceeded, NoRoute, ReceiverUnknown,
                     SenderOffline, UnknownSession, check_ranges)
from .qos import FlowSpec, Reject


@dataclass
class ServiceParams:
    ack_timeout: float = 2.0
    presence_timeout: float = 15.0
    beacon_interval: float = 5.0
    max_transmissions: int = 4        # 1 send + 3 resends per message leg
    sms_bits: int = 1600              # 200-byte text payload
    ack_bits: int = 512
    beacon_bits: int = 512
    control_bits: int = 512
    voice_rate: float = 64000.0       # bits/s per direction
    voice_packet_bits: int = 1280     # 160-byte payload at 50 pkt/s
    video_rate: float = 500000.0
    video_packet_bits: int = 8000
    video_answer_timeout: float = 10.0
    video_answer_delay: float = 0.5
    broadcast_limit: float = 120.0    # seconds of recorded audio
    broadcast_rate: float = 24000.0   # AMR-ish audio stream
    broadcast_packet_bits: int = 960

    def __post_init__(self):
        check_ranges(self, nonnegative=("video_answer_delay",),
                     positive=[k for k in vars(self) if k != "video_answer_delay"])
        if self.video_answer_delay >= self.video_answer_timeout:
            raise ValueError(f"video_answer_delay ({self.video_answer_delay}) must be "
                             f"below video_answer_timeout ({self.video_answer_timeout})")


@dataclass
class ClientSession:
    client_id: str
    attach_node: int
    last_seen: float = 0.0
    status: str = "online"            # online | offline


@dataclass
class Message:
    msg_id: str
    kind: str                         # sms | file_chunk
    src: str
    final_dst: str
    payload_size: float


@dataclass
class DeliveryState:
    phase: str = "pending"            # pending | awaiting_ack | queued_offline
    retries_used: int = 0             #   | delivered | failed


def dedupe(receiver_log: set, msg_id) -> bool:
    """Exactly-once filter above the transport: True the first time msg_id
    is seen, False for a duplicate (duplicates are still ACKed)."""
    if msg_id in receiver_log:
        return False
    receiver_log.add(msg_id)
    return True


class AckRetrySender:
    """One stop-and-wait leg: data out, ACK back, bounded retransmissions."""

    def __init__(self, net, src_node, dst_node, bits, params: ServiceParams,
                 on_receive, on_success=None, on_fail=None):
        self.net = net
        self.src_node = src_node
        self.dst_node = dst_node
        self.bits = bits
        self.params = params
        self.on_receive = on_receive
        self.on_success = on_success
        self.on_fail = on_fail
        self.transmissions = 0
        self.done = False

    def start(self):
        self._attempt()
        return self

    def _attempt(self):
        self.transmissions += 1
        epoch = self.transmissions
        self.net.send(self.src_node, self.dst_node, self.bits, self._data_arrived)
        self.net.schedule(self.net.now() + self.params.ack_timeout,
                          lambda: self._timeout(epoch))

    def _data_arrived(self, t):
        self.on_receive(t)
        self.net.send(self.dst_node, self.src_node, self.params.ack_bits,
                      self._ack_arrived)

    def _ack_arrived(self, t):
        if self.done:
            return
        self.done = True
        if self.on_success is not None:
            self.on_success(t)

    def _timeout(self, epoch):
        if self.done or epoch != self.transmissions:
            return
        if self.transmissions >= self.params.max_transmissions:
            self.done = True
            if self.on_fail is not None:
                self.on_fail(self.net.now())
        else:
            self._attempt()


class MeshTransport:
    """Datagram forwarding over routing tables, one MAC frame per hop."""

    TTL = 32

    def __init__(self, medium, routers):
        self.engine = medium.engine
        self.medium = medium
        self.routers = routers
        self.header_bits = medium.params.header_bits
        self.no_route_drops = 0

    def now(self):
        return self.engine.now

    def schedule(self, t, fn):
        self.engine.schedule(t, fn)

    def send(self, src_node, dst_node, bits, deliver=None):
        if src_node == dst_node:
            if deliver is not None:
                now = self.engine.now
                self.engine.schedule(now, partial(deliver, now))
            return
        self._forward(src_node, dst_node, bits + self.header_bits,
                      deliver, self.TTL)

    def _forward(self, node, dst_node, frame_bits, deliver, ttl, _t=None):
        """Send one hop from node toward dst_node.

        Relaying re-enters here as the previous hop's on_delivered callback,
        which passes the arrival time as _t.
        """
        if ttl <= 0:
            self.no_route_drops += 1
            return
        route = self.routers[node].route_to(dst_node)
        if route is None:
            self.no_route_drops += 1
            return
        next_hop = route.next_hop
        if next_hop != dst_node:
            deliver = partial(self._forward, next_hop, dst_node, frame_bits,
                              deliver, ttl - 1)
        nl = route.nl
        self.medium.send_frame(nl.link_idx, nl.forward, frame_bits, deliver)


@dataclass
class FlowRecord:
    """Per-flow delivery accounting; packets before measure_from are ignored."""

    flow_id: str
    kind: str
    src: str
    dst: str
    sent: int = 0
    delivered: int = 0
    delay_sum: float = 0.0
    jitter: float = 0.0
    measure_from: float = 0.0
    _last_transit: float | None = None
    admitted: bool = True

    def on_send(self, t):
        if t >= self.measure_from:
            self.sent += 1

    def on_recv(self, t_sent, t_arrived):
        if t_sent < self.measure_from:
            return
        self.delivered += 1
        transit = t_arrived - t_sent
        self.delay_sum += transit
        if self._last_transit is not None:
            d = abs(transit - self._last_transit)
            self.jitter += (d - self.jitter) / 16.0
        self._last_transit = transit

    @property
    def pdr(self):
        return self.delivered / self.sent if self.sent else float("nan")

    @property
    def plr(self):
        return 1.0 - self.pdr if self.sent else float("nan")

    @property
    def mean_delay(self):
        return self.delay_sum / self.delivered if self.delivered else float("nan")


class FlowRunner:
    """CBR packet generator for the legs of one stream.

    legs lists (src node, dst node, FlowRecord) triples that share packet
    size, interval and end: a call's two directions, a broadcast's
    listeners, a video's one leg. Each tick is one event that sends one
    packet per leg in leg order and schedules the next tick.

    That is the run one runner per leg made, whose ticks at one instant
    took consecutive seqs, with one exception. An event that a leg's send
    schedules for exactly the next tick instant (its first-hop frame
    completing then, to the last bit) ran after the earlier legs' ticks and
    before its own leg's; now it runs before the whole tick.
    """

    def __init__(self, net, legs, packet_bits, interval, t_end):
        self.net = net
        self.legs = legs
        self.packet_bits = packet_bits
        self.interval = interval
        self.t_end = t_end

    def start(self):
        self._tick()
        return self

    def _tick(self):
        net = self.net
        now = net.now()
        if now >= self.t_end:
            return
        send, bits = net.send, self.packet_bits
        for src_node, dst_node, record in self.legs:
            record.on_send(now)
            send(src_node, dst_node, bits, partial(record.on_recv, now))
        net.schedule(now + self.interval, self._tick)


class Server:
    """Relay, registry, and store-and-forward core at the server node."""

    def __init__(self, net, node_id, params: ServiceParams):
        self.net = net
        self.node_id = node_id
        self.params = params
        self.sessions: dict[str, ClientSession] = {}
        self.clients: dict[str, "Client"] = {}
        self.offline_queue: dict[str, list[Message]] = {}
        self.deliveries: dict[str, DeliveryState] = {}
        self.uplink_log: set = set()

    # -- registration / presence -----------------------------------------

    def register(self, client_id, attach_node, t) -> ClientSession:
        session = ClientSession(client_id, attach_node, t)
        self.sessions[client_id] = session
        self._flush_queue(client_id)
        return session

    def presence_update(self, client_id, t):
        session = self.sessions.get(client_id)
        if session is None:
            raise UnknownSession(client_id)
        was_offline = session.status == "offline"
        session.last_seen = t
        session.status = "online"
        if was_offline:
            self._flush_queue(client_id)

    def expire_stale(self, t) -> list[str]:
        gone = []
        for cid, session in self.sessions.items():
            if (session.status == "online"
                    and t - session.last_seen > self.params.presence_timeout):
                session.status = "offline"
                gone.append(cid)
        return gone

    def is_online(self, client_id) -> bool:
        s = self.sessions.get(client_id)
        return s is not None and s.status == "online"

    def start_presence_timer(self):
        """Mark silent sessions offline, checking once a second."""
        def tick():
            self.expire_stale(self.net.now())
            self.net.schedule(self.net.now() + 1.0, tick)
        self.net.schedule(self.net.now() + 1.0, tick)

    # -- relayed messaging -------------------------------------------------

    def accept_uplink(self, msg: Message, t):
        """Called when a client message reaches the server (post-dedupe)."""
        if not dedupe(self.uplink_log, msg.msg_id):
            return
        self._dispatch(msg)

    def _dispatch(self, msg: Message):
        state = self.deliveries.setdefault(msg.msg_id, DeliveryState())
        if self.is_online(msg.final_dst):
            self._relay(msg, state)
        else:
            state.phase = "queued_offline"
            self.offline_queue.setdefault(msg.final_dst, []).append(msg)

    def _relay(self, msg: Message, state: DeliveryState):
        state.phase = "awaiting_ack"
        session = self.sessions[msg.final_dst]
        dst_client = self.clients.get(msg.final_dst)

        def on_receive(t):
            if dst_client is not None:
                dst_client.receive_message(msg, t)

        def on_success(t):
            state.retries_used = sender.transmissions - 1
            state.phase = "delivered"
            self._notify_sender(msg, "delivered")

        def on_fail(t):
            state.retries_used = sender.transmissions - 1
            if not self.is_online(msg.final_dst):
                self._dispatch(msg)            # queues it until the recipient is back
            else:
                state.phase = "failed"
                self._notify_sender(msg, "failed")

        sender = AckRetrySender(self.net, self.node_id, session.attach_node,
                                msg.payload_size, self.params,
                                on_receive, on_success, on_fail).start()

    def _notify_sender(self, msg: Message, outcome: str):
        src_client = self.clients[msg.src]
        self.net.send(self.node_id, self.sessions[msg.src].attach_node,
                      self.params.control_bits,
                      lambda t: src_client.notify(msg.msg_id, outcome, t))

    def _flush_queue(self, client_id):
        queued = self.offline_queue.pop(client_id, [])
        for msg in queued:
            self._dispatch(msg)


class Client:
    """Client-side state machine bound to an access node."""

    def __init__(self, client_id, attach_node, net, server: Server,
                 video_answer: str = "accept"):
        self.client_id = client_id
        self.attach_node = attach_node
        self.net = net
        self.server = server
        self.params = server.params
        self.video_answer = video_answer   # one of VIDEO_ANSWERS
        self.inbox: list[Message] = []
        self.receiver_log: set = set()
        self.notifications: list[tuple[str, str, float]] = []
        self._msg_counter = 0
        server.clients[client_id] = self

    # -- session -----------------------------------------------------------

    def register(self, t=None) -> ClientSession:
        t = self.net.now() if t is None else t
        return self.server.register(self.client_id, self.attach_node, t)

    def start_beacons(self):
        def tick():
            if self.server.sessions.get(self.client_id) is not None:
                self.net.send(self.attach_node, self.server.node_id,
                              self.params.beacon_bits,
                              partial(self.server.presence_update,
                                      self.client_id))
            self.net.schedule(self.net.now() + self.params.beacon_interval, tick)
        tick()

    def attach(self, node_id):
        self.attach_node = node_id
        session = self.server.sessions.get(self.client_id)
        if session is not None:
            session.attach_node = node_id

    def _require_online(self):
        if not self.server.is_online(self.client_id):
            raise SenderOffline(self.client_id)

    def _next_id(self, kind):
        self._msg_counter += 1
        return f"{self.client_id}/{kind}/{self._msg_counter}"

    # -- messaging ----------------------------------------------------------

    def send_sms(self, dst_id, payload_bits=None, on_done=None) -> Message:
        self._require_online()
        if payload_bits is None:
            payload_bits = self.params.sms_bits
        elif payload_bits <= 0:
            raise ValueError("payload must be > 0")
        msg = Message(self._next_id("sms"), "sms", self.client_id, dst_id,
                      payload_bits)
        self._uplink(msg, on_done)
        return msg

    def _uplink(self, msg: Message, on_done=None):
        server = self.server

        def on_receive(t):
            server.accept_uplink(msg, t)

        def on_fail(t):
            state = server.deliveries.setdefault(msg.msg_id, DeliveryState())
            state.phase = "failed"
            if on_done is not None:
                on_done(False, t)

        def on_success(t):
            if on_done is not None:
                on_done(True, t)

        AckRetrySender(self.net, self.attach_node, server.node_id,
                       msg.payload_size, self.params,
                       on_receive, on_success, on_fail).start()

    def receive_message(self, msg: Message, t):
        if dedupe(self.receiver_log, msg.msg_id):
            self.inbox.append(msg)

    def notify(self, msg_id, outcome, t):
        self.notifications.append((msg_id, outcome, t))

    # -- file transfer -------------------------------------------------------

    def send_file(self, dst_id, size_bits, chunk_bits, on_done=None) -> "FileTransfer":
        self._require_online()
        if dst_id not in self.server.sessions:
            raise ReceiverUnknown(dst_id)
        if size_bits <= 0 or chunk_bits <= 0:
            raise ValueError("size and chunk must be > 0")
        return FileTransfer(self, dst_id, size_bits, chunk_bits, on_done).start()


class FileTransfer:
    """Stop-and-wait chunked transfer; one outstanding chunk, abort on loss."""

    def __init__(self, client: Client, dst_id, size_bits, chunk_bits, on_done=None):
        self.client = client
        self.dst_id = dst_id
        self.chunk_bits = chunk_bits
        self.n_chunks = math.ceil(size_bits / chunk_bits)
        self.next_chunk = 0
        self.delivered_chunks = 0
        self.status = "running"       # running | delivered | failed
        self.on_done = on_done
        self._transfer_id = client._next_id("file")

    def start(self):
        self._send_next()
        return self

    def _send_next(self):
        if self.next_chunk >= self.n_chunks:
            self.status = "delivered"
            if self.on_done is not None:
                self.on_done(True, self.client.net.now())
            return
        i = self.next_chunk
        self.next_chunk += 1
        server = self.client.server
        msg = Message(f"{self._transfer_id}/chunk{i}", "file_chunk",
                      self.client.client_id, self.dst_id, self.chunk_bits)

        def watch(msg_id=msg.msg_id):
            state = server.deliveries[msg_id]
            if state.phase == "delivered":
                self.delivered_chunks += 1
                self._send_next()
            elif state.phase == "failed":
                self._fail()
            else:
                self.client.net.schedule(self.client.net.now() + 0.25, watch)

        def on_uplink(ok, t):
            if not ok:
                self._fail()
            else:
                watch()

        self.client._uplink(msg, on_uplink)

    def _fail(self):
        self.status = "failed"
        if self.on_done is not None:
            self.on_done(False, self.client.net.now())


class ServiceStack:
    """Coordinates calls, broadcasts, and video handshakes over the mesh."""

    def __init__(self, net, server: Server, ledger, medium, warmup: float = 0.0):
        self.net = net
        self.server = server
        self.ledger = ledger
        self.params = server.params
        self.medium = medium
        self.warmup = warmup
        self.flows: list[FlowRecord] = []
        self._call_counter = 0

    def _path_links(self, src_node, dst_node):
        route = self.net.routers[src_node].route_to(dst_node)
        if route is None:
            raise NoRoute(f"{src_node}->{dst_node}")
        return [self.medium.topo.link_between(a, b)
                for a, b in zip(route.path, route.path[1:])]

    def _endpoints(self, src_id, dst_id):
        """Attach nodes of two clients that must both be online."""
        server = self.server
        if not server.is_online(src_id):
            raise SenderOffline(src_id)
        if not server.is_online(dst_id):
            raise CalleeOffline(dst_id)
        return (server.sessions[src_id].attach_node,
                server.sessions[dst_id].attach_node)

    def _reserve(self, specs):
        """Admit every spec that crosses a link, or none of them.

        Returns the reserved flow ids, or the first Reject. A Reject or a
        NoRoute releases the reservations made before it.
        """
        reserved, admitted = [], False
        try:
            for spec in specs:
                if spec.src == spec.dst:
                    continue                   # one node: no airtime to book
                path = self._path_links(spec.src, spec.dst)
                decision = self.ledger.admit(spec, path, self.medium.busy_fraction)
                if isinstance(decision, Reject):
                    return decision
                reserved.append(spec.id)
            admitted = True
        finally:
            if not admitted:
                self.release(reserved)
        return reserved

    def release(self, reserved):
        """Give back the reservations of these flow ids."""
        for fid in reserved:
            self.ledger.release(fid)

    def _runner(self, legs, t_end) -> FlowRunner:
        """One CBR generator for the legs of a stream, with their
        FlowRecords added to flows. legs are (spec, src client, dst client)
        triples whose specs share one rate and packet size."""
        spec = legs[0][0]
        if any((leg.packet_size, leg.demand) != (spec.packet_size, spec.demand)
               for leg, _src, _dst in legs):
            raise ValueError(f"legs of {spec.id} differ in rate or packet size")
        triples = []
        for leg, src_id, dst_id in legs:
            rec = FlowRecord(leg.id, leg.kind, src_id, dst_id,
                             measure_from=self.warmup)
            self.flows.append(rec)
            triples.append((leg.src, leg.dst, rec))
        return FlowRunner(self.net, triples, spec.packet_size,
                          spec.packet_size / spec.demand, t_end)

    def start_call(self, src_id, dst_id, duration, background=False):
        """Bidirectional CBR call at voice_rate; admission-checked unless
        background. Returns the reserved flow ids, or the Reject."""
        p = self.params
        src_node, dst_node = self._endpoints(src_id, dst_id)
        self._call_counter += 1
        call_id = f"call{self._call_counter}"
        kind = "background" if background else "voice"
        fwd = FlowSpec(f"{call_id}/fwd", src_node, dst_node, p.voice_rate,
                       p.voice_packet_bits, kind)
        rev = FlowSpec(f"{call_id}/rev", dst_node, src_node, p.voice_rate,
                       p.voice_packet_bits, kind)
        reserved = [] if background else self._reserve((fwd, rev))
        if isinstance(reserved, Reject):
            self.flows.append(FlowRecord(reserved.flow_id, kind, src_id, dst_id,
                                         admitted=False))
            return reserved
        now = self.net.now()
        t_end = now + duration
        runner = self._runner([(fwd, src_id, dst_id), (rev, dst_id, src_id)],
                              t_end)
        self.net.schedule(now, runner.start)
        self.net.schedule(t_end, partial(self.release, reserved))
        return reserved

    def broadcast_audio(self, duration) -> list[FlowRecord]:
        """Unicast stream to every online client; exempt from admission."""
        p = self.params
        if duration > p.broadcast_limit:
            raise DurationExceeded(f"{duration}s > {p.broadcast_limit}s")
        t_end = self.net.now() + duration
        sessions = self.server.sessions
        legs = [(FlowSpec(f"bcast/{cid}", self.server.node_id,
                          sessions[cid].attach_node, p.broadcast_rate,
                          p.broadcast_packet_bits, "broadcast"), "server", cid)
                for cid in sorted(sessions) if self.server.is_online(cid)]
        if not legs:
            return []
        runner = self._runner(legs, t_end).start()
        return [record for _src, _dst, record in runner.legs]

    def request_video(self, src_id, dst_id, duration, response=None) -> "VideoRequest":
        """Confirm-first video: stream only starts on the receiver's accept.
        response, if given, answers this request instead of video_answer."""
        src_node, dst_node = self._endpoints(src_id, dst_id)
        req = VideoRequest(self, src_id, dst_id, duration, response)
        return req.start(src_node, dst_node)


# a client's answer to a video request: accept, decline, or let it time out
VIDEO_ANSWERS = ("accept", "decline", "none")


class VideoRequest:
    def __init__(self, stack: ServiceStack, src_id, dst_id, duration, response=None):
        self.stack = stack
        self.src_id = src_id
        self.dst_id = dst_id
        self.duration = duration
        self.response = response      # this request's answer, if given
        self.result = None            # accepted | declined | rejected | timeout

    def start(self, src_node, dst_node):
        net = self.stack.net
        p = self.stack.params
        dst_client = self.stack.server.clients.get(self.dst_id)

        def answer(t):
            policy = self.response or (dst_client.video_answer if dst_client else "none")
            if policy == "none":
                return
            net.schedule(t + p.video_answer_delay, lambda: net.send(
                dst_node, src_node, p.control_bits,
                lambda tt, pol=policy: self._answered(pol, tt)))

        net.send(src_node, dst_node, p.control_bits, answer)
        net.schedule(net.now() + p.video_answer_timeout, self._timeout)
        return self

    def _answered(self, policy, t):
        if self.result is not None:
            return
        if policy == "decline":
            self.result = "declined"
            return
        stack = self.stack
        p = stack.params
        sessions = stack.server.sessions
        # attach nodes as of now: a client may have moved since the request
        spec = FlowSpec(f"video/{self.src_id}/{self.dst_id}",
                        sessions[self.src_id].attach_node,
                        sessions[self.dst_id].attach_node,
                        p.video_rate, p.video_packet_bits, "video")
        ledger = stack.ledger
        if ledger is not None and spec.id in ledger.flows:
            self.result = "rejected"           # this pair's video is still live
            return
        try:
            reserved = stack._reserve((spec,))
        except NoRoute:                        # e.g. moved out of reach
            reserved = None
        if reserved is None or isinstance(reserved, Reject):
            self.result = "rejected"
            return
        self.result = "accepted"
        t_end = stack.net.now() + self.duration
        stack._runner([(spec, self.src_id, self.dst_id)], t_end).start()
        stack.net.schedule(t_end, partial(stack.release, reserved))

    def _timeout(self):
        if self.result is None:
            self.result = "timeout"
