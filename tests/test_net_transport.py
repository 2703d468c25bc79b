"""Unit tests for the asyncio TCP transport (repro.net.transport)."""

import queue
import socket
import sys
import threading
import time

import pytest

from repro.core.command import Command
from repro.errors import ConfigurationError, ShutdownError
from repro.net.codec import WIRE_NAMES, wire_codec
from repro.net.config import free_port
from repro.net.transport import TcpTransport


def make_pair(**kwargs):
    """Two started transports that know each other's endpoints."""
    addresses = {0: ("127.0.0.1", free_port()),
                 1: ("127.0.0.1", free_port())}
    left = TcpTransport(0, addresses, **kwargs).start()
    right = TcpTransport(1, addresses, **kwargs).start()
    return left, right


def drain_until(inbox, count, timeout=5.0):
    """Collect ``count`` messages or fail the test."""
    received = []
    deadline = time.monotonic() + timeout
    while len(received) < count:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"only {len(received)}/{count} arrived"
        try:
            received.append(inbox.get(timeout=remaining))
        except queue.Empty:
            continue
    return received


class TestContract:
    def test_inbox_is_own_node_only(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        try:
            assert transport.inbox(0) is transport.inbox(0)
            with pytest.raises(ConfigurationError):
                transport.inbox(1)
        finally:
            transport.close()

    def test_own_endpoint_required(self):
        with pytest.raises(ConfigurationError):
            TcpTransport(5, {0: ("127.0.0.1", free_port())})

    def test_unknown_peer_rejected(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        try:
            with pytest.raises(ConfigurationError):
                transport.send(0, 9, "hello")
        finally:
            transport.close()

    def test_send_after_close_raises(self):
        left, right = make_pair()
        right.close()
        left.close()
        assert left.closed
        with pytest.raises(ShutdownError):
            left.send(0, 1, "late")

    def test_close_is_idempotent(self):
        left, right = make_pair()
        left.close()
        left.close()
        right.close()

    def test_bind_conflict_is_reported(self):
        port = free_port()
        first = TcpTransport(0, {0: ("127.0.0.1", port)}).start()
        try:
            second = TcpTransport(0, {0: ("127.0.0.1", port)})
            with pytest.raises(ConfigurationError):
                second.start()
        finally:
            first.close()


class TestDelivery:
    def test_send_receive_in_order(self):
        left, right = make_pair()
        try:
            for index in range(20):
                left.send(0, 1, ("msg", index))
            received = drain_until(right.inbox(1), 20)
            assert received == [(0, ("msg", index)) for index in range(20)]
        finally:
            left.close()
            right.close()

    def test_both_directions(self):
        left, right = make_pair()
        try:
            left.send(0, 1, "ping")
            assert right.inbox(1).get(timeout=5) == (0, "ping")
            right.send(1, 0, "pong")
            assert left.inbox(0).get(timeout=5) == (1, "pong")
        finally:
            left.close()
            right.close()

    def test_self_send_loops_back_without_sockets(self):
        transport = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        try:
            transport.send(0, 0, "to-myself")
            assert transport.inbox(0).get(timeout=5) == (0, "to-myself")
        finally:
            transport.close()

    def test_commands_cross_the_wire(self):
        left, right = make_pair()
        try:
            command = Command("add", (3,), writes=True,
                              client_id="c1", request_id=2)
            left.send(0, 1, (command,))
            src, payload = right.inbox(1).get(timeout=5)
            assert src == 0
            assert payload == (command,)
            assert isinstance(payload, tuple)
        finally:
            left.close()
            right.close()

    def test_interceptor_consumes_before_inbox(self):
        seen = []
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}

        def interceptor(src, msg):
            if isinstance(msg, str) and msg.startswith("client:"):
                seen.append((src, msg))
                return True
            return False

        left = TcpTransport(0, addresses).start()
        right = TcpTransport(1, addresses, interceptor=interceptor).start()
        try:
            left.send(0, 1, "client:hello")
            left.send(0, 1, ("protocol", 1))
            assert right.inbox(1).get(timeout=5) == (0, ("protocol", 1))
            assert seen == [(0, "client:hello")]
            assert right.inbox(1).empty()
        finally:
            left.close()
            right.close()


class TestReconnect:
    def test_reconnects_after_peer_restart(self):
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        left = TcpTransport(0, addresses, backoff_base=0.02,
                            backoff_max=0.1).start()
        right = TcpTransport(1, addresses).start()
        try:
            left.send(0, 1, "before")
            assert right.inbox(1).get(timeout=5) == (0, "before")
            right.close()

            # Same endpoint, new transport — as a restarted replica would.
            right = TcpTransport(1, addresses).start()
            deadline = time.monotonic() + 10
            delivered = None
            sequence = 0
            while delivered is None and time.monotonic() < deadline:
                # Frames written into the dying connection may be lost
                # (fair-lossy); keep sending until one lands.
                left.send(0, 1, ("after", sequence))
                sequence += 1
                try:
                    delivered = right.inbox(1).get(timeout=0.1)
                except queue.Empty:
                    continue
            assert delivered is not None, "never reconnected"
            assert delivered[1][0] == "after"
        finally:
            left.close()
            right.close()

    def test_add_peer_registers_dynamic_endpoint(self):
        server = TcpTransport(0, {0: ("127.0.0.1", free_port())}).start()
        client_port = free_port()
        client = TcpTransport(
            1000,
            {1000: ("127.0.0.1", client_port),
             0: server.peers()[0]},
        ).start()
        try:
            with pytest.raises(ConfigurationError):
                server.send(0, 1000, "who are you")
            server.add_peer(1000, "127.0.0.1", client_port)
            server.send(0, 1000, "now I know you")
            assert client.inbox(1000).get(timeout=5) == (0, "now I know you")
        finally:
            client.close()
            server.close()

    def test_bounded_outbox_drops_oldest(self):
        # Peer 1's endpoint is allocated but nothing listens: frames pile
        # up in the bounded outbox and the oldest fall off.
        addresses = {0: ("127.0.0.1", free_port()),
                     1: ("127.0.0.1", free_port())}
        limit = 4
        left = TcpTransport(0, addresses, queue_limit=limit,
                            backoff_base=0.02, backoff_max=0.1).start()
        try:
            total = 20
            for index in range(total):
                left.send(0, 1, ("queued", index))
            time.sleep(0.1)  # let the pump fail at least once

            right = TcpTransport(1, addresses).start()
            try:
                received = []
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    try:
                        received.append(right.inbox(1).get(timeout=0.3))
                    except queue.Empty:
                        if received:
                            break
                # Queued plus in-flight frames never exceed the bound.
                assert 1 <= len(received) <= limit
                assert received[-1] == (0, ("queued", total - 1)), (
                    "the newest frame must survive the drop-oldest policy")
            finally:
                right.close()
        finally:
            left.close()


# ---------------------------------------------------------------- framing


@pytest.fixture(params=WIRE_NAMES)
def wire(request):
    return request.param


@pytest.fixture
def receiver(wire):
    transport = TcpTransport(0, {0: ("127.0.0.1", free_port())},
                             wire=wire).start()
    yield transport
    transport.close()


def raw_connection(transport):
    """A plain socket to ``transport``'s server, Nagle off."""
    sock = socket.create_connection(transport.peers()[0], timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def frames(wire, messages, src=7):
    codec = wire_codec(wire)
    return [codec.encode_frame(src, message) for message in messages]


class TestFraming:
    """Bulk reads must split and join frames exactly, in both codecs."""

    def test_burst_sent_one_byte_at_a_time(self, wire, receiver):
        messages = [("msg", index, "x" * index) for index in range(12)]
        data = b"".join(frames(wire, messages))
        with raw_connection(receiver) as sock:
            for index in range(len(data)):
                sock.sendall(data[index:index + 1])
                if index % 16 == 0:
                    time.sleep(0.001)  # let reads see partial frames
            received = drain_until(receiver.inbox(0), len(messages))
        assert received == [(7, message) for message in messages]

    def test_many_frames_in_one_segment_all_dispatch(self, wire, receiver):
        messages = [("msg", index) for index in range(300)]
        with raw_connection(receiver) as sock:
            sock.sendall(b"".join(frames(wire, messages)))
            received = drain_until(receiver.inbox(0), len(messages))
        assert received == [(7, message) for message in messages]

    def test_frame_larger_than_one_read(self, wire, receiver):
        big = "y" * 300_000
        data = b"".join(frames(wire, ["before", big, "after"]))
        with raw_connection(receiver) as sock:
            sock.sendall(data)
            received = drain_until(receiver.inbox(0), 3)
        assert received == [(7, "before"), (7, big), (7, "after")]

    def test_corrupt_frame_mid_burst_drops_connection(self, wire, receiver):
        good = frames(wire, [("good", index) for index in range(6)])
        header_size = wire_codec(wire).header_size
        template = good[0]
        # A valid header announcing a body that decodes in neither codec.
        corrupt = (template[:header_size]
                   + b"\xff" * (len(template) - header_size))
        with raw_connection(receiver) as sock:
            sock.sendall(b"".join(good[:3] + [corrupt] + good[3:]))
            received = drain_until(receiver.inbox(0), 3)
            # The transport hangs up on the corrupt peer ...
            assert sock.recv(1) == b""
        assert received == [(7, ("good", index)) for index in range(3)]
        # ... and nothing after the corrupt frame reaches the inbox.
        time.sleep(0.1)
        assert receiver.inbox(0).empty()

    def test_concurrent_senders_keep_per_thread_fifo(self, wire):
        # More sender threads than cores and a short switch interval: a
        # frame lost between the pending list and the flush, or a burst
        # left without a scheduled flush, shows as a missing message.
        left, right = make_pair(wire=wire)
        threads, per_thread = 4, 150
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def sender(thread_index):
                for seq in range(per_thread):
                    left.send(0, 1, ("t", thread_index, seq))

            workers = [threading.Thread(target=sender, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
                assert not worker.is_alive()
            received = drain_until(right.inbox(1), threads * per_thread)
        finally:
            sys.setswitchinterval(interval)
            left.close()
            right.close()
        for thread_index in range(threads):
            seqs = [msg[2] for _, msg in received if msg[1] == thread_index]
            assert seqs == list(range(per_thread))
