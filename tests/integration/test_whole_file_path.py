"""The whole-file byte path: ``getfile``/``putfile`` end to end.

The server sends ``getfile`` bodies from fd-backed store handles with
``os.sendfile``, the client receives a large reply straight into the
``bytes`` it returns, and puts land through one reused receive buffer.
These tests pin down what must not change while the copies go: exact
bytes at every size boundary, faults that still fire, a file that
shrinks mid-send reported as a disconnect (never as short success),
sinks that stream, and a put whose store writes a short count.
"""

from __future__ import annotations

import io
import os

import pytest

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import OpenFlags
from repro.store.faulty import BITROT, EIO, SHORT_WRITE, DiskFaultScript
from repro.store.localdir import _OsFdHandle
from repro.store.memory import _MemHandle
from repro.transport.deadline import Deadline
from repro.util.checksum import data_checksum
from repro.util.clock import ManualClock
from repro.util.errors import DisconnectedError, IntegrityError, UnknownError
from repro.util.wire import SINGLE_COPY_MIN, LineStream

MIB = 1 << 20


def _payload(size: int, salt: int = 0) -> bytes:
    return bytes((i * 7 + salt) % 251 for i in range(256)) * (size // 256) + bytes(
        (i + salt) % 251 for i in range(size % 256)
    )


class _RecordingSink:
    """A sink that keeps a copy of what it is given and the chunk sizes."""

    def __init__(self):
        self.data = bytearray()
        self.writes: list[int] = []

    def write(self, chunk) -> int:
        self.writes.append(len(chunk))
        self.data += chunk
        return len(chunk)


@pytest.fixture()
def sendfile_calls(monkeypatch):
    """Count the server's ``LineStream.sendfile`` calls."""
    calls = []
    original = LineStream.sendfile

    def counting(self, fd, offset, length):
        calls.append(length)
        return original(self, fd, offset, length)

    monkeypatch.setattr(LineStream, "sendfile", counting)
    return calls


def _client(server, credentials, **kwargs) -> ChirpClient:
    return ChirpClient(*server.address, credentials=credentials, timeout=10.0, **kwargs)


class TestGetfileBytes:
    @pytest.mark.parametrize(
        "size",
        [0, 1, SINGLE_COPY_MIN - 1, SINGLE_COPY_MIN, SINGLE_COPY_MIN + 1, 3 * MIB + 17],
    )
    def test_exact_bytes_at_every_boundary(self, client, size):
        data = _payload(size, salt=size % 13)
        client.putfile("/f", data)
        assert client.getfile("/f") == data

    def test_back_to_back_large_reads_keep_the_stream_in_sync(self, client):
        a, b = _payload(2 * MIB + 5, 1), _payload(MIB + 3, 2)
        client.putfile("/a", a)
        client.putfile("/b", b)
        for _ in range(2):
            assert client.getfile("/a") == a
            assert client.getfile("/b") == b
        assert client.stat("/a").size == len(a)

    @pytest.mark.parametrize(
        "store, expect_sendfile",
        [("local", True), ("cas", True), ("memory", False), ("faulty+local", False)],
    )
    def test_fd_backed_stores_send_with_sendfile(
        self, server_factory, credentials, sendfile_calls, store, expect_sendfile
    ):
        server = server_factory.new(store=store)
        data = _payload(MIB + 1)
        with _client(server, credentials) as c:
            c.putfile("/f", data)
            assert c.getfile("/f") == data
        assert sendfile_calls == ([len(data)] if expect_sendfile else [])


class TestFaultsStillFire:
    def test_bitrot_on_faulty_local_is_caught_by_verified_read(
        self, server_factory, credentials
    ):
        # The fault wrapper hides the inner fd; if it leaked, the kernel
        # would send the clean bytes around the injected rot.
        server = server_factory.new(store="faulty+local")
        data = _payload(MIB + 99)
        with _client(server, credentials) as c:
            c.putfile("/f", data)
            rot = DiskFaultScript(op="pread", action=BITROT, path="/f")
            server.backend.store.plan.script(rot)
            with pytest.raises(IntegrityError):
                c.getfile_verified("/f", data_checksum(data))
            assert c.getfile_verified("/f", data_checksum(data)) == data

    def test_read_error_after_the_size_line_is_a_disconnect(
        self, server_factory, credentials
    ):
        # Once the size line is out, a status line would be read as
        # payload: the server hangs up instead.
        server = server_factory.new(store="faulty+local")
        data = _payload(MIB + 5)
        with _client(server, credentials) as c:
            c.putfile("/f", data)
            server.backend.store.plan.script(DiskFaultScript(op="pread", action=EIO, path="/f"))
            with pytest.raises(DisconnectedError, match="closed"):
                c.getfile("/f")
            assert c.getfile("/f") == data

    def test_file_truncated_during_send_is_a_disconnect(
        self, server_factory, credentials, monkeypatch
    ):
        server = server_factory.new(store="local")
        data = _payload(2 * MIB)
        real = os.path.join(server.config.root, "f")
        original = _OsFdHandle.fstat

        def fstat_then_truncated(self):
            # Another session truncates between the size line and the body.
            st = original(self)
            os.truncate(real, MIB)
            monkeypatch.setattr(_OsFdHandle, "fstat", original)
            return st

        with _client(server, credentials) as c:
            c.putfile("/f", data)
            monkeypatch.setattr(_OsFdHandle, "fstat", fstat_then_truncated)
            # The server hangs up at once; it does not leave the client
            # waiting out its timeout for bytes that will never come.
            with pytest.raises(DisconnectedError, match="closed"):
                c.getfile("/f")
            # The dead session is replaced and the next RPC works.
            assert c.stat("/f").size == MIB
            assert c.getfile("/f") == data[:MIB]


class TestSinksStream:
    def test_getfile_with_sink_never_materialises(self, client, monkeypatch):
        data = _payload(3 * MIB + 5)
        client.putfile("/f", data)

        def refuse(self, length):
            raise AssertionError("a sink read materialised the payload")

        monkeypatch.setattr(LineStream, "read_payload", refuse)
        sink = _RecordingSink()
        assert client.getfile("/f", sink) == len(data)
        assert bytes(sink.data) == data
        assert len(sink.writes) > 1 and max(sink.writes) <= MIB

    def test_getfile_verified_with_sink_streams_and_checks(self, client, monkeypatch):
        data = _payload(2 * MIB + 1)
        client.putfile("/f", data)
        monkeypatch.setattr(
            LineStream, "read_payload", lambda self, n: pytest.fail("materialised")
        )
        sink = _RecordingSink()
        assert client.getfile_verified("/f", data_checksum(data), sink) == len(data)
        assert bytes(sink.data) == data and max(sink.writes) <= MIB
        with pytest.raises(IntegrityError):
            client.getfile_verified("/f", data_checksum(b"other"), _RecordingSink())

    def test_streamed_put_from_file_object(self, client):
        data = _payload(2 * MIB + 3)
        assert client.putfile("/f", io.BytesIO(data)) == len(data)
        assert client.getfile("/f") == data


class TestLocalFailureMidTransfer:
    """A client-side sink or source failing mid-payload leaves bytes of
    the exchange unread or unsent: the connection must close, the
    caller's own error must surface, and the session must answer next."""

    def test_sink_failure_propagates_and_session_recovers(
        self, file_server, credentials
    ):
        data = _payload(8 * MIB)
        with ChirpClient(
            *file_server.address, credentials=credentials, timeout=5.0, max_conns=1
        ) as c:
            c.putfile("/big", data)

            class FullDisk(_RecordingSink):
                def write(self, chunk) -> int:
                    if self.writes:
                        raise OSError(28, "No space left on device")
                    return super().write(chunk)

            with pytest.raises(OSError) as failure:
                c.getfile("/big", FullDisk())
            assert failure.value.errno == 28
            assert c.stat("/big").size == len(data)

    def test_source_failure_propagates_and_session_recovers(
        self, file_server, credentials
    ):
        with ChirpClient(
            *file_server.address, credentials=credentials, timeout=5.0, max_conns=1
        ) as c:
            c.putfile("/kept", b"k" * 123)

            class FailingDisk(io.BytesIO):
                def read(self, n=-1):
                    if self.tell() >= MIB:
                        raise OSError(5, "Input/output error")
                    return super().read(n)

            with pytest.raises(OSError) as failure:
                c.putfile("/torn", FailingDisk(_payload(4 * MIB)))
            assert failure.value.errno == 5
            assert c.stat("/kept").size == 123


class TestShortStoreWrites:
    @pytest.mark.parametrize("kind", ["local", "cas", "memory"])
    def test_short_write_is_completed_before_the_ack(
        self, server_factory, credentials, kind
    ):
        # An honest short count from the store must not lose the tail of
        # the chunk while the put acks the full length.
        server = server_factory.new(store=f"faulty+{kind}")
        data = _payload(2 * MIB)
        with _client(server, credentials) as c:
            server.backend.store.plan.script(DiskFaultScript(op="pwrite", action=SHORT_WRITE))
            assert c.putfile("/f", data) == len(data)
            assert server.backend.store.plan.injected == 1
            assert c.stat("/f").size == len(data)
            assert c.getfile("/f") == data

    def test_store_making_no_progress_fails_the_put_cleanly(
        self, server_factory, credentials, monkeypatch
    ):
        server = server_factory.new(store="memory")
        monkeypatch.setattr(_MemHandle, "pwrite", lambda self, data, offset: 0)
        with _client(server, credentials, max_conns=1) as c:
            with pytest.raises(UnknownError):
                c.putfile("/f", _payload(MIB + 7))
            # The payload was drained: the same session answers next.
            live = c.endpoint.raw_stream()
            assert c.whoami()
            assert c.endpoint.raw_stream() is live


class TestDeadlineDoesNotLinger:
    """A bounded RPC clamps the socket timeout; the next unbounded
    exchange on the same pooled connection must run with the dialed one."""

    @pytest.fixture()
    def bounded(self, file_server, credentials):
        c = _client(file_server, credentials, max_conns=1)
        c.putfile("/f", _payload(MIB))
        c.stat("/f", deadline=Deadline(0.5, ManualClock()))
        sock = c.endpoint.raw_stream().socket
        assert sock.gettimeout() == pytest.approx(0.5)
        yield c, sock
        c.close()

    def test_getfile(self, bounded):
        c, sock = bounded
        seen = []

        class Probe(_RecordingSink):
            def write(self, chunk):
                seen.append(sock.gettimeout())
                return super().write(chunk)

        c.getfile("/f", Probe())
        assert seen and set(seen) == {10.0}

    def test_putfile(self, bounded):
        c, sock = bounded
        seen = []

        class Source(io.BytesIO):
            def read(self, n=-1):
                seen.append(sock.gettimeout())
                return super().read(n)

        c.putfile("/g", Source(_payload(MIB)))
        assert seen and set(seen) == {10.0}

    def test_getacl(self, bounded):
        c, sock = bounded
        c.getacl("/")
        assert sock.gettimeout() == 10.0

    def test_putflags(self, bounded):
        c, sock = bounded
        assert c.putflags("/h", _payload(MIB), OpenFlags(write=True, create=True))
        assert sock.gettimeout() == 10.0
