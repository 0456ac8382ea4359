"""Unit tests for the one exchange, :meth:`Connection.call`, over a socketpair.

The peer end of the pair plays a server whose reply is written before
the call, so each test pins what the client does with exactly those
bytes: read them by the verb's declared reply shape, or -- when they
cannot be a reply -- close the connection and raise
:class:`DisconnectedError` rather than leave a desynchronized stream in
the pool.
"""

from __future__ import annotations

import socket
from types import SimpleNamespace

import pytest

from repro.chirp.protocol import DB_VERBS, LINES, PAYLOAD, STATUS, VERBS
from repro.transport.connection import Connection
from repro.transport.metrics import MetricsRegistry
from repro.util.errors import DisconnectedError, DoesNotExistError
from repro.util.wire import LineStream

#: one request per reply shape; the two payload-carrying requests send bytes
CALLS = {
    "stat": (("/f",), {}),
    "putfile": (("/f", 0o644, 3), {"payload": b"abc"}),
    "pread": ((3, 4, 0), {}),
    "getfile": (("/f",), {}),
    "statget": (("/f", 100), {}),
    "dbcmd": (('{"op": "get"}',), {}),
    "getdir": (("/",), {}),
    "getacl": (("/",), {}),
}


@pytest.fixture()
def pair():
    """``conn`` on one end, ``peer`` on the other, the deaths ``conn``
    reported and its ``metrics``."""
    mine, peer = socket.socketpair()
    mine.settimeout(5.0)
    p = SimpleNamespace(peer=peer, deaths=[], metrics=MetricsRegistry())
    p.conn = Connection(
        "peer", 1, LineStream(mine), "unix:test", 1,
        metrics=p.metrics, on_death=p.deaths.append,
    )
    yield p
    p.conn.close()
    peer.close()


def _call(conn, verb, **extra):
    args, options = CALLS[verb]
    return conn.call(verb, *args, **{**options, **extra})


def test_every_reply_shape_is_covered():
    shapes = {v.reply for v in {**VERBS, **DB_VERBS}.values()}
    assert shapes == {STATUS, PAYLOAD, LINES}
    assert {VERBS.get(v, DB_VERBS.get(v)).reply for v in CALLS} == shapes


@pytest.mark.parametrize("junk", [b"\n", b"abc\n"], ids=["empty", "not-a-number"])
@pytest.mark.parametrize("verb", list(CALLS))
def test_malformed_reply_closes_and_disconnects(pair, verb, junk):
    conn, peer, deaths = pair.conn, pair.peer, pair.deaths
    peer.sendall(junk)
    with pytest.raises(DisconnectedError):
        _call(conn, verb)
    assert conn.closed
    assert deaths == [conn]


@pytest.mark.parametrize("verb", ["statget", "getfile"])
def test_malformed_payload_length_closes(pair, verb):
    conn, peer = pair.conn, pair.peer
    peer.sendall(b"0 1 2 3 4 5 6 7 8 9 10 x\n" if verb == "statget" else b"x\n")
    with pytest.raises(DisconnectedError):
        _call(conn, verb)
    assert conn.closed


def test_oversize_reply_line_closes(pair):
    conn, peer = pair.conn, pair.peer
    peer.sendall(b"0" * (70 * 1024))
    with pytest.raises(DisconnectedError):
        _call(conn, "stat")
    assert conn.closed


def test_error_status_keeps_the_connection(pair):
    conn, peer, deaths = pair.conn, pair.peer, pair.deaths
    peer.sendall(b"-3 no%20such\n")
    with pytest.raises(DoesNotExistError):
        _call(conn, "getdir")
    assert not conn.closed and deaths == []


def test_replies_read_by_shape(pair):
    conn, peer = pair.conn, pair.peer
    peer.sendall(
        b"0 1 2 3 4 5 6 7 8 9 10 3\nxyz"  # statget
        b"2\na\nb\n"  # getdir
        b"4\nwxyz"  # getfile
        b"3\n"  # putfile
    )
    reply = _call(conn, "statget")
    assert (reply.status, reply.tokens[1:-1], reply.body) == (
        0, [str(i) for i in range(1, 11)], b"xyz"
    )
    assert _call(conn, "getdir").body == [["a"], ["b"]]
    assert _call(conn, "getfile").body == b"wxyz"
    assert _call(conn, "putfile").status == 3
    # The request stream is exactly what the four calls declared.
    peer.settimeout(5.0)
    sent = b""
    while sent.count(b"\n") < 4:
        sent += peer.recv(4096)
    assert sent == b"statget /f 100\ngetdir /\ngetfile /f\nputfile /f 420 3\nabc"


def test_byte_rule(pair):
    conn, peer = pair.conn, pair.peer
    peer.sendall(b"4\nwxyz" b"2\na\nbc\n" b"3\n")
    _call(conn, "getfile")
    _call(conn, "getdir")
    _call(conn, "putfile")
    verbs = pair.metrics.snapshot()["verbs"]
    # in: a payload reply counts its payload, any other reply its lines
    assert verbs["getfile"]["bytes_in"] == 4
    assert verbs["getdir"]["bytes_in"] == len(b"2\na\nbc\n")
    assert verbs["putfile"]["bytes_in"] == len(b"3\n")
    # out: the request line plus its payload
    assert verbs["getfile"]["bytes_out"] == len(b"getfile /f\n")
    assert verbs["putfile"]["bytes_out"] == len(b"putfile /f 420 3\nabc")


def test_sink_failure_closes_quietly_and_reraises(pair):
    conn, peer, deaths = pair.conn, pair.peer, pair.deaths
    peer.sendall(b"4\nwxyz")

    class Full:
        def write(self, data):
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError) as failure:
        _call(conn, "getfile", sink=Full())
    assert failure.value.errno == 28
    assert conn.closed
    # the server did nothing wrong: no death reported to the endpoint
    assert deaths == []
