"""Unit tests for the wire codec and LineStream."""

import io
import os

import pytest

from repro.util.errors import DisconnectedError, InvalidRequestError
from repro.util.wire import (
    SINGLE_COPY_MIN,
    LineStream,
    decode_token,
    encode_token,
    pack_line,
    unpack_line,
)


class TestTokenCodec:
    def test_plain_token_unchanged(self):
        assert encode_token("hello.txt") == "hello.txt"

    def test_space_is_escaped(self):
        assert encode_token("a b") == "a%20b"
        assert decode_token("a%20b") == "a b"

    def test_newline_is_escaped(self):
        wire = encode_token("a\nb")
        assert "\n" not in wire
        assert decode_token(wire) == "a\nb"

    def test_empty_token_has_representation(self):
        wire = encode_token("")
        assert wire == "%"
        assert decode_token(wire) == ""

    def test_unicode_roundtrip(self):
        for text in ("héllo", "日本語", "a\tb", "100%"):
            assert decode_token(encode_token(text)) == text

    def test_percent_itself_roundtrips(self):
        assert decode_token(encode_token("%")) == "%"

    def test_truncated_escape_rejected(self):
        with pytest.raises(InvalidRequestError):
            decode_token("abc%2")

    def test_bad_hex_rejected(self):
        with pytest.raises(InvalidRequestError):
            decode_token("abc%zz")

    def test_slash_and_colon_pass_through(self):
        # paths and subjects dominate the protocol; keep them readable
        assert encode_token("/a/b:9094") == "/a/b:9094"


class TestLineCodec:
    def test_pack_mixed_tokens(self):
        line = pack_line("open", "/a b", 42, 0o644)
        assert line.endswith(b"\n")
        assert unpack_line(line) == ["open", "/a b", "42", "420"]

    def test_bool_packs_as_digit(self):
        assert unpack_line(pack_line(True, False)) == ["1", "0"]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            pack_line(object())

    def test_empty_line_unpacks_empty(self):
        assert unpack_line(b"\n") == []

    def test_crlf_tolerated(self):
        assert unpack_line(b"stat /x\r\n") == ["stat", "/x"]


class FakeSocket:
    """Just enough socket for LineStream: scripted recv, captured sends."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.sent = bytearray()
        self.closed = False

    def recv(self, n):
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        return chunk[:n] if len(chunk) <= n else self._split(chunk, n)

    def recv_into(self, view):
        chunk = self.recv(len(view))
        view[: len(chunk)] = chunk
        return len(chunk)

    def _split(self, chunk, n):
        head, tail = chunk[:n], chunk[n:]
        self.chunks.insert(0, tail)
        return head

    def sendall(self, data):
        self.sent.extend(data)

    def close(self):
        self.closed = True


class TestLineStream:
    def test_read_line_across_chunks(self):
        stream = LineStream(FakeSocket([b"he", b"llo wor", b"ld\nrest"]))
        assert stream.read_line() == b"hello world\n"

    def test_read_tokens(self):
        stream = LineStream(FakeSocket([b"open /x rwc 420\n"]))
        assert stream.read_tokens() == ["open", "/x", "rwc", "420"]

    def test_eof_mid_line_raises_disconnected(self):
        stream = LineStream(FakeSocket([b"partial line without newline"]))
        with pytest.raises(DisconnectedError):
            stream.read_line()

    def test_read_exact_spans_chunks(self):
        stream = LineStream(FakeSocket([b"abc", b"defg", b"hij"]))
        assert stream.read_exact(8) == b"abcdefgh"
        assert stream.read_exact(2) == b"ij"

    def test_read_exact_negative_rejected(self):
        stream = LineStream(FakeSocket([]))
        with pytest.raises(InvalidRequestError):
            stream.read_exact(-1)

    def test_read_exact_eof_raises(self):
        stream = LineStream(FakeSocket([b"abc"]))
        with pytest.raises(DisconnectedError):
            stream.read_exact(10)

    def test_line_plus_payload(self):
        stream = LineStream(FakeSocket([b"3\nABCtail\n"]))
        tokens = stream.read_tokens()
        assert tokens == ["3"]
        assert stream.read_exact(3) == b"ABC"
        assert stream.read_line() == b"tail\n"

    def test_read_into_file_streams(self):
        stream = LineStream(FakeSocket([b"12345", b"67890"]))
        sink = io.BytesIO()
        stream.read_into_file(sink, 10)
        assert sink.getvalue() == b"1234567890"

    def test_read_into_file_uses_buffered_bytes_first(self):
        stream = LineStream(FakeSocket([b"hdr\nPAYLOAD"]))
        assert stream.read_line() == b"hdr\n"
        sink = io.BytesIO()
        stream.read_into_file(sink, 7)
        assert sink.getvalue() == b"PAYLOAD"

    def test_read_into_file_reuses_one_receive_buffer(self):
        # Sinks get views of one buffer that the next chunk overwrites,
        # which is why a sink must copy what it keeps.
        kept = []
        sink = type("Sink", (), {"write": lambda self, chunk: kept.append(chunk)})()
        stream = LineStream(FakeSocket([b"aaaa", b"bbbb", b"cc"]))
        stream.read_into_file(sink, 10)
        assert all(isinstance(chunk, memoryview) for chunk in kept)
        assert len({id(chunk.obj) for chunk in kept}) == 1
        assert bytes(kept[-1]) == b"cc"

    def test_read_payload_small_is_read_exact(self):
        stream = LineStream(FakeSocket([b"abc", b"defg\n"]))
        assert stream.read_payload(7) == b"abcdefg"
        assert stream.read_line() == b"\n"

    def test_read_payload_large_fills_one_bytes_object(self):
        big = bytes(range(256)) * 1024
        head, body = b"7\n" + big[:1000], big[1000:]
        stream = LineStream(FakeSocket([head, body[:70000], body[70000:] + b"next\n"]))
        assert stream.read_tokens() == ["7"]
        data = stream.read_payload(len(big))
        assert type(data) is bytes and data == big
        assert stream.read_line() == b"next\n"

    def test_read_payload_eof_raises(self):
        stream = LineStream(FakeSocket([b"x" * (SINGLE_COPY_MIN * 2)]))
        with pytest.raises(DisconnectedError):
            stream.read_payload(SINGLE_COPY_MIN * 3)

    def test_write_from_file(self):
        sock = FakeSocket([])
        stream = LineStream(sock)
        stream.write_from_file(io.BytesIO(b"x" * 100), 100, chunk_size=7)
        assert bytes(sock.sent) == b"x" * 100

    def test_write_from_truncated_file_raises(self):
        stream = LineStream(FakeSocket([]))
        with pytest.raises(DisconnectedError):
            stream.write_from_file(io.BytesIO(b"short"), 100)

    def test_oversized_line_rejected(self):
        stream = LineStream(FakeSocket([b"x" * 70000]))
        with pytest.raises(InvalidRequestError):
            stream.read_line(max_len=65536)

    def test_oversized_line_crossing_max_mid_chunk(self):
        # The newline-free line arrives in small chunks and only crosses
        # MAX_LINE partway through the stream -- the reader must reject it
        # once the buffer exceeds the limit, not hang waiting for more.
        chunks = [b"y" * 8192 for _ in range(9)]  # 72 KiB, no newline yet
        chunks.append(b"z" * 100 + b"\n")
        stream = LineStream(FakeSocket(chunks))
        with pytest.raises(InvalidRequestError):
            stream.read_line(max_len=65536)

    def test_payload_reads_are_exempt_from_line_limit(self):
        # Binary payloads follow the status line and may far exceed
        # MAX_LINE; only line framing is bounded.
        big = b"p" * (65536 * 2)
        stream = LineStream(FakeSocket([b"131072\n", big[:70000], big[70000:]]))
        assert stream.read_tokens() == ["131072"]
        assert stream.read_exact(len(big)) == big

    def test_close_is_idempotent(self):
        sock = FakeSocket([])
        stream = LineStream(sock)
        stream.close()
        stream.close()
        assert sock.closed


class TestSendfile:
    DATA = bytes(range(251)) * 200

    @pytest.fixture()
    def source(self, tmp_path):
        path = tmp_path / "src"
        path.write_bytes(self.DATA)
        fd = os.open(path, os.O_RDONLY)
        yield fd
        os.close(fd)

    def test_sends_a_file_range(self, socket_pair, source):
        a, b = socket_pair
        LineStream(a).sendfile(source, 10, 30000)
        assert LineStream(b).read_exact(30000) == self.DATA[10:30010]

    def test_truncated_source_raises_disconnected(self, socket_pair, source):
        a, _ = socket_pair
        with pytest.raises(DisconnectedError, match="truncated"):
            LineStream(a).sendfile(source, 0, len(self.DATA) + 100)

    def test_socket_with_timeout_copies_through_user_space(
        self, socket_pair, source, monkeypatch
    ):
        # A timeout makes the socket non-blocking underneath, where
        # os.sendfile would answer EAGAIN instead of waiting.
        a, b = socket_pair
        a.settimeout(5.0)
        monkeypatch.setattr(os, "sendfile", lambda *args: pytest.fail("sendfile used"))
        LineStream(a).sendfile(source, 0, len(self.DATA))
        assert LineStream(b).read_exact(len(self.DATA)) == self.DATA
