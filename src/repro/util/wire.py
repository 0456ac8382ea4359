"""Line-oriented wire codec shared by the Chirp, catalog, and DB protocols.

The Chirp protocol is deliberately simple: each request is one text line of
space-separated tokens terminated by ``\\n``, optionally followed by a
binary payload of a length stated in the line.  Responses are a status line
(an integer, negative on failure) optionally followed by payload.  Control
and data share a single TCP connection so the congestion window stays open
across files -- the property the paper contrasts with FTP's separate data
connections.

Tokens that may contain spaces or newlines (paths, subject names) are
percent-escaped with :func:`encode_token` / :func:`decode_token`.
"""

from __future__ import annotations

import io
import os
import re
import socket

from repro.util.errors import DisconnectedError, InvalidRequestError

__all__ = [
    "encode_token",
    "decode_token",
    "pack_line",
    "unpack_line",
    "LineStream",
    "MAX_LINE",
    "SINGLE_COPY_MIN",
]

MAX_LINE = 64 * 1024  # longest request/response line we will accept
#: unread payload bytes above which read_payload receives in place
SINGLE_COPY_MIN = 64 * 1024
_SAFE_CHARS = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    "-_.~/:@+=,*()[]{}!$&'#^|"
)
_SAFE = set(_SAFE_CHARS)
# Most tokens (paths, numbers, subjects) need no escaping at all; one
# regex match answers that for the whole token at C speed.
_ALL_SAFE = re.compile(f"[{re.escape(_SAFE_CHARS)}]+").fullmatch


def encode_token(token: str) -> str:
    """Percent-escape a token so it survives space-separated framing.

    The empty string encodes to ``%``, so every token occupies at least one
    character on the wire and splitting on spaces round-trips.
    """
    if _ALL_SAFE(token):
        return token
    if token == "":
        return "%"
    out = []
    for ch in token:
        if ch in _SAFE:
            out.append(ch)
        else:
            out.extend(f"%{b:02X}" for b in ch.encode("utf-8"))
    return "".join(out)


def decode_token(token: str) -> str:
    """Invert :func:`encode_token`."""
    if "%" not in token:
        return token
    if token == "%":
        return ""
    raw = bytearray()
    i = 0
    n = len(token)
    while i < n:
        ch = token[i]
        if ch == "%":
            if i + 3 > n:
                raise InvalidRequestError(f"truncated escape in token: {token!r}")
            try:
                raw.append(int(token[i + 1 : i + 3], 16))
            except ValueError as exc:
                raise InvalidRequestError(f"bad escape in token: {token!r}") from exc
            i += 3
        else:
            raw.extend(ch.encode("utf-8"))
            i += 1
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidRequestError(f"token is not valid UTF-8: {token!r}") from exc


def pack_line(*tokens: object) -> bytes:
    """Build one wire line from tokens.

    Integers are rendered in decimal; strings are percent-escaped.
    """
    parts = []
    for tok in tokens:
        if isinstance(tok, bool):
            parts.append("1" if tok else "0")
        elif isinstance(tok, int):
            parts.append(str(tok))
        elif isinstance(tok, str):
            parts.append(encode_token(tok))
        else:
            raise TypeError(f"cannot encode token of type {type(tok).__name__}")
    line = " ".join(parts)
    data = line.encode("ascii") + b"\n"
    if len(data) > MAX_LINE:
        raise InvalidRequestError("wire line too long")
    return data


def unpack_line(line: bytes) -> list[str]:
    """Split a raw wire line into decoded tokens."""
    text = line.decode("ascii", errors="strict").rstrip("\r\n")
    if not text:
        return []
    return [decode_token(t) for t in text.split(" ") if t]


class LineStream:
    """Buffered reader/writer over a connected socket.

    Provides exactly the primitives the protocols need: read one line, read
    an exact byte count, write bytes.  A closed or reset peer surfaces as
    :class:`DisconnectedError` so callers never see raw socket errors.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray()
        self._closed = False

    @property
    def socket(self) -> socket.socket:
        return self._sock

    def read_line(self, max_len: int = MAX_LINE) -> bytes:
        """Read up to and including the next ``\\n``; raise on EOF."""
        while True:
            idx = self._buf.find(b"\n")
            if idx >= 0:
                line = bytes(self._buf[: idx + 1])
                del self._buf[: idx + 1]
                return line
            if len(self._buf) > max_len:
                raise InvalidRequestError("line exceeds maximum length")
            chunk = self._recv(65536)
            if not chunk:
                raise DisconnectedError("connection closed while reading line")
            self._buf.extend(chunk)

    def read_tokens(self) -> list[str]:
        """Read one line and split it into decoded tokens."""
        return unpack_line(self.read_line())

    def read_exact(self, length: int) -> bytes:
        """Read exactly ``length`` payload bytes."""
        if length < 0:
            raise InvalidRequestError(f"negative payload length {length}")
        while len(self._buf) < length:
            want = min(1 << 20, max(65536, length - len(self._buf)))
            chunk = self._recv(want)
            if not chunk:
                raise DisconnectedError("connection closed mid-payload")
            self._buf.extend(chunk)
        data = bytes(self._buf[:length])
        del self._buf[:length]
        return data

    def read_payload(self, length: int) -> bytes:
        """:meth:`read_exact` for whole-file payloads: one copy per byte.

        A large payload is received straight into the ``bytes`` object
        returned: ``BufferedReader.read`` allocates it once and hands
        views of it to :class:`_PayloadReader`, which fills them from the
        line buffer, then with ``recv_into``.  Payloads with at most
        ``SINGLE_COPY_MIN`` bytes still unread take :meth:`read_exact`:
        the reader's set-up only pays for itself on large payloads.
        """
        if length - len(self._buf) <= SINGLE_COPY_MIN:
            return self.read_exact(length)
        data = io.BufferedReader(_PayloadReader(self), 1).read(length)
        if len(data) < length:
            raise DisconnectedError("connection closed mid-payload")
        return data

    def _readinto(self, view: memoryview) -> int:
        """Fill a prefix of ``view`` from the line buffer, else the socket."""
        if self._buf:
            n = min(len(self._buf), len(view))
            view[:n] = self._buf[:n]
            del self._buf[:n]
            return n
        return self._recv_into(view)

    def discard(self, length: int) -> None:
        """Read and drop ``length`` payload bytes so the stream stays in sync."""
        while length > 0:
            length -= len(self.read_exact(min(1 << 20, length)))

    def read_into_file(self, fobj, length: int, chunk_size: int = 1 << 20) -> None:
        """Stream ``length`` payload bytes directly into a file object.

        Used by ``putfile`` so large uploads never materialize in memory.
        Bytes are received into one buffer reused for every chunk, and
        ``fobj.write`` is passed ``memoryview`` slices of it: **a sink
        copies what it keeps** (``os.pwrite``, ``BytesIO``, a bytearray
        slice assignment and ``hashlib`` all do), because the next chunk
        overwrites the view it was given.
        """
        remaining = length
        if self._buf:
            # Consume from the buffer *before* writing: if fobj.write
            # raises mid-payload (a store fault), the bytes must count
            # as read off the wire or the caller's drain of the unread
            # tail leaves them behind and desyncs the stream.
            take = min(len(self._buf), remaining)
            chunk = bytes(self._buf[:take])
            del self._buf[:take]
            remaining -= take
            fobj.write(chunk)
        view = memoryview(bytearray(min(chunk_size, remaining)))
        while remaining > 0:
            n = self._recv_into(view[: min(len(view), remaining)])
            if not n:
                raise DisconnectedError("connection closed mid-payload")
            remaining -= n
            fobj.write(view[:n])

    def write(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            self._closed = True
            raise DisconnectedError(f"send failed: {exc}") from exc

    def write_line(self, *tokens: object) -> None:
        self.write(pack_line(*tokens))

    def write_lines(self, lines) -> None:
        """Send many token-tuples as one ``sendall``.

        Multi-line responses (directory listings, ACL dumps) coalesce
        into a single syscall and, with Nagle disabled, a single segment
        burst -- instead of one ``send`` per entry.
        """
        self.write(b"".join(pack_line(*tokens) for tokens in lines))

    def write_from_file(self, fobj, length: int, chunk_size: int = 1 << 20) -> None:
        """Stream ``length`` bytes from a file object to the peer."""
        remaining = length
        while remaining > 0:
            chunk = fobj.read(min(chunk_size, remaining))
            if not chunk:
                raise DisconnectedError("source file truncated during send")
            self.write(chunk)
            remaining -= len(chunk)

    def sendfile(self, fd: int, offset: int, length: int) -> None:
        """Send ``length`` bytes of the file ``fd`` from ``offset``.

        ``os.sendfile`` moves them from the page cache to the socket in
        the kernel; none enters user space.  Like
        :meth:`write_from_file`, a file that ends early raises
        :class:`DisconnectedError`: the peer was promised ``length``
        bytes and the stream cannot carry a status line any more, so any
        failure -- of the file or of the socket -- ends the connection.
        """
        if self._closed:
            raise DisconnectedError("stream already closed")
        if self._sock.gettimeout() is not None:
            # A socket with a timeout is non-blocking underneath, where
            # os.sendfile answers EAGAIN instead of waiting.
            self._send_fd_copying(fd, offset, length)
            return
        out = self._sock.fileno()
        end = offset + length
        while offset < end:
            try:
                sent = os.sendfile(out, fd, offset, end - offset)
            except OSError as exc:
                self._closed = True
                raise DisconnectedError(f"sendfile failed: {exc}") from exc
            if not sent:
                raise DisconnectedError("source file truncated during send")
            offset += sent

    def _send_fd_copying(self, fd: int, offset: int, length: int) -> None:
        end = offset + length
        while offset < end:
            try:
                chunk = os.pread(fd, min(1 << 20, end - offset), offset)
            except OSError as exc:
                raise DisconnectedError(f"source read failed: {exc}") from exc
            if not chunk:
                raise DisconnectedError("source file truncated during send")
            self.write(chunk)
            offset += len(chunk)

    def _recv(self, n: int) -> bytes:
        if self._closed:
            raise DisconnectedError("stream already closed")
        try:
            return self._sock.recv(n)
        except (ConnectionError, OSError) as exc:
            self._closed = True
            raise DisconnectedError(f"recv failed: {exc}") from exc

    def _recv_into(self, view: memoryview) -> int:
        if self._closed:
            raise DisconnectedError("stream already closed")
        try:
            return self._sock.recv_into(view)
        except (ConnectionError, OSError) as exc:
            self._closed = True
            raise DisconnectedError(f"recv failed: {exc}") from exc

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass


class _PayloadReader(io.RawIOBase):
    """The raw side of :meth:`LineStream.read_payload`."""

    def __init__(self, stream: LineStream):
        super().__init__()
        self._stream = stream

    def readable(self) -> bool:
        return True

    def readinto(self, view) -> int:
        return self._stream._readinto(view)
