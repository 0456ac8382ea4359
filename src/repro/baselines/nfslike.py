"""A runnable NFS-like file service (protocol-shape baseline).

Captures the three protocol properties the paper contrasts with Chirp:

1. **Per-component LOOKUP**: opening ``/a/b/c`` costs a ``lookup`` RPC per
   path component (plus a ``getattr``), where Chirp's ``open`` is one
   round trip -- the paper's explanation for CFS's lower stat/open latency.
2. **Fixed-size block transfer**: reads and writes move at most
   ``NFS_BLOCK_SIZE`` (4 KB) per RPC, strictly request-response -- the
   paper's explanation for NFS's ~10 MB/s bandwidth ceiling.
3. **File handles, not descriptors**: handles are server-side tokens for
   paths; there is no open/close state on the server.

Caching is deliberately absent on both sides, matching the paper's
"apples-to-apples" configuration (NFS with caching disabled).
"""

from __future__ import annotations

import os
import secrets
import socket
import threading

from repro.chirp.protocol import ChirpStat
from repro.util.errors import (
    DoesNotExistError,
    InvalidRequestError,
    StatusCode,
    error_from_status,
)
from repro.util.paths import PathEscapeError, confine, normalize_virtual
from repro.util.server import ServerCore, Session
from repro.util.wire import LineStream

__all__ = ["NfsLikeServer", "NfsLikeClient", "NFS_BLOCK_SIZE"]

NFS_BLOCK_SIZE = 4096


class NfsLikeServer(ServerCore):
    """A minimal NFS-flavored server over one exported directory."""

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0):
        self.root = os.path.realpath(root)
        if not os.path.isdir(self.root):
            raise NotADirectoryError(root)
        super().__init__(host, port)
        self._fh_to_path: dict[str, str] = {}
        self._path_to_fh: dict[str, str] = {}
        self._lock = threading.Lock()
        self.root_fh = self._fh_for("/")

    # -- handle table ---------------------------------------------------

    def _fh_for(self, vpath: str) -> str:
        vpath = normalize_virtual(vpath)
        with self._lock:
            fh = self._path_to_fh.get(vpath)
            if fh is None:
                fh = secrets.token_hex(8)
                self._path_to_fh[vpath] = fh
                self._fh_to_path[fh] = vpath
            return fh

    def _path_for(self, fh: str) -> str:
        with self._lock:
            try:
                return self._fh_to_path[fh]
            except KeyError:
                raise error_from_status(
                    int(StatusCode.STALE), f"stale file handle {fh}"
                ) from None

    def _real(self, vpath: str) -> str:
        try:
            return confine(self.root, vpath)
        except PathEscapeError as exc:
            raise InvalidRequestError(str(exc)) from exc

    # -- RPCs (no authentication: handles are the only credential) -------

    def serve(self, sock: socket.socket, addr) -> None:
        self.serve_requests(sock, Session(LineStream(sock), ""))

    def handle(self, session: Session, tokens: list[str]) -> None:
        stream = session.stream
        op, args = tokens[0], tokens[1:]
        if op == "lookup":
            parent = self._path_for(args[0])
            child = normalize_virtual(parent.rstrip("/") + "/" + args[1])
            if not os.path.exists(self._real(child)):
                raise DoesNotExistError(child)
            stream.write_line(0, self._fh_for(child))
        elif op == "getattr":
            st = ChirpStat.from_os(os.stat(self._real(self._path_for(args[0]))))
            stream.write_line(0, *st.to_tokens())
        elif op == "read":
            fh, offset, count = args[0], int(args[1]), int(args[2])
            count = min(count, NFS_BLOCK_SIZE)
            with open(self._real(self._path_for(fh)), "rb") as f:
                f.seek(offset)
                data = f.read(count)
            stream.write_line(len(data))
            if data:
                stream.write(data)
        elif op == "write":
            fh, offset, count = args[0], int(args[1]), int(args[2])
            if count > NFS_BLOCK_SIZE:
                raise InvalidRequestError("write exceeds NFS block size")
            data = stream.read_exact(count)
            real = self._real(self._path_for(fh))
            fd = os.open(real, os.O_WRONLY)
            try:
                os.pwrite(fd, data, offset)
            finally:
                os.close(fd)
            stream.write_line(count)
        elif op == "create":
            parent = self._path_for(args[0])
            child = normalize_virtual(parent.rstrip("/") + "/" + args[1])
            fd = os.open(self._real(child), os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
            os.close(fd)
            stream.write_line(0, self._fh_for(child))
        elif op == "remove":
            parent = self._path_for(args[0])
            child = normalize_virtual(parent.rstrip("/") + "/" + args[1])
            os.unlink(self._real(child))
            self._forget(child)
            stream.write_line(0)
        elif op == "rename":
            src = normalize_virtual(self._path_for(args[0]).rstrip("/") + "/" + args[1])
            dst = normalize_virtual(self._path_for(args[2]).rstrip("/") + "/" + args[3])
            os.rename(self._real(src), self._real(dst))
            self._forget(src)
            stream.write_line(0)
        elif op == "mkdir":
            parent = self._path_for(args[0])
            child = normalize_virtual(parent.rstrip("/") + "/" + args[1])
            os.mkdir(self._real(child))
            stream.write_line(0, self._fh_for(child))
        elif op == "rmdir":
            parent = self._path_for(args[0])
            child = normalize_virtual(parent.rstrip("/") + "/" + args[1])
            os.rmdir(self._real(child))
            self._forget(child)
            stream.write_line(0)
        elif op == "readdir":
            names = sorted(os.listdir(self._real(self._path_for(args[0]))))
            stream.write_line(len(names))
            for name in names:
                stream.write_line(name)
        elif op == "rootfh":
            stream.write_line(0, self.root_fh)
        else:
            raise InvalidRequestError(f"unknown op {op!r}")

    def _forget(self, vpath: str) -> None:
        with self._lock:
            fh = self._path_to_fh.pop(vpath, None)
            if fh is not None:
                self._fh_to_path.pop(fh, None)


class NfsLikeClient:
    """Client performing NFS-style name resolution and block transfer."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host, self.port = host, port
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = LineStream(sock)
        self._lock = threading.Lock()
        self.root_fh = self._call("rootfh")[1]

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "NfsLikeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, *tokens, payload: bytes | None = None) -> list[str]:
        with self._lock:
            self._stream.write_line(*tokens)
            if payload:
                self._stream.write(payload)
            reply = self._stream.read_tokens()
            status = int(reply[0])
            if status < 0:
                raise error_from_status(status, reply[1] if len(reply) > 1 else "")
            return reply

    def _call_data(self, *tokens) -> bytes:
        with self._lock:
            self._stream.write_line(*tokens)
            reply = self._stream.read_tokens()
            status = int(reply[0])
            if status < 0:
                raise error_from_status(status, reply[1] if len(reply) > 1 else "")
            return self._stream.read_exact(status)

    # -- name resolution: one LOOKUP per component ------------------------

    def lookup(self, path: str) -> str:
        fh = self.root_fh
        for part in [p for p in normalize_virtual(path).split("/") if p]:
            fh = self._call("lookup", fh, part)[1]
        return fh

    def getattr(self, path: str) -> ChirpStat:
        reply = self._call("getattr", self.lookup(path))
        return ChirpStat.from_tokens(reply[1:])

    def readdir(self, path: str) -> list[str]:
        fh = self.lookup(path)
        with self._lock:
            self._stream.write_line("readdir", fh)
            reply = self._stream.read_tokens()
            status = int(reply[0])
            if status < 0:
                raise error_from_status(status, reply[1] if len(reply) > 1 else "")
            return [
                (self._stream.read_tokens() or [""])[0] for _ in range(status)
            ]

    # -- block-at-a-time data path ------------------------------------------

    def read_block(self, fh: str, offset: int, count: int = NFS_BLOCK_SIZE) -> bytes:
        return self._call_data("read", fh, offset, min(count, NFS_BLOCK_SIZE))

    def write_block(self, fh: str, offset: int, data: bytes) -> int:
        if len(data) > NFS_BLOCK_SIZE:
            raise InvalidRequestError("block exceeds NFS block size")
        reply = self._call("write", fh, offset, len(data), payload=data)
        return int(reply[0])

    def read_file(self, path: str) -> bytes:
        """Whole-file read: one getattr + ceil(size/4KB) read RPCs."""
        fh = self.lookup(path)
        size = ChirpStat.from_tokens(self._call("getattr", fh)[1:]).size
        chunks = []
        offset = 0
        while offset < size:
            data = self.read_block(fh, offset)
            if not data:
                break
            chunks.append(data)
            offset += len(data)
        return b"".join(chunks)

    def write_file(self, path: str, data: bytes) -> int:
        """Whole-file write: create + ceil(size/4KB) write RPCs."""
        parent, _, name = normalize_virtual(path).rpartition("/")
        fh = self._call("create", self.lookup(parent or "/"), name)[1]
        offset = 0
        view = memoryview(data)
        while offset < len(data):
            block = bytes(view[offset : offset + NFS_BLOCK_SIZE])
            offset += self.write_block(fh, offset, block)
        return offset

    def create(self, path: str) -> str:
        parent, _, name = normalize_virtual(path).rpartition("/")
        return self._call("create", self.lookup(parent or "/"), name)[1]

    def remove(self, path: str) -> None:
        parent, _, name = normalize_virtual(path).rpartition("/")
        self._call("remove", self.lookup(parent or "/"), name)

    def mkdir(self, path: str) -> str:
        parent, _, name = normalize_virtual(path).rpartition("/")
        return self._call("mkdir", self.lookup(parent or "/"), name)[1]

    def rmdir(self, path: str) -> None:
        parent, _, name = normalize_virtual(path).rpartition("/")
        self._call("rmdir", self.lookup(parent or "/"), name)

    def rename(self, old: str, new: str) -> None:
        op, _, oname = normalize_virtual(old).rpartition("/")
        np_, _, nname = normalize_virtual(new).rpartition("/")
        self._call("rename", self.lookup(op or "/"), oname, self.lookup(np_ or "/"), nname)
