"""The catalog server: collect UDP reports, publish listings over TCP.

A deployment may run several catalogs, each collecting reports from a
different (possibly overlapping) subset of file servers -- for redundancy,
load sharing, or policy (e.g. a private rendezvous catalog for transient
servers glided into a batch system).  Nothing here coordinates catalogs;
overlap is handled by clients de-duplicating on the server endpoint.

Query protocol (TCP, on the shared :class:`~repro.util.server.ServerCore`):
the client sends one line, ``query <format>`` where format is ``json`` or
``text``; the catalog replies with the document and closes the connection.
"""

from __future__ import annotations

import errno
import json
import logging
import socket
import threading
import time
from typing import Callable, Optional

from repro.catalog.report import ServerReport
from repro.util.server import ServerCore
from repro.util.wire import LineStream

__all__ = ["CatalogServer"]

log = logging.getLogger("repro.catalog.server")

DEFAULT_LIFETIME = 900.0  # seconds before an unrefreshed entry is dropped
_BIND_ATTEMPTS = 8  # UDP+TCP port pairs tried when the port is ephemeral


class CatalogServer(ServerCore):
    """A running catalog; context-manager friendly.

    :param lifetime: seconds after which a server that has not re-reported
        is removed from listings.
    :param now: clock injection for deterministic tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lifetime: float = DEFAULT_LIFETIME,
        now: Callable[[], float] = time.time,
    ):
        super().__init__(host, port)
        self.host = host
        self.port = port
        self.lifetime = lifetime
        self.now = now
        self._entries: dict[tuple[str, int], ServerReport] = {}
        self._lock = threading.Lock()
        self._udp: Optional[socket.socket] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "CatalogServer":
        # The TCP side takes the port the UDP bind got.  With port 0 that
        # number may already be taken on TCP; then a fresh pair is tried.
        # A fixed port fails as it is.
        for attempt in range(_BIND_ATTEMPTS):
            udp = self._bind_udp()
            self.address = udp.getsockname()[:2]
            try:
                super().start()
            except OSError as exc:
                udp.close()
                self.address = (self.host, self.port)
                if (
                    self.port != 0
                    or exc.errno != errno.EADDRINUSE
                    or attempt + 1 == _BIND_ATTEMPTS
                ):
                    raise
                continue
            break
        self._udp = udp
        self.spawn(self._udp_loop, "udp")
        return self

    def _bind_udp(self) -> socket.socket:
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            udp.bind((self.host, self.port))
        except OSError:
            udp.close()
            raise
        # Short poll timeouts make stop() prompt: a blocked recvfrom() is
        # not reliably woken by closing the socket from another thread.
        udp.settimeout(0.2)
        return udp

    def stop(self) -> None:
        super().stop()
        if self._udp is not None:
            self._udp.close()
            self._udp = None

    # -- report intake ----------------------------------------------------

    def _udp_loop(self) -> None:
        assert self._udp is not None
        while not self._stop.is_set():
            try:
                data, _addr = self._udp.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            self.accept_report(data)

    def accept_report(self, raw: bytes) -> bool:
        """Ingest one report datagram (also callable directly in tests)."""
        try:
            report = ServerReport.from_json(raw)
        except (ValueError, json.JSONDecodeError) as exc:
            log.debug("dropping malformed report: %s", exc)
            return False
        report.received_at = self.now()
        with self._lock:
            self._entries[report.key] = report
        return True

    # -- listings -----------------------------------------------------------

    def entries(self) -> list[ServerReport]:
        """Live entries, freshest first; expired entries are purged."""
        cutoff = self.now() - self.lifetime
        with self._lock:
            dead = [k for k, r in self._entries.items() if r.received_at < cutoff]
            for k in dead:
                del self._entries[k]
            live = sorted(
                self._entries.values(), key=lambda r: r.received_at, reverse=True
            )
        return live

    def render(self, fmt: str) -> str:
        reports = self.entries()
        if fmt == "json":
            return json.dumps([r.to_dict() for r in reports], sort_keys=True) + "\n"
        if fmt == "text":
            return "\n".join(r.to_text_block() for r in reports)
        raise ValueError(f"unknown catalog format {fmt!r}")

    # -- query service --------------------------------------------------------

    def serve(self, sock: socket.socket, addr) -> None:
        sock.settimeout(10.0)
        stream = LineStream(sock)
        tokens = stream.read_tokens()
        fmt = tokens[1] if len(tokens) > 1 and tokens[0] == "query" else "json"
        try:
            body = self.render(fmt)
        except ValueError as exc:
            body = json.dumps({"error": str(exc)}) + "\n"
        stream.write(body.encode("utf-8"))
