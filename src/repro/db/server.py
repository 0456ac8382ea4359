"""TCP front-end for the metadata database.

Runs on the shared :class:`~repro.util.server.ServerCore` (admission,
``BUSY``, drain, stop) and reuses the Chirp authentication handshake,
then serves one JSON command per line::

    C: dbcmd <json>
    S: <n>                               followed by n bytes of JSON result
    S: <negative status> <message>       on failure

The result travels as a length-prefixed payload, like ``getfile``, so a
reply is not bound by the wire's line limit.  Commands are JSON
objects: ``{"op": "insert", "record": {...}}`` etc.  Write access can be
restricted to a subject allow-list, matching the paper's GEMS
deployments where "one research group may establish a file server
allowing all of its members to read and write data, while allowing
external users only to read."
"""

from __future__ import annotations

import json
import logging
import socket
from dataclasses import dataclass, field

from repro.auth.methods import AuthContext, AuthFailed, authenticate_server
from repro.auth.subjects import subject_matches
from repro.chirp.protocol import DB_VERBS
from repro.db.engine import MetadataDB
from repro.db.query import Query
from repro.util.errors import DoesNotExistError, InvalidRequestError, NotAuthorizedError
from repro.util.server import ServerCore, Session
from repro.util.wire import LineStream, pack_line

__all__ = ["DatabaseServer", "DatabaseConfig"]

_WRITE_OPS = {"insert", "update", "delete"}


@dataclass
class DatabaseConfig:
    host: str = "127.0.0.1"
    port: int = 0
    auth: AuthContext = field(default_factory=AuthContext)
    #: subject patterns allowed to write; empty means "anyone authenticated".
    writers: tuple[str, ...] = ()
    #: subject patterns allowed to read; empty means "anyone authenticated".
    readers: tuple[str, ...] = ()


class DatabaseServer(ServerCore):
    """A running metadata-database server."""

    def __init__(self, db: MetadataDB, config: DatabaseConfig | None = None):
        self.db = db
        self.config = config or DatabaseConfig()
        super().__init__(self.config.host, self.config.port)

    def _allowed(self, subject: str, op: str) -> bool:
        patterns = self.config.writers if op in _WRITE_OPS else self.config.readers
        if not patterns:
            return True
        return any(subject_matches(p, subject) for p in patterns)

    def serve(self, sock: socket.socket, addr) -> None:
        stream = LineStream(sock)
        try:
            subject = authenticate_server(stream, self.config.auth, addr[0])
        except AuthFailed:
            return
        self.serve_requests(sock, Session(stream, subject))

    def handle(self, session: Session, tokens: list[str]) -> None:
        shape = DB_VERBS.get(tokens[0])
        if shape is None or len(tokens) != shape.nargs + 1:
            raise InvalidRequestError("expected dbcmd")
        try:
            cmd = json.loads(tokens[1])
            op = cmd["op"]
        except (ValueError, KeyError, TypeError):
            raise InvalidRequestError("malformed command") from None
        if not self._allowed(session.subject, op):
            raise NotAuthorizedError(f"{session.subject} may not {op}")
        try:
            result = self._apply(op, cmd)
        except KeyError as exc:
            raise DoesNotExistError(str(exc)) from None
        except TypeError as exc:
            raise InvalidRequestError(str(exc)) from None
        body = json.dumps(result).encode("utf-8")
        session.stream.write(pack_line(len(body)) + body)

    def _apply(self, op: str, cmd: dict):
        if op == "insert":
            return {"id": self.db.insert(cmd["record"])}
        if op == "get":
            return {"record": self.db.get(cmd["id"])}
        if op == "update":
            return {"record": self.db.update(cmd["id"], cmd["fields"])}
        if op == "delete":
            return {"deleted": self.db.delete(cmd["id"])}
        if op == "query":
            q = Query.from_json_obj(cmd.get("query", []))
            return {"records": self.db.query(q, cmd.get("limit"))}
        if op == "count":
            q = Query.from_json_obj(cmd.get("query", []))
            return {"count": self.db.count(q)}
        raise ValueError(f"unknown op {op!r}")


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.db.server``: run a standalone database server.

    Used by the process-chaos harness (and anyone wanting the metadata
    database as its own daemon): the log under ``--path`` makes state
    survive SIGKILL, so a restarted process resumes where the dead one
    stopped.
    """
    import argparse

    from repro.util.signals import GracefulSignals

    parser = argparse.ArgumentParser(
        prog="tss-db", description="Run a TSS metadata database server."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--path", default=None,
        help="directory for the durable log (default: in-memory only)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    db = MetadataDB(args.path)
    server = DatabaseServer(db, DatabaseConfig(host=args.host, port=args.port))
    server.start()
    print(f"tss-db: listening on {server.address[0]}:{server.address[1]}", flush=True)
    GracefulSignals().install().wait()
    # Finish admitted commands (refusing new ones with BUSY), then close.
    server.drain()
    db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
