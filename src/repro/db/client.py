"""Client for the metadata-database server.

Rides the same transport layer as the file-server client: a
:class:`~repro.transport.endpoint.Endpoint` owns the sockets,
reconnect bookkeeping and per-verb metrics (``db.insert``,
``db.query``, ...), and this class supplies the command vocabulary.
Database exchanges are stateless (no fds), so every call is one
:meth:`~repro.transport.endpoint.Endpoint.call`: a connection checked
out for exactly one round trip (redialed first when the server was
restarted under us), and concurrent callers overlap up to the
endpoint's connection cap.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.auth.methods import ClientCredentials
from repro.db.query import Query
from repro.transport.endpoint import Endpoint, EndpointSession
from repro.transport.metrics import MetricsRegistry

__all__ = ["DatabaseClient"]


class DatabaseClient(EndpointSession):
    """A session with one :class:`~repro.db.server.DatabaseServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        credentials: Optional[ClientCredentials] = None,
        timeout: float = 30.0,
        endpoint: Optional[Endpoint] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(host, port, credentials, timeout, endpoint, metrics=metrics)
        self.connect()

    def _call(self, cmd: dict) -> dict:
        # The result comes back as a length-prefixed payload, so a large
        # query reply is not bound by the wire's line limit.  A BUSY
        # refusal surfaces at once: the caller owns that retry.
        reply = self.endpoint.call(
            "dbcmd", json.dumps(cmd), metric=f"db.{cmd.get('op', 'cmd')}"
        )
        return json.loads(reply.body)

    # -- typed operations -------------------------------------------------

    def insert(self, record: dict) -> str:
        return self._call({"op": "insert", "record": record})["id"]

    def get(self, rid: str) -> Optional[dict]:
        return self._call({"op": "get", "id": rid})["record"]

    def update(self, rid: str, fields: dict) -> dict:
        return self._call({"op": "update", "id": rid, "fields": fields})["record"]

    def delete(self, rid: str) -> bool:
        return self._call({"op": "delete", "id": rid})["deleted"]

    def query(self, query: Query, limit: Optional[int] = None) -> list[dict]:
        cmd = {"op": "query", "query": query.to_json_obj()}
        if limit is not None:
            cmd["limit"] = limit
        return self._call(cmd)["records"]

    def count(self, query: Query) -> int:
        return self._call({"op": "count", "query": query.to_json_obj()})["count"]
