"""Stub files: the pointers that stitch distributed filesystems together.

"Where the directory structure indicates a file, it instead contains a
stub file pointing to the file data elsewhere."  A stub is a one-line
JSON document naming the data server and the data file's name there.
Stubs are deliberately tiny and self-describing, so a directory server
(or a user with ``cat``) can always tell where data lives -- part of the
failure-coherence story: even if the directory service is lost, data
files remain in distinguishable per-volume directories on each server.
"""

from __future__ import annotations

import functools
import json
import secrets
import socket
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.util.errors import InvalidRequestError

__all__ = [
    "Stub",
    "unique_data_name",
    "STUB_MAX_BYTES",
    "encode_doc",
    "decode_doc",
    "parse_locations",
]

_T = TypeVar("_T")

# A stub lookup carries at most this many bytes in one round trip; a
# bigger stub (a long version history) costs one more read.
STUB_MAX_BYTES = 4096


def encode_doc(kind: str, **fields) -> bytes:
    """A stub document of ``kind``: one line of sorted-key JSON."""
    doc = {"tss": kind, "v": 1, **fields}
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def decode_doc(raw: bytes, kind: str, noun: str, parse: Callable[[dict], _T]) -> _T:
    """``parse`` a stub document of ``kind``; every defect is an
    :class:`InvalidRequestError` naming the ``noun``."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise InvalidRequestError(f"not a {noun}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("tss") != kind:
        raise InvalidRequestError(f"not a {noun}")
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequestError(f"malformed {noun}: {exc}") from exc


def parse_locations(doc: dict) -> tuple[tuple[str, int, str], ...]:
    """The non-empty ``(host, port, data path)`` list of a multi-file stub."""
    locations = tuple((str(h), int(p), str(path)) for h, p, path in doc["locations"])
    if not locations:
        raise ValueError("no locations")
    return locations


@dataclass(frozen=True)
class Stub:
    """A pointer to file data on a file server."""

    host: str
    port: int
    path: str  # data file path on that server

    def encode(self) -> bytes:
        return encode_doc("stub", host=self.host, port=self.port, path=self.path)

    @classmethod
    def decode(cls, raw: bytes) -> "Stub":
        def parse(doc: dict) -> "Stub":
            return cls(host=str(doc["host"]), port=int(doc["port"]), path=str(doc["path"]))

        return decode_doc(raw, "stub", "stub file", parse)

    @classmethod
    def is_stub(cls, raw: bytes) -> bool:
        try:
            cls.decode(raw)
            return True
        except InvalidRequestError:
            return False

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)


@functools.lru_cache(maxsize=1)
def _ip_tag() -> str:
    """This host's IP address, dashed, resolved once per process: the
    resolver call is most of what naming a data file would otherwise
    cost."""
    try:
        ip = socket.gethostbyname(socket.gethostname())
    except OSError:
        ip = "0.0.0.0"
    return ip.replace(".", "-")


def unique_data_name() -> str:
    """Generate a collision-resistant data file name.

    Per the paper's creation protocol, the name is derived from "the
    client's IP address, current time, and a random number"; uniqueness is
    then *enforced* by exclusive create on the data server, so this only
    needs to make collisions rare, not impossible.
    """
    return f"file-{_ip_tag()}-{time.time_ns():x}-{secrets.token_hex(4)}"
