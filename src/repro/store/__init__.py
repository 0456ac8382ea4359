"""Pluggable storage resources behind the Chirp server.

See :mod:`repro.store.interface` for the contract.  ``make_store`` is
the one factory everything configures through (``ServerConfig.store``,
``tss-server --store``, tests).
"""

from __future__ import annotations

from repro.store.cas import CasStore
from repro.store.faulty import DiskFaultPlan, DiskFaultScript, FaultyStore
from repro.store.interface import (
    BlobStore,
    FileHandle,
    HandleReader,
    HandleWriter,
    read_all,
    write_all,
)
from repro.store.localdir import LocalDirStore
from repro.store.memory import MemoryStore

__all__ = [
    "BlobStore",
    "CasStore",
    "DiskFaultPlan",
    "DiskFaultScript",
    "FaultyStore",
    "FileHandle",
    "HandleReader",
    "HandleWriter",
    "LocalDirStore",
    "MemoryStore",
    "STORE_KINDS",
    "make_store",
    "read_all",
    "write_all",
]

STORE_KINDS = ("local", "memory", "cas")


def make_store(kind: str, root: str, *, sync_meta: bool = True) -> BlobStore:
    """Build a store of the given kind rooted at ``root``.

    ``memory`` ignores the root (kept as a label only), so simulations
    can name stores without touching the disk.  A ``faulty+<kind>``
    prefix wraps the store in a :class:`FaultyStore` with an empty
    (pass-through) fault plan; chaos harnesses reach the plan through
    ``server.store.plan``.
    """
    if kind.startswith("faulty+"):
        return FaultyStore(make_store(kind[len("faulty+"):], root, sync_meta=sync_meta))
    if kind == "local":
        return LocalDirStore(root, sync_meta=sync_meta)
    if kind == "memory":
        return MemoryStore(root, sync_meta=sync_meta)
    if kind == "cas":
        return CasStore(root, sync_meta=sync_meta)
    raise ValueError(f"unknown store kind {kind!r} (expected one of {STORE_KINDS})")
