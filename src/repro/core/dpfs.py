"""DPFS: the distributed private filesystem.

"Using a distributed-private file system (DPFS), a user can employ the
aggregate storage of multiple file servers in one image.  In a DPFS, the
file servers are used only to store file data.  The directory structure
is stored in a local Unix filesystem chosen by the user."

A DPFS is private because its metadata lives on the user's own disk;
nothing else distinguishes it from a DSFS.  Create one with
:meth:`DPFS.create`, reopen it later with :meth:`DPFS.open_volume`.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.core.placement import PlacementPolicy
from repro.core.pool import ClientPool
from repro.core.storefs import StoreFilesystem
from repro.store.localdir import LocalDirStore
from repro.transport.recovery import RetryPolicy
from repro.core.stubfs import StubFilesystem, read_config, write_config

__all__ = ["DPFS"]


def _private_tree(meta_root: str) -> StoreFilesystem:
    """The local directory tree, with the file server's confinement,
    error mapping and directory fsyncs: just another storage resource.
    Its exclusive creates are durable (see ``StoreFilesystem.put``)."""
    os.makedirs(meta_root, exist_ok=True)
    return StoreFilesystem(LocalDirStore(meta_root, sync_meta=True))


class DPFS(StubFilesystem):
    """A stub filesystem whose directory tree is a private local directory."""

    def __init__(
        self,
        meta_root: str,
        pool: ClientPool,
        servers: Sequence[tuple[str, int]],
        data_dir: str,
        **kwargs,
    ):
        self.meta_root = os.path.realpath(meta_root)
        super().__init__(_private_tree(meta_root), pool, servers, data_dir, **kwargs)

    @classmethod
    def create(
        cls,
        meta_root: str,
        pool: ClientPool,
        servers: Sequence[tuple[str, int]],
        name: str = "dpfs",
        placement: Optional[PlacementPolicy] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> "DPFS":
        """Create a new DPFS volume.

        "To create a new filesystem, one must specify a list of hosts,
        create a new directory root, and create new storage directories
        on each server."
        """
        servers = [(h, int(p)) for h, p in servers]
        data_dir = f"/tssdata/{name}"
        fs = cls(
            meta_root,
            pool,
            servers,
            data_dir,
            placement=placement,
            policy=policy,
        )
        write_config(fs.meta, {"name": name, "servers": servers, "data_dir": data_dir})
        fs.make_data_dirs(servers)
        return fs

    @classmethod
    def open_volume(
        cls,
        meta_root: str,
        pool: ClientPool,
        placement: Optional[PlacementPolicy] = None,
        policy: Optional[RetryPolicy] = None,
        sync_writes: bool = False,
    ) -> "DPFS":
        """Open an existing DPFS volume from its local metadata root."""
        doc = read_config(_private_tree(meta_root))
        return cls(
            meta_root,
            pool,
            [(h, int(p)) for h, p in doc["servers"]],
            doc["data_dir"],
            placement=placement,
            policy=policy,
            sync_writes=sync_writes,
        )
