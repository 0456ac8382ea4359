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

from repro.core.metastore import LocalMetadataStore
from repro.core.placement import PlacementPolicy
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.core.stubfs import StubFilesystem, _ensure_remote_dirs

__all__ = ["DPFS"]


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
        super().__init__(LocalMetadataStore(meta_root), pool, servers, data_dir, **kwargs)

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
        meta = LocalMetadataStore(meta_root)
        meta.write_config({"name": name, "servers": servers, "data_dir": data_dir})
        _ensure_remote_dirs(pool, servers, data_dir)
        fs = cls(
            meta_root,
            pool,
            servers,
            data_dir,
            placement=placement,
            policy=policy,
        )
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
        meta = LocalMetadataStore(meta_root)
        doc = meta.read_config()
        return cls(
            meta_root,
            pool,
            [(h, int(p)) for h, p in doc["servers"]],
            doc["data_dir"],
            placement=placement,
            policy=policy,
            sync_writes=sync_writes,
        )
