"""DSFS: the distributed shared filesystem.

"The distributed shared filesystem (DSFS) is created by moving the
directory tree onto a file server.  Now, multiple clients may access the
directory tree and follow pointers to file data on multiple servers."

A DSFS volume is addressed as ``host:port`` plus a directory path on that
server (the adapter spells it ``/dsfs/host:port@/volpath/...``).  The
directory server may be dedicated or double as a data server.  Because the
TSS never caches, there is no coherence machinery: clients sharing a DSFS
see each other's updates at the directory server immediately.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.placement import PlacementPolicy
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.core.stubfs import StubFilesystem, chirp_member, read_config, write_config
from repro.util.paths import normalize_virtual

__all__ = ["DSFS"]


class DSFS(StubFilesystem):
    """A stub filesystem whose directory tree lives on a file server: a
    :class:`~repro.core.cfs.CFS` over the volume root there."""

    def __init__(
        self,
        pool: ClientPool,
        dir_host: str,
        dir_port: int,
        dir_root: str,
        servers: Sequence[tuple[str, int]],
        data_dir: str,
        policy: Optional[RetryPolicy] = None,
        **kwargs,
    ):
        self.dir_endpoint = (dir_host, int(dir_port))
        self.dir_root = normalize_virtual(dir_root)
        policy = policy or RetryPolicy()
        meta = chirp_member(pool, self.dir_endpoint, policy, self.dir_root)
        super().__init__(meta, pool, servers, data_dir, policy=policy, **kwargs)

    @classmethod
    def create(
        cls,
        pool: ClientPool,
        dir_host: str,
        dir_port: int,
        dir_root: str,
        servers: Sequence[tuple[str, int]],
        name: str = "dsfs",
        placement: Optional[PlacementPolicy] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> "DSFS":
        """Create a new shared volume rooted at ``dir_root`` on the
        directory server, storing data across ``servers``."""
        servers = [(h, int(p)) for h, p in servers]
        data_dir = f"/tssdata/{name}"
        chirp_member(pool, (dir_host, int(dir_port)), policy).makedirs(dir_root)
        fs = cls(
            pool,
            dir_host,
            dir_port,
            dir_root,
            servers,
            data_dir,
            placement=placement,
            policy=policy,
        )
        fs.make_data_dirs(servers)
        write_config(fs.meta, {"name": name, "servers": servers, "data_dir": data_dir})
        return fs

    @classmethod
    def open_volume(
        cls,
        pool: ClientPool,
        dir_host: str,
        dir_port: int,
        dir_root: str,
        placement: Optional[PlacementPolicy] = None,
        policy: Optional[RetryPolicy] = None,
        sync_writes: bool = False,
    ) -> "DSFS":
        """Open an existing shared volume by directory-server address."""
        tree = chirp_member(pool, (dir_host, int(dir_port)), policy, normalize_virtual(dir_root))
        doc = read_config(tree)
        return cls(
            pool,
            dir_host,
            dir_port,
            dir_root,
            [(h, int(p)) for h, p in doc["servers"]],
            doc["data_dir"],
            placement=placement,
            policy=policy,
            sync_writes=sync_writes,
        )
