"""Socket-free volumes: the stub engine over in-memory filesystems.

The directory tree and every member are a
``StoreFilesystem(MemoryStore())``, so a whole volume runs in the test's
own thread with no server, no session and no socket.
"""

from __future__ import annotations

from repro.core.storefs import StoreFilesystem
from repro.core.stubfs import StubFilesystem, write_config
from repro.store import MemoryStore
from repro.transport.fanout import FanoutPool


def memory_volume(
    n_members: int = 3,
    cls=StubFilesystem,
    name: str = "vol",
    tree=None,
    members=None,
    **kwargs,
):
    """A new volume of layout ``cls`` over ``n_members`` in-memory data
    servers, named ``mem<i>:1`` (or over ``members``, a dict from
    endpoint to member filesystem), with its tree in ``tree`` or in
    memory.  Member calls run one after another in the caller's thread.
    """
    if members is None:
        members = {(f"mem{i}", 1): StoreFilesystem(MemoryStore()) for i in range(n_members)}
    tree = tree if tree is not None else StoreFilesystem(MemoryStore())
    endpoints = list(members)
    fs = cls(tree, None, endpoints, f"/tssdata/{name}", members=members.__getitem__, **kwargs)
    fs.fanout = FanoutPool(1)
    fs.make_data_dirs(endpoints)
    write_config(tree, {"name": name, "servers": endpoints, "data_dir": fs.data_dir})
    return fs
