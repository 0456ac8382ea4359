"""The abstraction layer: filesystems and databases built from file servers.

Each abstraction recursively exposes the same Unix-like interface the file
servers export (:class:`repro.core.interface.Filesystem`), so abstractions
compose with the adapter and with each other:

- :class:`repro.core.cfs.CFS` -- central filesystem: direct, untranslated
  access to a single file server (the paper's NFS analog, minus caching).
- :class:`repro.core.dpfs.DPFS` -- distributed private filesystem: local
  directory tree of stub files pointing at data on many servers.
- :class:`repro.core.dsfs.DSFS` -- distributed shared filesystem: the
  directory tree itself lives on a file server, so multiple clients share
  multiple devices.
- :class:`repro.core.dsdb.DSDB` -- distributed shared database: metadata
  and pointers in a database server, file data on file servers, accessed
  directly after a query.

All four are *failure coherent*: losing a data server makes only the files
on it unavailable; the namespace (or database) stays navigable.
"""

from repro.core.interface import Filesystem, FileHandle, StatResult, to_stat_result
from repro.transport.recovery import RetryPolicy
from repro.core.pool import ClientPool
from repro.core.storefs import StoreFilesystem
from repro.core.cfs import CFS
from repro.core.dpfs import DPFS
from repro.core.dsfs import DSFS
from repro.core.dsdb import DSDB
from repro.core.placement import (
    PlacementPolicy,
    RoundRobinPlacement,
    RandomPlacement,
    MostFreePlacement,
)
from repro.core.stubs import Stub, unique_data_name
from repro.core.replfs import ReplicatedFS, MultiStub
from repro.core.fsck import FsckReport, fsck_volume
from repro.core.stripefs import StripedFS, StripeStub
from repro.core.versionfs import VersionedFS, Version, VersionStub

__all__ = [
    "Filesystem",
    "FileHandle",
    "StatResult",
    "to_stat_result",
    "RetryPolicy",
    "ClientPool",
    "StoreFilesystem",
    "CFS",
    "DPFS",
    "DSFS",
    "DSDB",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "RandomPlacement",
    "MostFreePlacement",
    "Stub",
    "unique_data_name",
    "ReplicatedFS",
    "MultiStub",
    "FsckReport",
    "fsck_volume",
    "StripedFS",
    "StripeStub",
    "VersionedFS",
    "Version",
    "VersionStub",
]
