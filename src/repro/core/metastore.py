"""Metadata stores: where a distributed filesystem keeps its directory tree.

The only difference between the paper's DPFS and DSFS is *where the
directory structure lives*: "The distributed shared filesystem (DSFS) is
created by moving the directory tree onto a file server."  This module
captures that seam as a small interface with two implementations:

- :class:`LocalMetadataStore` -- a private local directory (DPFS),
- :class:`ChirpMetadataStore` -- a directory on a file server (DSFS),

so the stub engine in :mod:`repro.core.stubfs`, and every layout over it
(single, replicated, striped, versioned), is written once.  Thanks to
recursive abstractions each store *is* a filesystem -- a
:class:`~repro.core.storefs.StoreFilesystem` over a
:class:`~repro.store.localdir.LocalDirStore`, or a
:class:`~repro.core.cfs.CFS` over the file server's own store -- plus the
*exclusive create* that makes the crash-safe file creation protocol work
on either.
"""

from __future__ import annotations

import json
import os
from abc import abstractmethod
from typing import Optional

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.store.interface import write_all
from repro.store.localdir import LocalDirStore
from repro.transport.recovery import RetryPolicy
from repro.core.cfs import CFS
from repro.core.interface import Filesystem
from repro.core.storefs import StoreFilesystem
from repro.util.errors import AlreadyExistsError
from repro.util.jsonlog import fsync_dir

__all__ = ["MetadataStore", "LocalMetadataStore", "ChirpMetadataStore", "VOLUME_FILE"]

VOLUME_FILE = ".tssvolume"

_WCX = OpenFlags(write=True, create=True, exclusive=True)


class MetadataStore(Filesystem):
    """A filesystem holding a stub filesystem's directory tree.

    The namespace operations are the :class:`Filesystem` interface's
    own; a stub lookup adds :meth:`stat_read`, and the crash-safe create
    adds :meth:`create_exclusive`.
    """

    def read(self, path: str) -> bytes:
        """Read a whole (small) metadata file, e.g. a stub."""
        return self.read_file(path)

    @abstractmethod
    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """An entry's stat and, for a regular file of at most ``limit``
        bytes, its content (None otherwise): what a stub lookup needs,
        in one step.
        """

    @abstractmethod
    def create_exclusive(self, path: str, content: bytes) -> bool:
        """Create a metadata file with ``O_EXCL``; False if it exists.

        The exclusivity of the *create* is the atomic primitive; where
        the content cannot travel with the create it is written
        immediately after, so readers must tolerate a briefly empty file
        (see ``StubFilesystem._lookup``).
        """

    # -- volume configuration -------------------------------------------

    def read_config(self) -> dict:
        raw = self.read("/" + VOLUME_FILE)
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict) or doc.get("tss") != "volume":
            raise ValueError("not a TSS volume")
        return doc

    def write_config(self, doc: dict) -> None:
        doc = dict(doc)
        doc["tss"] = "volume"
        content = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        if not self.create_exclusive("/" + VOLUME_FILE, content):
            raise AlreadyExistsError("volume already initialized here")


class LocalMetadataStore(StoreFilesystem, MetadataStore):
    """Directory tree in a private local filesystem (the DPFS case).

    The namespace operations, stub reads included, are a
    :class:`LocalDirStore`'s own -- the private tree is just another
    storage resource, recursion all the way down, with the file server's
    confinement, error mapping and (under ``sync_meta``) directory
    fsyncs; this class adds the durable exclusive create.
    """

    def __init__(self, root: str, sync_meta: bool = True):
        os.makedirs(root, exist_ok=True)
        super().__init__(LocalDirStore(root, sync_meta=sync_meta))

    def create_exclusive(self, path: str, content: bytes) -> bool:
        try:
            handle = self.store.open(path, _WCX, 0o644)
        except AlreadyExistsError:
            return False
        with handle:
            write_all(handle, content)
            if self.store.sync_meta:
                handle.fsync()
        # The stub-creation protocol's crash-safety rests on the O_EXCL
        # create being durable; that requires syncing the parent
        # directory's entry table, not just the new file's data.
        if self.store.sync_meta:
            fsync_dir(os.path.dirname(self.store.resolve(path).real))
        return True


class ChirpMetadataStore(CFS, MetadataStore):
    """Directory tree on a file server (the DSFS case): a :class:`CFS`
    over the volume's root directory.

    One server "might be dedicated for use as a DSFS directory, or it
    might serve double duty as both directory and file server" -- nothing
    here cares which.
    """

    def __init__(
        self,
        client: ChirpClient,
        root: str = "/",
        policy: Optional[RetryPolicy] = None,
    ):
        super().__init__(client, root, policy)

    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """One ``statget``."""
        real = self._path(path)
        return self._run(lambda: self.client.statget(real, limit))

    def create_exclusive(self, path: str, content: bytes) -> bool:
        """One ``putflags wcx``: the create carries the content."""
        real = self._path(path)
        try:
            self._run(lambda: self.client.putflags(real, content, _WCX))
        except AlreadyExistsError:
            return False
        return True
