"""Metadata stores: where a distributed filesystem keeps its directory tree.

The only difference between the paper's DPFS and DSFS is *where the
directory structure lives*: "The distributed shared filesystem (DSFS) is
created by moving the directory tree onto a file server."  This module
captures that seam as a small interface with two implementations:

- :class:`LocalMetadataStore` -- a private local directory (DPFS),
- :class:`ChirpMetadataStore` -- a directory on a file server (DSFS),

so the stub-management logic in :mod:`repro.core.stubfs` is written once.
Thanks to recursive abstractions both implementations need only Unix-like
calls -- including the *exclusive open* that makes the crash-safe file
creation protocol work on either store.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from typing import Optional

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.store.localdir import stat_read_path
from repro.transport.recovery import RetryPolicy
from repro.util.errors import (
    AlreadyExistsError,
    ChirpError,
    InvalidRequestError,
    error_from_status,
    status_from_exception,
)
from repro.util.paths import PathEscapeError, confine, normalize_virtual

__all__ = ["MetadataStore", "LocalMetadataStore", "ChirpMetadataStore", "VOLUME_FILE"]

VOLUME_FILE = ".tssvolume"

_WCX = OpenFlags(write=True, create=True, exclusive=True)


class MetadataStore(ABC):
    """Unix-like operations a stub filesystem needs from its directory tree."""

    @abstractmethod
    def stat(self, path: str) -> ChirpStat: ...

    @abstractmethod
    def listdir(self, path: str) -> list[str]: ...

    @abstractmethod
    def read(self, path: str) -> bytes:
        """Read a whole (small) metadata file, e.g. a stub."""

    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """An entry's stat and, for a regular file of at most ``limit``
        bytes, its content (None otherwise): what a stub lookup needs.

        Stores that can answer in one step override this stat-then-read
        default.
        """
        st = self.stat(path)
        if not st.is_file or st.size > limit:
            return st, None
        return st, self.read(path)

    @abstractmethod
    def create_exclusive(self, path: str, content: bytes) -> bool:
        """Create a metadata file with ``O_EXCL``; False if it exists.

        The exclusivity of the *create* is the atomic primitive; where
        the content cannot travel with the create it is written
        immediately after, so readers must tolerate a briefly empty file
        (see ``StubFilesystem._lookup``).
        """

    @abstractmethod
    def unlink(self, path: str) -> None: ...

    @abstractmethod
    def rename(self, old: str, new: str) -> None: ...

    @abstractmethod
    def mkdir(self, path: str, mode: int = 0o755) -> None: ...

    @abstractmethod
    def rmdir(self, path: str) -> None: ...

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


class LocalMetadataStore(MetadataStore):
    """Directory tree in a private local filesystem (the DPFS case)."""

    def __init__(self, root: str, sync_meta: bool = True):
        self.root = os.path.realpath(root)
        self.sync_meta = sync_meta
        os.makedirs(self.root, exist_ok=True)

    def _fsync_dir(self, real_path: str) -> None:
        # The stub-creation protocol's crash-safety rests on the O_EXCL
        # create being durable; that requires syncing the parent
        # directory's entry table, not just the new file's data.
        if not self.sync_meta:
            return
        try:
            fd = os.open(real_path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _real(self, path: str) -> str:
        try:
            return confine(self.root, path)
        except PathEscapeError as exc:
            raise error_from_status(-8, str(exc)) from exc

    def _wrap(self, exc: OSError, path: str) -> ChirpError:
        return error_from_status(status_from_exception(exc), f"{path}: {exc}")

    def stat(self, path: str) -> ChirpStat:
        try:
            return ChirpStat.from_os(os.stat(self._real(path)))
        except OSError as exc:
            raise self._wrap(exc, path) from exc

    def listdir(self, path: str) -> list[str]:
        try:
            return sorted(os.listdir(self._real(path)))
        except OSError as exc:
            raise self._wrap(exc, path) from exc

    def read(self, path: str) -> bytes:
        try:
            with open(self._real(path), "rb") as f:
                return f.read()
        except OSError as exc:
            raise self._wrap(exc, path) from exc

    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        try:
            st, data = stat_read_path(self._real(path), limit)
        except OSError as exc:
            raise self._wrap(exc, path) from exc
        return ChirpStat.from_os(st), data

    def create_exclusive(self, path: str, content: bytes) -> bool:
        try:
            fd = os.open(self._real(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except OSError as exc:
            raise self._wrap(exc, path) from exc
        try:
            os.write(fd, content)
            if self.sync_meta:
                os.fsync(fd)
        finally:
            os.close(fd)
        self._fsync_dir(os.path.dirname(self._real(path)))
        return True

    def unlink(self, path: str) -> None:
        try:
            os.unlink(self._real(path))
        except OSError as exc:
            raise self._wrap(exc, path) from exc

    def rename(self, old: str, new: str) -> None:
        try:
            os.rename(self._real(old), self._real(new))
        except OSError as exc:
            raise self._wrap(exc, old) from exc

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        try:
            os.mkdir(self._real(path), mode)
        except OSError as exc:
            raise self._wrap(exc, path) from exc

    def rmdir(self, path: str) -> None:
        try:
            os.rmdir(self._real(path))
        except OSError as exc:
            raise self._wrap(exc, path) from exc


class ChirpMetadataStore(MetadataStore):
    """Directory tree on a file server (the DSFS case).

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
        self.client = client
        self.root = normalize_virtual(root)
        self.policy = policy or RetryPolicy()

    def _path(self, path: str) -> str:
        inner = normalize_virtual(path)
        if self.root == "/":
            return inner
        return self.root if inner == "/" else self.root + inner

    def _run(self, op):
        return self.policy.run(op, self.client.ensure_connected)

    def stat(self, path: str) -> ChirpStat:
        return self._run(lambda: self.client.stat(self._path(path)))

    def listdir(self, path: str) -> list[str]:
        return self._run(lambda: self.client.getdir(self._path(path)))

    def read(self, path: str) -> bytes:
        return self._run(lambda: self.client.getfile(self._path(path)))

    def stat_read(self, path: str, limit: int) -> tuple[ChirpStat, Optional[bytes]]:
        """One ``statget``; a server that predates it gets stat + getfile."""
        if self.client.endpoint.v4 is not False:
            real = self._path(path)
            try:
                return self._run(lambda: self.client.statget(real, limit))
            except InvalidRequestError:
                if self.client.endpoint.v4 is not False:
                    raise
        return super().stat_read(path, limit)

    def create_exclusive(self, path: str, content: bytes) -> bool:
        """One ``putflags wcx`` (the create carries the content), else
        exclusive open + pwrite + close on a server that predates it."""
        real = self._path(path)
        if self._run(self.client.speaks_v4):
            try:
                self._run(lambda: self.client.putflags(real, content, _WCX))
            except AlreadyExistsError:
                return False
            return True

        def attempt() -> bool:
            try:
                fd = self.client.open(real, _WCX, 0o644)
            except AlreadyExistsError:
                return False
            try:
                self.client.pwrite(fd, content, 0)
            finally:
                self.client.close_fd(fd)
            return True

        return self._run(attempt)

    def unlink(self, path: str) -> None:
        self._run(lambda: self.client.unlink(self._path(path)))

    def rename(self, old: str, new: str) -> None:
        self._run(lambda: self.client.rename(self._path(old), self._path(new)))

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._run(lambda: self.client.mkdir(self._path(path), mode))

    def rmdir(self, path: str) -> None:
        self._run(lambda: self.client.rmdir(self._path(path)))
