"""The adapter's POSIX surface: open/stat/listdir/... over abstractions.

The adapter resolves every path in three steps:

1. the *mountlist* rewrites private logical names,
2. explicit mounts (``adapter.mount('/data', some_fs)``) match by longest
   prefix -- any :class:`~repro.core.interface.Filesystem` can be mounted,
   including a local directory (a
   :class:`~repro.core.storefs.StoreFilesystem` over a
   :class:`~repro.store.localdir.LocalDirStore`) or a DPFS,
3. the built-in namespaces ``/cfs/<host:port>/...`` and
   ``/dsfs/<host:port>@<volume>/...`` construct abstractions on demand
   from the adapter's connection pool.

Errors cross this surface as ``OSError`` with correct ``errno`` values,
because applications written against the Unix interface expect exactly
that.  Disconnection recovery (exponential backoff, re-open, inode check,
``ESTALE``) happens below, in the abstraction handles, governed by the
:class:`~repro.transport.recovery.RetryPolicy` given to this adapter.
"""

from __future__ import annotations

import errno
import io
import threading
from typing import Optional, Union

from repro.auth.methods import ClientCredentials
from repro.adapter.fileobj import AdapterFile
from repro.adapter.mountlist import Mountlist
from repro.cache.fs import CachedFilesystem
from repro.cache.manager import CacheManager
from repro.cache.policy import CachePolicy
from repro.chirp.protocol import OpenFlags, StatFs
from repro.core.cfs import CFS
from repro.core.dsfs import DSFS
from repro.core.interface import Filesystem, StatResult, to_stat_result
from repro.core.pool import ClientPool
from repro.transport.metrics import MetricsRegistry
from repro.transport.recovery import RetryPolicy
from repro.util.errors import ChirpError, oserror_from_status
from repro.util.paths import normalize_virtual

__all__ = ["Adapter"]


def _oserror(exc: ChirpError, path: str) -> OSError:
    return oserror_from_status(int(exc.status), str(exc), path)


def _parse_endpoint(component: str) -> tuple[str, int]:
    host, sep, port = component.rpartition(":")
    if not sep:
        raise OSError(errno.ENOENT, f"expected host:port, got {component!r}")
    try:
        return host, int(port)
    except ValueError:
        raise OSError(errno.ENOENT, f"bad port in {component!r}") from None


class Adapter:
    """One application's window onto the TSS.

    :param pool: shared connection pool (created from ``credentials`` if
        omitted).
    :param policy: reconnection policy for every handle opened here.
    :param sync_writes: the paper's synchronous-write switch --
        transparently appends ``O_SYNC`` to all opens.
    :param mountlist: private namespace (may also be grown via
        :meth:`add_mount_rule`).
    :param max_conns_per_endpoint: connection cap handed to the pool this
        adapter creates (ignored when ``pool`` is supplied).
    :param metrics: registry observing this adapter's transport traffic
        (ignored when ``pool`` is supplied).
    :param cache_policy: opt-in client-side caching for the abstractions
        this adapter builds under ``/cfs`` and ``/dsfs``: each is wrapped
        in a :class:`~repro.cache.fs.CachedFilesystem` (see
        :mod:`repro.cache.policy` for the coherence contract of each
        mode).  Default: no caching -- the paper's semantics.
        Filesystems attached with :meth:`mount` are used as given.  The
        manager appears as the ``cache`` section of the pool's metrics
        snapshot.
    """

    def __init__(
        self,
        pool: Optional[ClientPool] = None,
        credentials: Optional[ClientCredentials] = None,
        policy: Optional[RetryPolicy] = None,
        sync_writes: bool = False,
        mountlist: Optional[Mountlist] = None,
        max_conns_per_endpoint: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache_policy: Optional[CachePolicy] = None,
    ):
        # The registry holds attached sections weakly; this strong ref is
        # what keeps the manager alive for the adapter's lifetime.
        self.cache: Optional[CacheManager] = None
        if cache_policy is not None and cache_policy.mode != "off":
            self.cache = CacheManager(cache_policy)
        if pool is None:
            kwargs = {}
            if max_conns_per_endpoint is not None:
                kwargs["max_conns_per_endpoint"] = max_conns_per_endpoint
            if metrics is not None:
                kwargs["metrics"] = metrics
            pool = ClientPool(credentials, policy=policy, **kwargs)
        self.pool = pool
        if self.cache is not None:
            self.pool.metrics.attach_section("cache", self.cache)
        self.policy = policy or RetryPolicy()
        self.sync_writes = sync_writes
        self.mountlist = mountlist or Mountlist()
        self._mounts: list[tuple[str, Filesystem]] = []
        self._auto_cache: dict[str, Filesystem] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------

    def mount(self, prefix: str, fs: Filesystem) -> None:
        """Attach any abstraction at a namespace prefix."""
        prefix = normalize_virtual(prefix)
        if prefix == "/":
            raise ValueError("cannot mount over the root")
        with self._lock:
            self._mounts = [(p, f) for p, f in self._mounts if p != prefix]
            self._mounts.append((prefix, fs))
            self._mounts.sort(key=lambda m: len(m[0]), reverse=True)

    def unmount(self, prefix: str) -> None:
        prefix = normalize_virtual(prefix)
        with self._lock:
            self._mounts = [(p, f) for p, f in self._mounts if p != prefix]

    def add_mount_rule(self, logical: str, target: str) -> None:
        """Add a mountlist rewrite rule (logical name -> target path)."""
        self.mountlist.add(logical, target)

    def claims(self, path: str) -> bool:
        """Would this adapter handle ``path``?  (Used by interposition.)"""
        try:
            self.resolve(path)
            return True
        except OSError:
            return False

    def resolve(self, path: str) -> tuple[Filesystem, str]:
        """Map a user path to ``(filesystem, inner_path)``."""
        full = self.mountlist.translate(path)
        with self._lock:
            mounts = list(self._mounts)
        for prefix, fs in mounts:
            if full == prefix:
                return fs, "/"
            if full.startswith(prefix + "/"):
                return fs, full[len(prefix):]
        if full.startswith("/cfs/"):
            return self._auto_cfs(full)
        if full.startswith("/dsfs/"):
            return self._auto_dsfs(full)
        raise OSError(errno.ENOENT, f"path {path!r} is outside the TSS namespace")

    def _cached(self, fs: Filesystem) -> Filesystem:
        return fs if self.cache is None else CachedFilesystem(fs, self.cache)

    def _auto_cfs(self, full: str) -> tuple[Filesystem, str]:
        rest = full[len("/cfs/"):]
        endpoint_text, _, inner = rest.partition("/")
        if not endpoint_text:
            raise OSError(errno.ENOENT, "expected /cfs/<host:port>/...")
        key = f"cfs:{endpoint_text}"
        with self._lock:
            fs = self._auto_cache.get(key)
        if fs is None:
            host, port = _parse_endpoint(endpoint_text)
            try:
                client = self.pool.get(host, port)
            except ChirpError as exc:
                raise _oserror(exc, full) from exc
            fs = self._cached(
                CFS(client, policy=self.policy, sync_writes=self.sync_writes)
            )
            with self._lock:
                self._auto_cache.setdefault(key, fs)
        return fs, "/" + inner

    def _auto_dsfs(self, full: str) -> tuple[Filesystem, str]:
        rest = full[len("/dsfs/"):]
        spec, _, inner = rest.partition("/")
        endpoint_text, sep, volume = spec.partition("@")
        if not sep or not volume:
            raise OSError(errno.ENOENT, "expected /dsfs/<host:port>@<volume>/...")
        key = f"dsfs:{spec}"
        with self._lock:
            fs = self._auto_cache.get(key)
        if fs is None:
            host, port = _parse_endpoint(endpoint_text)
            try:
                fs = self._cached(
                    DSFS.open_volume(
                        self.pool,
                        host,
                        port,
                        "/" + volume,
                        policy=self.policy,
                        sync_writes=self.sync_writes,
                    )
                )
            except ChirpError as exc:
                raise _oserror(exc, full) from exc
            except ValueError as exc:
                raise OSError(errno.ENOENT, f"{spec}: {exc}") from exc
            with self._lock:
                self._auto_cache.setdefault(key, fs)
        return fs, "/" + inner

    # ------------------------------------------------------------------
    # the syscall surface
    # ------------------------------------------------------------------

    def open(
        self,
        path: str,
        mode: str = "r",
        buffering: int = -1,
        encoding: Optional[str] = None,
        errors: Optional[str] = None,
        newline: Optional[str] = None,
    ) -> io.IOBase:
        """``builtins.open`` semantics over the TSS namespace.

        Binary mode returns the *unbuffered* :class:`AdapterFile` (faithful
        to the paper's no-caching rule) unless buffering is requested;
        text mode wraps it in Python's buffered+text layers.
        """
        fs, inner = self.resolve(path)
        binary = "b" in mode
        flags = OpenFlags.parse_mode_string(mode)
        try:
            handle = fs.open(inner, flags)
        except ChirpError as exc:
            raise _oserror(exc, path) from exc
        raw = AdapterFile(
            handle,
            name=path,
            readable=flags.read,
            writable=flags.write,
            append=flags.append,
        )
        if binary:
            if buffering in (-1, 0):
                return raw
            return self._buffer(raw, buffering)
        if buffering == 0:
            raise ValueError("can't have unbuffered text I/O")
        buffered = self._buffer(raw, buffering if buffering > 0 else io.DEFAULT_BUFFER_SIZE)
        return io.TextIOWrapper(
            buffered, encoding=encoding or "utf-8", errors=errors, newline=newline
        )

    @staticmethod
    def _buffer(raw: AdapterFile, size: int) -> io.BufferedIOBase:
        if raw.readable() and raw.writable():
            return io.BufferedRandom(raw, size)
        if raw.writable():
            return io.BufferedWriter(raw, size)
        return io.BufferedReader(raw, size)

    def _fs_call(self, path: str, op_name: str, *args):
        fs, inner = self.resolve(path)
        try:
            return getattr(fs, op_name)(inner, *args)
        except ChirpError as exc:
            raise _oserror(exc, path) from exc

    def stat(self, path: str) -> StatResult:
        return to_stat_result(self._fs_call(path, "stat"))

    def lstat(self, path: str) -> StatResult:
        return to_stat_result(self._fs_call(path, "lstat"))

    def listdir(self, path: str) -> list[str]:
        return self._fs_call(path, "listdir")

    def unlink(self, path: str) -> None:
        self._fs_call(path, "unlink")

    remove = unlink

    def rename(self, old: str, new: str) -> None:
        fs_old, inner_old = self.resolve(old)
        fs_new, inner_new = self.resolve(new)
        if fs_old is not fs_new:
            raise OSError(errno.EXDEV, "rename across TSS abstractions")
        try:
            fs_old.rename(inner_old, inner_new)
        except ChirpError as exc:
            raise _oserror(exc, old) from exc

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._fs_call(path, "mkdir", mode)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        fs, inner = self.resolve(path)
        try:
            fs.makedirs(inner, mode)
        except ChirpError as exc:
            raise _oserror(exc, path) from exc

    def rmdir(self, path: str) -> None:
        self._fs_call(path, "rmdir")

    def truncate(self, path: str, size: int) -> None:
        self._fs_call(path, "truncate", size)

    def utime(self, path: str, times: tuple[int, int]) -> None:
        self._fs_call(path, "utime", int(times[0]), int(times[1]))

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except OSError:
            return False

    def statfs(self, path: str) -> StatFs:
        fs, _ = self.resolve(path)
        try:
            return fs.statfs()
        except ChirpError as exc:
            raise _oserror(exc, path) from exc

    def read_bytes(self, path: str) -> bytes:
        fs, inner = self.resolve(path)
        try:
            return fs.read_file(inner)
        except ChirpError as exc:
            raise _oserror(exc, path) from exc

    def write_bytes(self, path: str, data: bytes) -> int:
        fs, inner = self.resolve(path)
        try:
            return fs.write_file(inner, data)
        except ChirpError as exc:
            raise _oserror(exc, path) from exc

    def walk(self, top: str):
        fs, inner = self.resolve(top)
        prefix = top.rstrip("/")
        inner_prefix = inner.rstrip("/")
        for dirpath, dirnames, filenames in fs.walk(inner):
            suffix = dirpath[len(inner_prefix):] if inner_prefix else dirpath
            mapped = (prefix + suffix).rstrip("/") or "/"
            yield (mapped, dirnames, filenames)

    def close(self) -> None:
        if self.cache is not None:
            self.cache.close()
        self.pool.close()

    def __enter__(self) -> "Adapter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
