"""FaultyStore: seeded, scriptable disk-fault injection under any store.

PR 2's :class:`~repro.transport.faults.FaultyListener` gave the test
suite a reproducible model of *network* failure; this module is its
twin for the disk.  A :class:`FaultyStore` decorates any
:class:`~repro.store.interface.BlobStore` and injects faults on the
data-path handle operations per a :class:`DiskFaultPlan`:

- **eio** -- the operation raises an I/O error (surfaced as
  :class:`~repro.util.errors.UnknownError`, the same status a kernel
  ``EIO`` maps to on the wire);
- **enospc** -- a write lands *partially* and then raises
  :class:`~repro.util.errors.NoSpaceError`, modelling a disk filling up
  mid-operation;
- **fsync_fail** -- the flush raises after the writes "succeeded", the
  classic lying-disk failure mode;
- **short_write** -- only a prefix is written and the honest short
  count is returned (POSIX permits this; almost nobody handles it);
- **torn_write** -- only a prefix is written but the *full* length is
  reported: silent data loss;
- **bitrot** -- a read returns the stored bytes with one byte flipped
  and no error at all: silent corruption in flight;
- **latency** -- a per-operation delay from an injectable clock.

Faults are drawn from one ``random.Random(seed)`` owned by the plan and
every injection is appended to an event log, so a rerun against the
same seed and the same (sequential) workload replays the identical
fault sequence -- the same reproducibility contract as the transport
proxy.  :meth:`FaultyStore.rot_at_rest` additionally corrupts bytes
*at rest* inside the inner store (local file, memory node, or sealed
CAS object), which is the corruption class ``tss store scrub`` and the
checksum-verified read path exist to catch.

With an empty plan the decorator is semantically transparent: the
store-conformance battery runs over ``FaultyStore(plan=empty)`` around
all three stores.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from typing import Optional

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.store.cas import EMPTY_KEY
from repro.store.interface import BlobStore, FileHandle
from repro.util.clock import Clock, MonotonicClock
from repro.util.errors import InvalidRequestError, NoSpaceError, UnknownError
from repro.util.paths import Resolved

__all__ = [
    "DiskFaultScript",
    "DiskFaultPlan",
    "FaultyStore",
    "EIO",
    "ENOSPC",
    "FSYNC_FAIL",
    "SHORT_WRITE",
    "TORN_WRITE",
    "BITROT",
]

EIO = "eio"
ENOSPC = "enospc"
FSYNC_FAIL = "fsync_fail"
SHORT_WRITE = "short_write"
TORN_WRITE = "torn_write"
BITROT = "bitrot"
#: latency-only injection (the action slot when only a delay is wanted)
DELAY = "delay"

_ACTIONS = (EIO, ENOSPC, FSYNC_FAIL, SHORT_WRITE, TORN_WRITE, BITROT, DELAY)

#: the handle operations a script's ``op`` may target ("*" = any)
FAULT_OPS = ("pread", "pwrite", "fsync", "ftruncate")

#: which actions make sense on which operation
_OP_ACTIONS = {
    "pread": (EIO, BITROT, DELAY),
    "pwrite": (EIO, ENOSPC, SHORT_WRITE, TORN_WRITE, DELAY),
    "fsync": (EIO, FSYNC_FAIL, DELAY),
    "ftruncate": (EIO, DELAY),
}


@dataclass
class DiskFaultScript:
    """One injected disk fault.

    :ivar op: the handle operation to fire on (``pread``, ``pwrite``,
        ``fsync``, ``ftruncate``, or ``*`` for the next eligible op).
    :ivar action: what to inject (module constants above).
    :ivar latency: seconds to sleep before the operation proceeds (or
        fails); composes with any action, including ``delay`` alone.
    :ivar path: substring the virtual path must contain for the script
        to match ("" matches every path).
    :ivar note: free-form tag copied into the event log.
    """

    op: str = "*"
    action: str = EIO
    latency: float = 0.0
    path: str = ""
    note: str = ""

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown disk fault action {self.action!r}")
        if self.op != "*" and self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r}")

    def matches(self, op: str, vpath: str) -> bool:
        if self.op != "*" and self.op != op:
            return False
        if self.action != DELAY and self.action not in _OP_ACTIONS[op]:
            return False
        return self.path in (vpath or "")

    def describe(self) -> str:
        parts = [f"{self.op}:{self.action}"]
        if self.latency:
            parts.append(f"latency={self.latency:g}")
        if self.path:
            parts.append(f"path~{self.path}")
        if self.note:
            parts.append(self.note)
        return ",".join(parts)


@dataclass
class DiskFaultPlan:
    """The fault schedule for one :class:`FaultyStore`.

    Explicit mode: queue :class:`DiskFaultScript`\\ s with
    :meth:`script`; each eligible operation consumes the first queued
    script that matches it.  Probabilistic mode (:meth:`chaos`): every
    eligible operation rolls the seeded RNG against per-action rates.
    All randomness -- chaos rolls *and* bit-flip positions -- comes from
    the one ``random.Random(seed)``, and every injection is recorded in
    the event log, so the same seed over the same sequential workload
    replays byte-identically.

    ``log_paths`` controls whether virtual paths appear in event-log
    entries.  Soak tests that place files at generated (run-unique)
    paths turn it off so logs stay comparable across reruns; at-rest rot
    is always logged by content digest for the same reason.
    """

    seed: Optional[int] = None
    rng: random.Random = None  # type: ignore[assignment]
    log_paths: bool = True

    def __post_init__(self):
        if self.rng is None:
            self.rng = random.Random(self.seed)
        self._scripts: list[DiskFaultScript] = []
        self._chaos: Optional[dict] = None
        self._lock = threading.Lock()
        self._events: list[str] = []
        self.injected = 0

    def script(self, fault: DiskFaultScript) -> "DiskFaultPlan":
        """Queue a script; eligible ops consume matching scripts in order."""
        with self._lock:
            self._scripts.append(fault)
        return self

    @classmethod
    def chaos(
        cls,
        seed: int,
        *,
        eio_rate: float = 0.0,
        enospc_rate: float = 0.0,
        fsync_fail_rate: float = 0.0,
        short_write_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        bitrot_rate: float = 0.0,
        latency: tuple[float, float] = (0.0, 0.0),
        log_paths: bool = True,
    ) -> "DiskFaultPlan":
        """A seeded probabilistic mix; rates are per eligible operation."""
        plan = cls(seed=seed, log_paths=log_paths)
        plan._chaos = {
            EIO: eio_rate,
            ENOSPC: enospc_rate,
            FSYNC_FAIL: fsync_fail_rate,
            SHORT_WRITE: short_write_rate,
            TORN_WRITE: torn_write_rate,
            BITROT: bitrot_rate,
            "latency": latency,
        }
        return plan

    # -- the draw (called by _FaultyHandle on every eligible op) --------

    def next_action(self, op: str, vpath: str) -> Optional[DiskFaultScript]:
        """The fault (if any) for this operation; consumes scripts/RNG."""
        with self._lock:
            for i, fault in enumerate(self._scripts):
                if fault.matches(op, vpath):
                    del self._scripts[i]
                    self._record_locked(op, vpath, fault)
                    return fault
            if self._chaos is None:
                return None
            fault = self._draw_locked(op)
            if fault is not None:
                self._record_locked(op, vpath, fault)
            return fault

    def _draw_locked(self, op: str) -> Optional[DiskFaultScript]:
        cfg = self._chaos
        lat_lo, lat_hi = cfg["latency"]
        latency = self.rng.uniform(lat_lo, lat_hi) if lat_hi > 0 else 0.0
        roll = self.rng.random()
        threshold = 0.0
        for action in (EIO, ENOSPC, FSYNC_FAIL, SHORT_WRITE, TORN_WRITE, BITROT):
            if action not in _OP_ACTIONS[op]:
                continue
            threshold += cfg[action]
            if roll < threshold:
                return DiskFaultScript(
                    op=op, action=action, latency=latency, note="chaos"
                )
        if latency > 0:
            return DiskFaultScript(op=op, action=DELAY, latency=latency, note="chaos")
        return None

    def flip_index(self, size: int) -> int:
        """A seeded byte position for a bit flip (consumes the RNG)."""
        with self._lock:
            return self.rng.randrange(size) if size > 0 else 0

    # -- the reproducibility witness ------------------------------------

    def _record_locked(self, op: str, vpath: str, fault: DiskFaultScript) -> None:
        self.injected += 1
        where = f" {vpath}" if self.log_paths and vpath else ""
        self._events.append(f"{op}{where}: {fault.describe()}")

    def record(self, event: str) -> None:
        """Append a free-form entry (used by at-rest rot injection)."""
        with self._lock:
            self.injected += 1
            self._events.append(event)

    def event_log(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._events)


class _FaultyHandle(FileHandle):
    """Wraps an inner handle, consulting the plan on every data-path op."""

    def __init__(self, store: "FaultyStore", inner: FileHandle, vpath: str):
        self._store = store
        self._inner = inner
        self._vpath = vpath

    def _consult(self, op: str) -> Optional[DiskFaultScript]:
        fault = self._store.plan.next_action(op, self._vpath)
        if fault is not None and fault.latency > 0:
            self._store.clock.sleep(fault.latency)
        return fault

    def pread(self, length: int, offset: int) -> bytes:
        fault = self._consult("pread")
        if fault is not None and fault.action == EIO:
            raise UnknownError(f"{self._vpath}: injected read I/O error")
        data = self._inner.pread(length, offset)
        if fault is not None and fault.action == BITROT and data:
            idx = self._store.plan.flip_index(len(data))
            rotted = bytearray(data)
            rotted[idx] ^= 0xFF
            return bytes(rotted)
        return data

    def pwrite(self, data: bytes, offset: int) -> int:
        fault = self._consult("pwrite")
        if fault is None or not data:
            return self._inner.pwrite(data, offset)
        if fault.action == EIO:
            raise UnknownError(f"{self._vpath}: injected write I/O error")
        if fault.action == ENOSPC:
            # The disk fills mid-write: a prefix lands, then the error.
            self._inner.pwrite(data[: len(data) // 2], offset)
            raise NoSpaceError(f"{self._vpath}: injected disk full")
        if fault.action in (SHORT_WRITE, TORN_WRITE):
            prefix = max(1, len(data) // 2)
            written = self._inner.pwrite(data[:prefix], offset)
            # short_write is honest about the count; torn_write lies.
            return written if fault.action == SHORT_WRITE else len(data)
        return self._inner.pwrite(data, offset)

    def fsync(self) -> None:
        fault = self._consult("fsync")
        if fault is not None and fault.action in (EIO, FSYNC_FAIL):
            raise UnknownError(f"{self._vpath}: injected fsync failure")
        self._inner.fsync()

    def fstat(self) -> ChirpStat:
        return self._inner.fstat()

    def fileno(self) -> None:
        # Never the inner fd: a kernel send from it would serve around
        # the plan, so injected read EIO and bitrot would never fire.
        return None

    def ftruncate(self, size: int) -> None:
        fault = self._consult("ftruncate")
        if fault is not None and fault.action == EIO:
            raise UnknownError(f"{self._vpath}: injected truncate I/O error")
        self._inner.ftruncate(size)

    def close(self) -> None:
        self._inner.close()


class FaultyStore(BlobStore):
    """A fault-injecting decorator over any :class:`BlobStore`.

    Namespace and capacity operations delegate untouched; handles come
    back wrapped in :class:`_FaultyHandle` so the plan sees every
    data-path operation.  ``kind`` and ``supports_cas`` mirror the inner
    store: the decorator is invisible to catalogs, metrics, and clients.
    """

    def __init__(
        self,
        inner: BlobStore,
        plan: Optional[DiskFaultPlan] = None,
        clock: Optional[Clock] = None,
    ):
        super().__init__()
        self.inner = inner
        self.plan = plan or DiskFaultPlan()
        self.clock = clock or MonotonicClock()
        # Instance attributes shadow the class defaults: report the
        # inner store's identity, not "faulty".
        self.kind = inner.kind
        self.supports_cas = inner.supports_cas

    @property
    def root(self) -> str:
        return getattr(self.inner, "root", "")

    def __getattr__(self, name: str):
        # Store-specific extras (scrub, refcount, tracking_usage, ...)
        # fall through to the inner store.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def resolve(self, vpath: str) -> str:
        return self.inner.resolve(vpath)

    # -- file I/O -------------------------------------------------------

    def open(self, vpath: str, flags: OpenFlags, mode: int) -> FileHandle:
        return _FaultyHandle(self, self.inner.open(vpath, flags, mode), str(vpath))

    # -- namespace (transparent) ----------------------------------------

    def stat(self, vpath: str) -> ChirpStat:
        return self.inner.stat(vpath)

    def lstat(self, vpath: str) -> ChirpStat:
        return self.inner.lstat(vpath)

    def exists(self, vpath: str) -> bool:
        return self.inner.exists(vpath)

    def isdir(self, vpath: str) -> bool:
        return self.inner.isdir(vpath)

    def listdir(self, vpath: str) -> list[str]:
        return self.inner.listdir(vpath)

    def unlink(self, vpath: str) -> None:
        self.inner.unlink(vpath)

    def rename(self, vold: str, vnew: str) -> None:
        self.inner.rename(vold, vnew)

    def mkdir(self, vpath: str, mode: int) -> None:
        self.inner.mkdir(vpath, mode)

    def rmdir(self, vpath: str) -> None:
        self.inner.rmdir(vpath)

    def truncate(self, vpath: str, size: int) -> None:
        self.inner.truncate(vpath, size)

    def utime(self, vpath: str, atime: int, mtime: int) -> None:
        self.inner.utime(vpath, atime, mtime)

    def checksum(self, vpath: str) -> str:
        return self.inner.checksum(vpath)

    # -- capacity / CAS surface / lifecycle -----------------------------

    def used_bytes(self) -> int:
        return self.inner.used_bytes()

    def capacity(self) -> tuple[int, int]:
        return self.inner.capacity()

    def reconcile_usage(self) -> int:
        return self.inner.reconcile_usage()

    def janitor(self) -> int:
        # Explicit: the BlobStore default (0) would otherwise shadow the
        # wrapped store's sweep, since __getattr__ only fires for
        # attributes the class does not define.
        return self.inner.janitor()

    def lookup_key(self, key: str) -> bool:
        return self.inner.lookup_key(key)

    def link_key(self, vpath: str, key: str, mode: int = 0o644) -> int:
        return self.inner.link_key(vpath, key, mode)

    def key_of(self, vpath: str) -> str:
        return self.inner.key_of(vpath)

    def snapshot(self) -> dict:
        snap = self.inner.snapshot()
        snap["faults_injected"] = self.plan.injected
        return snap

    def close(self) -> None:
        self.inner.close()

    # -- at-rest corruption ---------------------------------------------

    def rot_at_rest(self, vpath: str) -> str:
        """Flip one stored byte beneath ``vpath`` without any error.

        This is bit-rot the inner store cannot see happen: the flip goes
        straight to the backing bytes (local file, memory node, or
        sealed CAS object), bypassing every handle.  Returns the content
        digest the path held *before* the rot, and logs the injection by
        that digest (not the path), so seeded soaks over generated paths
        still produce comparable event logs.
        """
        digest = self.inner.checksum(vpath)
        inner = self.inner
        if digest == EMPTY_KEY:
            raise InvalidRequestError(f"{vpath}: nothing to rot")
        if inner.supports_cas and hasattr(inner, "_object_path"):
            obj = inner._object_path(inner.key_of(vpath))
            idx = self._flip_file(obj, sealed=True)
        elif isinstance(path := inner.resolve(vpath), Resolved):
            idx = self._flip_file(path.real)
        elif hasattr(inner, "_node"):
            with inner._lock:
                node = inner._node(vpath)
                data = getattr(node, "data", None)
                if not data:
                    raise InvalidRequestError(f"{vpath}: nothing to rot")
                idx = self.plan.flip_index(len(data))
                data[idx] ^= 0xFF
        else:
            raise InvalidRequestError(
                f"cannot rot at rest in a {inner.kind!r} store"
            )
        self.plan.record(f"rot {digest} byte {idx}")
        return digest

    def _flip_file(self, real: str, sealed: bool = False) -> int:
        size = os.lstat(real).st_size
        if size == 0:
            raise InvalidRequestError(f"{real}: nothing to rot")
        idx = self.plan.flip_index(size)
        if sealed:
            os.chmod(real, 0o644)  # sealed objects are read-only on disk
        try:
            with open(real, "r+b") as fh:
                fh.seek(idx)
                byte = fh.read(1)
                fh.seek(idx)
                fh.write(bytes([byte[0] ^ 0xFF]))
        finally:
            if sealed:
                os.chmod(real, 0o444)
        return idx
