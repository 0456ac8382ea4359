"""The file server's abstraction layer: ACLs, quotas and handles over a store.

This module is the paper's separation made literal.  Everything a Chirp
server *means* -- the software chroot, ACL enforcement on every
operation, reserve-right ``mkdir`` semantics, hiding the ACL bookkeeping
files, quota -- lives here, in :class:`Backend`.  Everything a server
*stores on* lives behind the :class:`~repro.store.BlobStore` interface
(local directory, RAM, content-addressed blobs), so the abstraction is
identical no matter which resource serves it.

ACL files travel through the store like any other blob: the backend
reads and writes ``.__acl`` entries with ``read_blob``/``write_blob``
and never touches the disk directly, so a CAS store's ACLs are
deduplicated pointer records while a local store's are the exact bytes
the pre-refactor code wrote.  Parsed ACLs are kept per blob and checked
against the store's ``stamp`` on every lookup, so an edit made behind
the server's back is seen on the next request; stores that cannot
stamp (memory, fault injection) are re-read every time.

Rights required per operation (one judgment call documented here: the
paper presents ``D`` as a way to grant *delete-but-not-modify* to others,
so deletion is allowed to holders of **either** ``w`` or ``d``; a strict
D-only rule would leave the paper's own ``v(rwla)`` visitors unable to
delete their dangling stub files):

===============  ================================================
open (read)      ``r`` on the containing directory
open (write)     ``w`` on the containing directory
stat/access      ``l`` on the containing directory
getdir           ``l`` on the directory itself
unlink           ``w`` or ``d`` on the containing directory
rename           ``w``/``d`` on the source dir, ``w`` on the target dir
mkdir            ``v`` (reserve semantics) else ``w`` on the parent
rmdir            ``w`` or ``d`` on the parent; directory must be empty
getacl           ``l`` on the directory
setacl           ``a`` on the directory
putkey           ``w`` on the containing directory
keyof            ``r`` on the containing directory
lookup           ``l`` on the root
===============  ================================================
"""

from __future__ import annotations

import logging
import posixpath
import threading
import time

from repro.auth.acl import ACL_FILE_NAME, Acl, parse_rights
from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.store import BlobHandle, BlobStore
from repro.util.errors import (
    AlreadyExistsError,
    BadFileDescriptorError,
    ChirpError,
    DoesNotExistError,
    InvalidRequestError,
    NoSpaceError,
    NotAuthorizedError,
    TryAgainError,
    UnknownError,
)
from repro.util.paths import normalize_virtual, split_virtual

__all__ = ["Backend"]

log = logging.getLogger("repro.chirp.backend")

#: name of the throwaway blob the degraded-mode recovery probe writes
PROBE_NAME = "/.tss-recovery-probe"


class Backend:
    """An ACL-enforcing, quota-tracking view over any :class:`BlobStore`.

    One backend serves all connections of one :class:`FileServer`; it is
    thread-safe (ACL copy-on-write and quota accounting take a lock;
    plain data-path I/O relies on the store, as the paper's CFS relies
    on the kernel).
    """

    def __init__(
        self,
        store: BlobStore,
        owner_subject: str,
        *,
        quota_bytes: int | None = None,
        root_acl: Acl | None = None,
        eio_degrade_threshold: int = 3,
        recovery_probe_interval: float = 5.0,
    ):
        self.store = store
        self.owner_subject = owner_subject
        self.quota_bytes = quota_bytes
        self._lock = threading.Lock()
        # Degraded read-only mode: the abstraction survives a failing
        # resource by refusing writes while still serving reads.  A
        # store-raised NO_SPACE flips the volume immediately; generic
        # I/O errors (UnknownError, the EIO mapping) flip it after
        # ``eio_degrade_threshold`` *consecutive* write failures.
        self.eio_degrade_threshold = eio_degrade_threshold
        self.recovery_probe_interval = recovery_probe_interval
        self.read_only = False
        self.read_only_reason = ""
        self._write_io_errors = 0
        self._last_probe = 0.0
        self._degraded_counters = {
            "degraded_entered": 0,
            "writes_refused": 0,
            "write_errors": 0,
            "recovered": 0,
            "recovery_probes": 0,
        }
        # Parsed ACLs by blob vpath, each with the store stamp it was
        # read at; every lookup re-stamps, so out-of-band edits show.
        # No lock: a racing lookup can at worst file fresh content under
        # an older stamp, which only costs the next lookup a re-read.
        self._acl_cache: dict[str, tuple[object, Acl]] = {}
        if self._load_acl("/") is None:
            self._store_acl("/", root_acl or Acl.owner_default(owner_subject))
        elif root_acl is not None:
            self._store_acl("/", root_acl)

    @property
    def root(self) -> str:
        """The store's on-disk root, when it has one ('' for memory)."""
        return getattr(self.store, "root", "")

    # ------------------------------------------------------------------
    # ACL plumbing (ACLs are blobs in the store)
    # ------------------------------------------------------------------

    @staticmethod
    def _acl_vpath(vdir: str) -> str:
        return posixpath.join(normalize_virtual(vdir), ACL_FILE_NAME)

    def _read_acl(self, vpath: str) -> Acl | None:
        try:
            data = self.store.try_read_blob(vpath)
        except ChirpError:
            return None
        if data is None:
            return None
        return Acl.from_text(data.decode("utf-8"))

    def _load_acl(self, vdir: str) -> Acl | None:
        """The ACL stored in ``vdir`` itself (None when it has none).

        The returned object may be shared with the cache: never mutate it.
        """
        vpath = self._acl_vpath(vdir)
        if not self.store.supports_stamp:
            return self._read_acl(vpath)
        stamp = self.store.stamp(vpath)
        if stamp is None:
            self._acl_cache.pop(vpath, None)
            return None
        cached = self._acl_cache.get(vpath)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        acl = self._read_acl(vpath)
        if acl is None:
            self._acl_cache.pop(vpath, None)
        else:
            self._acl_cache[vpath] = (stamp, acl)
        return acl

    def _store_acl(self, vdir: str, acl: Acl) -> None:
        vpath = self._acl_vpath(vdir)
        self.store.write_blob(vpath, acl.to_text().encode("utf-8"))
        self._acl_cache.pop(vpath, None)

    def _forget_acls(self, vdir: str) -> None:
        """Drop cached ACLs of ``vdir`` and everything below it."""
        prefix = normalize_virtual(vdir).rstrip("/") + "/"
        for vpath in list(self._acl_cache):
            if vpath.startswith(prefix):
                self._acl_cache.pop(vpath, None)

    def root_acl_text(self) -> str:
        """The root ACL as text (catalog reports advertise it)."""
        acl = self._load_acl("/")
        return acl.to_text() if acl is not None else ""

    @staticmethod
    def _forbid_acl_name(vpath: str) -> None:
        if posixpath.basename(normalize_virtual(vpath)) == ACL_FILE_NAME:
            raise NotAuthorizedError("ACL files are managed via getacl/setacl")

    def effective_acl(self, vdir: str) -> Acl:
        """The ACL governing a directory: its own, else the nearest ancestor's.

        The result may be shared with other callers: never mutate it.
        """
        vdir = normalize_virtual(vdir)
        while True:
            # Under a non-directory the ACL blob is simply absent.
            acl = self._load_acl(vdir)
            if acl is not None:
                return acl
            if vdir == "/":
                # Root ACL was created in __init__; reaching here means it
                # was deleted out from under us -- fail closed.
                return Acl()
            vdir = posixpath.dirname(vdir) or "/"

    def _check(self, subject: str, vdir: str, right: str) -> Acl:
        """Verify ``subject`` holds ``right`` on ``vdir``; returns the ACL."""
        acl = self.effective_acl(vdir)
        if subject == self.owner_subject:
            return acl
        if not acl.check(subject, right):
            raise NotAuthorizedError(
                f"subject {subject!r} lacks right {right!r} on {vdir!r}"
            )
        return acl

    def _check_any(self, subject: str, vdir: str, rights: str) -> Acl:
        """Verify the subject holds at least one of ``rights`` on ``vdir``."""
        acl = self.effective_acl(vdir)
        if subject == self.owner_subject:
            return acl
        held = acl.rights_for(subject).flags
        if not (held & set(rights)):
            raise NotAuthorizedError(
                f"subject {subject!r} lacks all of {rights!r} on {vdir!r}"
            )
        return acl

    # ------------------------------------------------------------------
    # degraded read-only mode
    # ------------------------------------------------------------------

    def _refuse_if_read_only(self) -> None:
        """Refuse a mutation while the volume is degraded.

        ENOSPC degradation answers ``NO_SPACE`` (the client's retry on
        another server is the right move); EIO degradation answers
        ``TRY_AGAIN`` (the disk may come back).  Deletions are *not*
        routed through here: freeing space is how an ENOSPC volume gets
        healthy again.
        """
        if not self.read_only:
            return
        with self._lock:
            self._degraded_counters["writes_refused"] += 1
        if self.read_only_reason == "enospc":
            raise NoSpaceError("volume is read-only (degraded: no space)")
        raise TryAgainError(
            f"volume is read-only (degraded: {self.read_only_reason})"
        )

    def record_write_error(self, exc: Exception) -> None:
        """Feed degraded-mode bookkeeping after a store write failed.

        Only *resource* failures count: a store-raised NO_SPACE flips
        the volume at once, a generic I/O error (UNKNOWN) after enough
        consecutive hits.  Policy refusals (quota, ACL, ENOENT...) are
        the abstraction working as designed, not the resource failing.
        """
        with self._lock:
            self._degraded_counters["write_errors"] += 1
        if isinstance(exc, NoSpaceError):
            self._enter_read_only("enospc")
        elif isinstance(exc, UnknownError):
            with self._lock:
                self._write_io_errors += 1
                tripped = self._write_io_errors >= self.eio_degrade_threshold
            if tripped:
                self._enter_read_only("eio")

    def record_write_ok(self) -> None:
        """A store write succeeded: reset the consecutive-EIO counter."""
        with self._lock:
            self._write_io_errors = 0

    def _enter_read_only(self, reason: str) -> None:
        with self._lock:
            if self.read_only:
                return
            self.read_only = True
            self.read_only_reason = reason
            self._degraded_counters["degraded_entered"] += 1
        log.warning("volume degraded to read-only (%s)", reason)

    def try_recover(self, *, force: bool = False) -> bool:
        """Probe the store and exit read-only mode if it works again.

        Writes, reads back, and unlinks a tiny probe blob *directly on
        the store* (bypassing the refusal gate).  Throttled to one probe
        per ``recovery_probe_interval`` unless ``force``.  Returns True
        when the volume recovered on this call.
        """
        if not self.read_only:
            return False
        now = time.monotonic()
        with self._lock:
            if not force and now - self._last_probe < self.recovery_probe_interval:
                return False
            self._last_probe = now
            self._degraded_counters["recovery_probes"] += 1
        try:
            self.store.write_blob(PROBE_NAME, b"probe")
            data = self.store.read_blob(PROBE_NAME)
            self.store.unlink(PROBE_NAME)
        except ChirpError:
            return False
        if data != b"probe":
            return False
        with self._lock:
            self.read_only = False
            self.read_only_reason = ""
            self._write_io_errors = 0
            self._degraded_counters["recovered"] += 1
        log.info("volume recovered from read-only mode")
        return True

    def _store_write(self, op, *args, **kwargs):
        """Run one store mutation, feeding degraded-mode bookkeeping."""
        try:
            result = op(*args, **kwargs)
        except ChirpError as exc:
            self.record_write_error(exc)
            raise
        self.record_write_ok()
        return result

    def snapshot(self) -> dict:
        """Degraded-mode state for the metrics ``volume`` section."""
        with self._lock:
            snap = dict(self._degraded_counters)
        snap["read_only"] = self.read_only
        snap["read_only_reason"] = self.read_only_reason
        return snap

    # ------------------------------------------------------------------
    # file I/O (handles come from the store; fd numbering is the
    # server's concern)
    # ------------------------------------------------------------------

    @staticmethod
    def _handle(handle) -> BlobHandle:
        if not isinstance(handle, BlobHandle):
            raise BadFileDescriptorError(f"not an open handle: {handle!r}")
        return handle

    def open(self, subject: str, vpath: str, flags: OpenFlags, mode: int) -> BlobHandle:
        """Open a file, returning a store handle."""
        self._forbid_acl_name(vpath)
        parent, _name = split_virtual(vpath)
        if flags.write or flags.create or flags.truncate:
            self._check(subject, parent, "w")
            self._refuse_if_read_only()
            return self._store_write(self.store.open, vpath, flags, mode)
        self._check(subject, parent, "r")
        return self.store.open(vpath, flags, mode)

    def close(self, handle) -> None:
        self._handle(handle).close()

    def pread(self, handle, length: int, offset: int) -> bytes:
        if length < 0 or offset < 0:
            raise InvalidRequestError("negative length or offset")
        return self._handle(handle).pread(length, offset)

    def pwrite(self, handle, data: bytes, offset: int) -> int:
        if offset < 0:
            raise InvalidRequestError("negative offset")
        self._refuse_if_read_only()
        # Quota refusal (a policy decision) happens before the store is
        # touched, so it never counts as a resource failure below.
        self._charge_quota(len(data))
        return self._store_write(self._handle(handle).pwrite, data, offset)

    def fsync(self, handle) -> None:
        self._store_write(self._handle(handle).fsync)

    def fstat(self, handle) -> ChirpStat:
        return self._handle(handle).fstat()

    def ftruncate(self, handle, size: int) -> None:
        if size < 0:
            raise InvalidRequestError("negative size")
        self._refuse_if_read_only()
        self._store_write(self._handle(handle).ftruncate, size)

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------

    def stat(self, subject: str, vpath: str) -> ChirpStat:
        self._forbid_acl_name(vpath)
        parent, _ = split_virtual(vpath)
        self._check(subject, parent, "l")
        return self.store.stat(vpath)

    def lstat(self, subject: str, vpath: str) -> ChirpStat:
        self._forbid_acl_name(vpath)
        parent, _ = split_virtual(vpath)
        self._check(subject, parent, "l")
        return self.store.lstat(vpath)

    def access(self, subject: str, vpath: str, rights: str) -> None:
        """Check existence plus the given rights (string over ``rwld``)."""
        self._forbid_acl_name(vpath)
        parent, _ = split_virtual(vpath)
        for right in rights or "l":
            self._check(subject, parent, right)
        if not self.store.exists(vpath):
            raise DoesNotExistError(vpath)

    def unlink(self, subject: str, vpath: str) -> None:
        self._forbid_acl_name(vpath)
        parent, name = split_virtual(vpath)
        if not name:
            raise InvalidRequestError("cannot unlink the root")
        self._check_any(subject, parent, "wd")
        self.store.unlink(vpath)

    def rename(self, subject: str, vold: str, vnew: str) -> None:
        self._forbid_acl_name(vold)
        self._forbid_acl_name(vnew)
        old_parent, old_name = split_virtual(vold)
        new_parent, new_name = split_virtual(vnew)
        if not old_name or not new_name:
            raise InvalidRequestError("cannot rename the root")
        self._check_any(subject, old_parent, "wd")
        self._check(subject, new_parent, "w")
        self._refuse_if_read_only()
        self.store.rename(vold, vnew)
        self._forget_acls(vold)
        self._forget_acls(vnew)

    def mkdir(self, subject: str, vpath: str, mode: int) -> None:
        """Create a directory, applying reserve-right semantics.

        If the subject holds ``v`` on the parent, the new directory gets a
        fresh ACL granting the subject only the parent's reserve group --
        the mechanism that lets visiting users carve out private
        namespaces.  Otherwise ``w`` is required and the directory inherits
        the parent's ACL dynamically.
        """
        self._forbid_acl_name(vpath)
        parent, name = split_virtual(vpath)
        if not name:
            # POSIX: mkdir of an existing directory (the root always
            # exists) reports EEXIST, which os.makedirs-style callers
            # tolerate.
            raise AlreadyExistsError("/")
        acl = self.effective_acl(parent)
        rights = acl.rights_for(subject)
        is_owner = subject == self.owner_subject
        reserved = "v" in rights.flags and not is_owner
        if not (is_owner or "v" in rights.flags or "w" in rights.flags):
            raise NotAuthorizedError(
                f"subject {subject!r} lacks both w and v on {parent!r}"
            )
        self._refuse_if_read_only()
        self.store.mkdir(vpath, mode)
        if reserved:
            self._store_acl(vpath, acl.reserved_for(subject))

    def rmdir(self, subject: str, vpath: str) -> None:
        self._forbid_acl_name(vpath)
        parent, name = split_virtual(vpath)
        if not name:
            raise InvalidRequestError("cannot rmdir the root")
        self._check_any(subject, parent, "wd")
        # A directory whose only content is its ACL file counts as empty.
        entries = self.store.listdir(vpath)
        if entries == [ACL_FILE_NAME]:
            try:
                self.store.unlink(self._acl_vpath(vpath))
            except ChirpError:
                pass
        self.store.rmdir(vpath)
        self._forget_acls(vpath)

    def getdir(self, subject: str, vpath: str) -> list[str]:
        self._check(subject, vpath, "l")
        names = self.store.listdir(vpath)
        return sorted(n for n in names if n != ACL_FILE_NAME)

    def truncate(self, subject: str, vpath: str, size: int) -> None:
        self._forbid_acl_name(vpath)
        parent, _ = split_virtual(vpath)
        self._check(subject, parent, "w")
        if size < 0:
            raise InvalidRequestError("negative size")
        self._refuse_if_read_only()
        self._store_write(self.store.truncate, vpath, size)

    def utime(self, subject: str, vpath: str, atime: int, mtime: int) -> None:
        self._forbid_acl_name(vpath)
        parent, _ = split_virtual(vpath)
        self._check(subject, parent, "w")
        self._refuse_if_read_only()
        self.store.utime(vpath, atime, mtime)

    def checksum(self, subject: str, vpath: str) -> str:
        """Server-side checksum so auditors avoid reading whole replicas.

        O(1) on content-addressed stores: the stored key *is* the
        checksum.
        """
        self._forbid_acl_name(vpath)
        parent, _ = split_virtual(vpath)
        self._check(subject, parent, "r")
        return self.store.checksum(vpath)

    # ------------------------------------------------------------------
    # content-addressed operations (CAS stores only; others refuse with
    # InvalidRequestError, exactly like an unknown verb)
    # ------------------------------------------------------------------

    def lookup(self, subject: str, key: str) -> bool:
        """Whether a sealed blob with this content key is present."""
        self._check(subject, "/", "l")
        return self.store.lookup_key(key)

    def putkey(self, subject: str, vpath: str, mode: int, key: str) -> int:
        """Bind a path to an already-present blob (copy-by-reference).

        No payload bytes move and no quota is charged: linking an
        existing blob adds nothing to physical usage.
        """
        self._forbid_acl_name(vpath)
        parent, name = split_virtual(vpath)
        if not name:
            raise InvalidRequestError("cannot putkey the root")
        self._check(subject, parent, "w")
        self._refuse_if_read_only()
        return self._store_write(self.store.link_key, vpath, key, mode)

    def keyof(self, subject: str, vpath: str) -> str:
        """The content key a path is bound to (metadata-only audit)."""
        self._forbid_acl_name(vpath)
        parent, _ = split_virtual(vpath)
        self._check(subject, parent, "r")
        return self.store.key_of(vpath)

    # ------------------------------------------------------------------
    # ACL management
    # ------------------------------------------------------------------

    def getacl(self, subject: str, vpath: str) -> Acl:
        self._check(subject, vpath, "l")
        if not self.store.isdir(vpath):
            raise DoesNotExistError(vpath)
        return Acl(list(self.effective_acl(vpath).entries))

    def setacl(self, subject: str, vpath: str, pattern: str, rights_text: str) -> None:
        self._refuse_if_read_only()
        with self._lock:
            acl = self._check(subject, vpath, "a")
            if not self.store.isdir(vpath):
                raise DoesNotExistError(vpath)
            # Edit a copy -- of this directory's own ACL, else of the
            # inherited one, so the edit affects only this subtree.  The
            # loaded ACL may be cached and must keep matching the blob
            # even when the write below fails.
            own = self._load_acl(vpath)
            own = Acl(list((acl if own is None else own).entries))
            rights = parse_rights(rights_text) if rights_text not in ("n", "none") else None
            if rights is None:
                own.set_entry(pattern, "")
            else:
                own.set_entry(pattern, rights)
            self._store_acl(vpath, own)

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------

    def statfs(self) -> StatFs:
        if self.quota_bytes is not None:
            used = self.store.used_bytes()
            return StatFs(self.quota_bytes, max(0, self.quota_bytes - used))
        return StatFs(*self.store.capacity())

    def _charge_quota(self, nbytes: int) -> None:
        """Refuse a write that would push usage over the quota.

        O(1): stores maintain their usage counter incrementally (the
        first call may trigger a one-time startup scan).
        """
        if self.quota_bytes is None or nbytes == 0:
            return
        with self._lock:
            if self.store.used_bytes() + nbytes > self.quota_bytes:
                raise NoSpaceError("quota exceeded")
