"""Backend-conformance battery: one contract, three storage resources.

Every test in ``TestStoreConformance`` runs against the local, memory
and CAS stores through the same :class:`~repro.chirp.backend.Backend`
the server uses -- the executable form of the paper's claim that the
abstraction is independent of the resource serving it.  Each store is
also exercised wrapped in the disk-fault injector with an empty fault
plan (``faulty+<kind>``), pinning down that the decorator is fully
transparent when no fault fires.  CAS-specific invariants (dedup
refcounts, immutability, GC, scrub) follow in their own class.
"""

from __future__ import annotations

import getpass
import os
import stat
import sys
import threading

import pytest

from repro.chirp.backend import Backend
from repro.chirp.protocol import OpenFlags
from repro.store import make_store
from repro.store.cas import EMPTY_KEY, CasStore
from repro.store.localdir import LocalDirStore
from repro.util import errors as E
from repro.util.checksum import data_checksum

OWNER = f"unix:{getpass.getuser()}"

STORE_KINDS = ("local", "memory", "cas")
# The same battery over FaultyStore(plan with no faults) wrapping each
# store: the injector must be invisible until a fault is scripted.
ALL_KINDS = STORE_KINDS + tuple("faulty+" + kind for kind in STORE_KINDS)


def _make_backend(kind: str, tmp_path, **kwargs) -> Backend:
    root = tmp_path / f"store-{kind}"
    root.mkdir(exist_ok=True)
    return Backend(make_store(kind, str(root)), OWNER, **kwargs)


@pytest.fixture(params=ALL_KINDS)
def backend(request, tmp_path) -> Backend:
    return _make_backend(request.param, tmp_path)


def write_file(backend, path, data, mode=0o644):
    flags = OpenFlags(write=True, create=True, truncate=True)
    h = backend.open(OWNER, path, flags, mode)
    backend.pwrite(h, data, 0)
    backend.close(h)


def read_file(backend, path):
    h = backend.open(OWNER, path, OpenFlags(read=True), 0)
    out = b""
    while True:
        chunk = backend.pread(h, 1 << 16, len(out))
        if not chunk:
            break
        out += chunk
    backend.close(h)
    return out


class TestStoreConformance:
    def test_write_read_roundtrip(self, backend):
        write_file(backend, "/f.txt", b"hello store")
        assert read_file(backend, "/f.txt") == b"hello store"

    def test_pwrite_at_offset_into_existing_file(self, backend):
        write_file(backend, "/f", b"aaaaaaaa")
        h = backend.open(OWNER, "/f", OpenFlags(write=True), 0o644)
        backend.pwrite(h, b"BB", 3)
        backend.close(h)
        assert read_file(backend, "/f") == b"aaaBBaaa"

    def test_append_flag_writes_at_end(self, backend):
        write_file(backend, "/log", b"one")
        h = backend.open(OWNER, "/log", OpenFlags(write=True, append=True), 0o644)
        backend.pwrite(h, b"two", 0)
        backend.close(h)
        assert read_file(backend, "/log") == b"onetwo"

    def test_zero_length_write_past_eof_is_a_noop(self, backend):
        # POSIX: pwrite(fd, "", 0) never extends the file, at any offset.
        write_file(backend, "/f", b"")
        h = backend.open(OWNER, "/f", OpenFlags(write=True), 0o644)
        assert backend.pwrite(h, b"", 5) == 0
        backend.close(h)
        assert backend.stat(OWNER, "/f").size == 0
        assert read_file(backend, "/f") == b""

    def test_sparse_write_zero_fills(self, backend):
        h = backend.open(
            OWNER, "/sparse", OpenFlags(write=True, create=True), 0o644
        )
        backend.pwrite(h, b"x", 4)
        backend.close(h)
        assert read_file(backend, "/sparse") == b"\x00\x00\x00\x00x"

    def test_exclusive_create_refuses_existing(self, backend):
        write_file(backend, "/f", b"x")
        flags = OpenFlags(write=True, create=True, exclusive=True)
        with pytest.raises(E.AlreadyExistsError):
            backend.open(OWNER, "/f", flags, 0o644)

    def test_truncate_flag_wipes_content(self, backend):
        write_file(backend, "/f", b"long content here")
        h = backend.open(
            OWNER, "/f", OpenFlags(write=True, truncate=True), 0o644
        )
        backend.close(h)
        assert read_file(backend, "/f") == b""

    def test_open_missing_without_create_fails(self, backend):
        with pytest.raises(E.DoesNotExistError):
            backend.open(OWNER, "/nope", OpenFlags(read=True), 0)
        with pytest.raises(E.DoesNotExistError):
            backend.open(OWNER, "/nope", OpenFlags(write=True), 0o644)

    def test_open_directory_fails(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        with pytest.raises(E.IsADirectoryError_):
            backend.open(OWNER, "/d", OpenFlags(read=True), 0)

    def test_ftruncate_shrink_and_extend(self, backend):
        write_file(backend, "/f", b"0123456789")
        h = backend.open(
            OWNER, "/f", OpenFlags(read=True, write=True), 0o644
        )
        backend.ftruncate(h, 4)
        assert backend.fstat(h).size == 4
        backend.ftruncate(h, 6)
        backend.close(h)
        assert read_file(backend, "/f") == b"0123\x00\x00"

    def test_fstat_reports_size(self, backend):
        write_file(backend, "/f", b"12345")
        h = backend.open(OWNER, "/f", OpenFlags(read=True), 0)
        assert backend.fstat(h).size == 5
        backend.close(h)

    def test_bad_handle_operations_raise(self, backend):
        with pytest.raises((E.BadFileDescriptorError, E.ChirpError)):
            backend.close(999999)
        with pytest.raises((E.BadFileDescriptorError, E.ChirpError)):
            backend.pread(999999, 10, 0)

    def test_stat_file_and_directory(self, backend):
        write_file(backend, "/f", b"abc")
        backend.mkdir(OWNER, "/d", 0o755)
        assert backend.stat(OWNER, "/f").size == 3
        assert not backend.stat(OWNER, "/f").is_dir
        assert backend.stat(OWNER, "/d").is_dir
        with pytest.raises(E.DoesNotExistError):
            backend.stat(OWNER, "/missing")

    def test_unlink(self, backend):
        write_file(backend, "/f", b"x")
        backend.unlink(OWNER, "/f")
        with pytest.raises(E.DoesNotExistError):
            backend.stat(OWNER, "/f")
        with pytest.raises(E.DoesNotExistError):
            backend.unlink(OWNER, "/f")

    def test_rename_and_clobber(self, backend):
        write_file(backend, "/a", b"aaa")
        write_file(backend, "/b", b"bbb")
        backend.rename(OWNER, "/a", "/b")
        assert read_file(backend, "/b") == b"aaa"
        with pytest.raises(E.DoesNotExistError):
            backend.stat(OWNER, "/a")

    def test_rename_onto_itself_keeps_content(self, backend):
        write_file(backend, "/a", b"stay")
        backend.rename(OWNER, "/a", "/a")
        assert read_file(backend, "/a") == b"stay"

    def test_rename_onto_itself_changes_nothing(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        write_file(backend, "/d/f", b"stay")
        used = backend.store.used_bytes()
        backend.rename(OWNER, "/d/f", "/d/f")
        backend.rename(OWNER, "/d", "/d")
        assert backend.getdir(OWNER, "/d") == ["f"]
        assert read_file(backend, "/d/f") == b"stay"
        assert backend.store.used_bytes() == used

    @pytest.mark.parametrize("kind", ["local", "cas"])
    def test_rename_onto_a_hard_link_to_itself_changes_nothing(self, tmp_path, kind):
        backend = _make_backend(kind, tmp_path)
        store = backend.store
        write_file(backend, "/a", b"stay")
        # A second name for the same file, made behind the server's back.
        os.link(store.resolve("/a").real, store.resolve("/b").real)
        used = store.used_bytes()
        backend.rename(OWNER, "/a", "/b")
        assert sorted(backend.getdir(OWNER, "/")) == ["a", "b"]
        assert read_file(backend, "/a") == read_file(backend, "/b") == b"stay"
        assert store.used_bytes() == used

    def test_rename_into_subdirectory(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        write_file(backend, "/f", b"move me")
        backend.rename(OWNER, "/f", "/d/f")
        assert read_file(backend, "/d/f") == b"move me"

    def test_rename_into_own_subtree_is_refused(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        backend.mkdir(OWNER, "/d/sub", 0o755)
        write_file(backend, "/d/f", b"keep me")
        used = backend.store.used_bytes()
        for target in ("/d/sub", "/d/sub/deeper", "/d/new"):
            with pytest.raises(E.InvalidRequestError):
                backend.rename(OWNER, "/d", target)
        assert read_file(backend, "/d/f") == b"keep me"
        assert backend.getdir(OWNER, "/d") == ["f", "sub"]
        assert backend.store.used_bytes() == used

    def test_mkdir_rmdir(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        with pytest.raises(E.AlreadyExistsError):
            backend.mkdir(OWNER, "/d", 0o755)
        backend.rmdir(OWNER, "/d")
        with pytest.raises(E.DoesNotExistError):
            backend.stat(OWNER, "/d")

    def test_rmdir_refuses_nonempty(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        write_file(backend, "/d/f", b"x")
        with pytest.raises(E.NotEmptyError):
            backend.rmdir(OWNER, "/d")

    def test_getdir_sorted_and_hides_acl(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        write_file(backend, "/d/zeta", b"1")
        write_file(backend, "/d/alpha", b"2")
        backend.setacl(OWNER, "/d", "unix:visitor", "rl")
        assert backend.getdir(OWNER, "/d") == ["alpha", "zeta"]

    def test_truncate_by_path(self, backend):
        write_file(backend, "/f", b"0123456789")
        backend.truncate(OWNER, "/f", 3)
        assert read_file(backend, "/f") == b"012"
        backend.truncate(OWNER, "/f", 5)
        assert read_file(backend, "/f") == b"012\x00\x00"

    def test_utime_roundtrip(self, backend):
        write_file(backend, "/f", b"x")
        backend.utime(OWNER, "/f", 1_000_000, 2_000_000)
        st = backend.stat(OWNER, "/f")
        assert st.mtime == 2_000_000

    def test_checksum_matches_content(self, backend):
        payload = b"checksum me" * 100
        write_file(backend, "/f", payload)
        assert backend.checksum(OWNER, "/f") == data_checksum(payload)

    def test_acl_files_are_hidden_and_forbidden(self, backend):
        with pytest.raises(E.NotAuthorizedError):
            backend.open(OWNER, "/.__acl", OpenFlags(read=True), 0)
        with pytest.raises(E.NotAuthorizedError):
            backend.unlink(OWNER, "/.__acl")

    def test_statfs_reports_capacity(self, backend):
        fs = backend.statfs()
        assert fs.total_bytes > 0

    def test_stat_read_small_file(self, backend):
        write_file(backend, "/f", b"stub bytes")
        write_file(backend, "/empty", b"")
        st, data = backend.stat_read(OWNER, "/f", 10)
        assert (st.is_file, st.size, data) == (True, 10, b"stub bytes")
        assert backend.stat_read(OWNER, "/empty", 0)[1] == b""

    def test_stat_read_withholds_what_it_may_not_return(self, backend):
        write_file(backend, "/big", b"x" * 100)
        backend.mkdir(OWNER, "/d", 0o755)
        st, data = backend.stat_read(OWNER, "/big", 99)
        assert (st.size, data) == (100, None)
        st, data = backend.stat_read(OWNER, "/d", 4096)
        assert st.is_dir and data is None
        with pytest.raises(E.DoesNotExistError):
            backend.stat_read(OWNER, "/missing", 4096)
        with pytest.raises(E.NotAuthorizedError):
            backend.stat_read(OWNER, "/.__acl", 4096)

    def test_stat_read_content_needs_r(self, backend):
        write_file(backend, "/f", b"secret")
        with pytest.raises(E.NotAuthorizedError):
            backend.stat_read("unix:visitor", "/f", 4096)
        backend.setacl(OWNER, "/", "unix:visitor", "l")
        st, data = backend.stat_read("unix:visitor", "/f", 4096)
        assert (st.size, data) == (6, None)
        backend.setacl(OWNER, "/", "unix:visitor", "rl")
        assert backend.stat_read("unix:visitor", "/f", 4096)[1] == b"secret"

    def test_second_close_is_a_noop(self, backend):
        # A second close must not release an fd number the kernel has
        # since handed to another open file.
        write_file(backend, "/a", b"aaa")
        write_file(backend, "/b", b"bbb")
        for flags in (OpenFlags(read=True), OpenFlags(write=True)):
            first = backend.open(OWNER, "/a", flags, 0o644)
            backend.close(first)
            second = backend.open(OWNER, "/b", OpenFlags(read=True), 0)
            backend.close(first)
            assert backend.pread(second, 3, 0) == b"bbb"
            backend.close(second)
        assert read_file(backend, "/a") == b"aaa"

    @pytest.mark.parametrize(
        "flags", [OpenFlags(read=True), OpenFlags(write=True)], ids=["read", "write"]
    )
    def test_closed_handle_refuses_every_data_call(self, backend, flags):
        # A closed handle must fail, not reach the file that the kernel
        # gave its old fd number to (``/b``, opened right after).
        store = backend.store
        store.write_blob("/a", b"aaa")
        store.write_blob("/b", b"bbb")
        handle = store.open("/a", flags, 0o644)
        handle.close()
        other = store.open("/b", OpenFlags(read=True, write=True), 0o644)
        calls = {
            "pread": lambda: handle.pread(3, 0),
            "pwrite": lambda: handle.pwrite(b"x", 0),
            "fsync": handle.fsync,
            "fstat": handle.fstat,
            "ftruncate": lambda: handle.ftruncate(0),
        }
        try:
            for name, call in calls.items():
                with pytest.raises(E.BadFileDescriptorError):
                    call()
        finally:
            other.close()
        assert read_file(backend, "/a") == b"aaa"
        assert read_file(backend, "/b") == b"bbb"


class TestQuotaConformance:
    @pytest.fixture(params=ALL_KINDS)
    def quota_backend(self, request, tmp_path) -> Backend:
        return _make_backend(request.param, tmp_path, quota_bytes=10_000)

    def test_pwrite_over_quota_fails(self, quota_backend):
        h = quota_backend.open(
            OWNER, "/big", OpenFlags(write=True, create=True), 0o644
        )
        with pytest.raises(E.NoSpaceError):
            quota_backend.pwrite(h, b"x" * 11_000, 0)
        quota_backend.close(h)

    def test_quota_charge_reflects_usage(self, quota_backend):
        write_file(quota_backend, "/f", b"x" * 4_000)
        quota_backend._charge_quota(1_000)  # still fits
        with pytest.raises(E.NoSpaceError):
            quota_backend._charge_quota(7_000)

    def test_statfs_tracks_quota_usage(self, quota_backend):
        write_file(quota_backend, "/f", b"x" * 4_000)
        fs = quota_backend.statfs()
        assert fs.total_bytes == 10_000
        assert fs.free_bytes <= 6_100

    def test_refused_put_open_touches_nothing(self, quota_backend):
        # The quota charge of a whole-file put is checked before the open:
        # a refused put creates nothing and truncates nothing.
        write_file(quota_backend, "/keep", b"x" * 10)
        flags = OpenFlags(write=True, create=True, truncate=True)
        for path in ("/keep", "/new"):
            with pytest.raises(E.NoSpaceError):
                quota_backend.open(OWNER, path, flags, 0o644, charge=20_000)
        assert read_file(quota_backend, "/keep") == b"x" * 10
        with pytest.raises(E.DoesNotExistError):
            quota_backend.stat(OWNER, "/new")

    def test_unlink_releases_quota(self, quota_backend):
        write_file(quota_backend, "/f", b"x" * 9_000)
        with pytest.raises(E.NoSpaceError):
            quota_backend._charge_quota(5_000)
        quota_backend.unlink(OWNER, "/f")
        quota_backend._charge_quota(5_000)  # freed


class TestLocalStatRead:
    def test_fifo_is_stated_never_read(self, tmp_path):
        root = tmp_path / "export"
        root.mkdir()
        fifo = root / "pipe"
        os.mkfifo(fifo)
        backend = Backend(LocalDirStore(str(root)), OWNER)
        box = {}
        t = threading.Thread(
            target=lambda: box.update(result=backend.stat_read(OWNER, "/pipe", 4096)),
            daemon=True,
        )
        t.start()
        t.join(5.0)
        blocked = t.is_alive()
        if blocked:  # release the reader a blocking open would wait for
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            t.join(5.0)
        assert not blocked
        st, data = box["result"]
        assert stat.S_ISFIFO(st.mode) and data is None


class TestFilenoCapability:
    """``FileHandle.fileno()``: an fd holding exactly the handle's bytes
    (the server ``sendfile``s from it), or None where none may be used."""

    PAYLOAD = bytes(range(256)) * 300 + b"tail"

    @pytest.mark.parametrize("kind", ["local", "cas"])
    def test_read_handle_fd_holds_the_handle_bytes(self, tmp_path, kind):
        store = _make_backend(kind, tmp_path).store
        store.write_blob("/f", self.PAYLOAD)
        with store.open("/f", OpenFlags(read=True), 0) as h:
            fd = h.fileno()
            assert isinstance(fd, int)
            size = len(self.PAYLOAD)
            assert os.pread(fd, size + 1, 0) == h.pread(size + 1, 0) == self.PAYLOAD
            assert os.pread(fd, 100, 1000) == h.pread(100, 1000)

    @pytest.mark.parametrize("kind", ["memory"] + ["faulty+" + k for k in STORE_KINDS])
    def test_no_fd_on_read_handles(self, tmp_path, kind):
        # faulty+* must hide the inner fd, or a kernel send would bypass
        # injected read faults.
        store = _make_backend(kind, tmp_path).store
        store.write_blob("/f", self.PAYLOAD)
        with store.open("/f", OpenFlags(read=True), 0) as h:
            assert h.fileno() is None

    def test_no_fd_on_cas_write_handles(self, tmp_path):
        store = _make_backend("cas", tmp_path).store
        flags = OpenFlags(read=True, write=True, create=True)
        with store.open("/f", flags, 0o644) as h:
            h.pwrite(b"spooled", 0)
            assert h.fileno() is None


class TestExclusiveCreate:
    """Exclusive create is the uniqueness primitive DSFS's crash-safe
    create rests on: of two racing ``wcx`` opens of one new path,
    exactly one may succeed."""

    WCX = OpenFlags(write=True, create=True, exclusive=True)

    @pytest.mark.parametrize("kind", ["local", "cas"])
    def test_racing_exclusive_creates_have_one_winner(self, tmp_path, kind):
        store = _make_backend(kind, tmp_path).store
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(200):
                path = f"/race{trial}"
                barrier = threading.Barrier(2, timeout=10)
                handles, refused = [], []

                def create():
                    barrier.wait()
                    try:
                        handles.append(store.open(path, self.WCX, 0o644))
                    except E.AlreadyExistsError as exc:
                        refused.append(exc)

                threads = [threading.Thread(target=create) for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(10)
                    assert not t.is_alive()
                assert (len(handles), len(refused)) == (1, 1), f"trial {trial}"
                handles[0].close()
        finally:
            sys.setswitchinterval(interval)


class TestCasInvariants:
    @pytest.fixture()
    def store(self, tmp_path) -> CasStore:
        root = tmp_path / "cas"
        root.mkdir()
        return CasStore(str(root))

    def test_dedup_same_content_one_blob_refcount_two(self, store):
        store.write_blob("/a", b"shared content")
        store.write_blob("/b", b"shared content")
        key = store.key_of("/a")
        assert store.key_of("/b") == key
        assert store.refcount(key) == 2
        # exactly one object backs both paths (the empty blob each
        # create/truncate open binds first is implicit: no object file)
        assert store.object_count() == 1

    def test_unreferenced_blobs_are_garbage_collected(self, store):
        store.write_blob("/a", b"doomed")
        store.write_blob("/b", b"doomed")
        key = store.key_of("/a")
        store.unlink("/a")
        assert store.refcount(key) == 1
        assert store.lookup_key(key)
        store.unlink("/b")
        assert store.refcount(key) == 0
        assert not store.lookup_key(key)
        assert store.object_count() == 0

    def test_objects_are_immutable(self, store):
        store.write_blob("/a", b"version one")
        store.write_blob("/b", b"version one")
        key = store.key_of("/a")
        obj = store._object_path(key)
        # sealed objects are read-only on disk
        assert not os.access(obj, os.W_OK) or os.getuid() == 0
        assert (os.stat(obj).st_mode & 0o222) == 0
        # rewriting one path must not disturb the other's content
        store.write_blob("/a", b"version two")
        assert store.read_blob("/b") == b"version one"
        assert store.refcount(key) == 1

    def test_rewrite_releases_old_key(self, store):
        store.write_blob("/a", b"old")
        old_key = store.key_of("/a")
        store.write_blob("/a", b"new")
        assert store.refcount(old_key) == 0
        assert not store.lookup_key(old_key)

    def test_rename_clobber_releases_target_key(self, store):
        store.write_blob("/a", b"kept")
        store.write_blob("/b", b"clobbered")
        doomed = store.key_of("/b")
        store.rename("/a", "/b")
        assert store.refcount(doomed) == 0
        assert store.read_blob("/b") == b"kept"

    def test_link_key_copy_by_reference(self, store):
        store.write_blob("/orig", b"linked content")
        key = store.key_of("/orig")
        size = store.link_key("/copy", key)
        assert size == len(b"linked content")
        assert store.read_blob("/copy") == b"linked content"
        assert store.refcount(key) == 2
        assert store.object_count() == 1

    def test_link_key_missing_key_raises(self, store):
        with pytest.raises(E.DoesNotExistError):
            store.link_key("/copy", "0" * 40)

    def test_lookup_and_keyof(self, store):
        assert not store.lookup_key(data_checksum(b"payload"))
        store.write_blob("/f", b"payload")
        key = data_checksum(b"payload")
        assert store.lookup_key(key)
        assert store.key_of("/f") == key
        assert store.checksum("/f") == key

    def test_non_cas_stores_refuse_cas_surface(self, tmp_path):
        for kind in ("local", "memory"):
            s = make_store(kind, str(tmp_path))
            with pytest.raises(E.InvalidRequestError):
                s.lookup_key("0" * 40)
            with pytest.raises(E.InvalidRequestError):
                s.link_key("/x", "0" * 40)
            with pytest.raises(E.InvalidRequestError):
                s.key_of("/x")

    def test_refcounts_rebuilt_on_restart(self, store):
        store.write_blob("/a", b"persisted")
        store.write_blob("/b", b"persisted")
        key = store.key_of("/a")
        reopened = CasStore(store.root)
        assert reopened.refcount(key) == 2
        assert reopened.used_bytes() == len(b"persisted")

    def test_scrub_detects_and_quarantines_bitrot(self, store):
        store.write_blob("/f", b"precious data")
        key = store.key_of("/f")
        obj = store._object_path(key)
        os.chmod(obj, 0o644)
        with open(obj, "wb") as fh:
            fh.write(b"bit rot")
        report = store.scrub()
        assert report["corrupt"] == [key]
        report = store.scrub(quarantine=True)
        assert report["quarantined"] == [key]
        assert not os.path.exists(obj)
        assert os.path.exists(os.path.join(store.quarantine_root, key))

    def test_scrub_clean_store(self, store):
        store.write_blob("/f", b"fine")
        report = store.scrub()
        assert report["corrupt"] == []
        assert report["ok"] == report["objects"] == 1

    def test_counters_snapshot(self, store):
        store.write_blob("/a", b"counted")
        store.write_blob("/b", b"counted")
        snap = store.snapshot()
        assert snap["kind"] == "cas"
        assert snap["dedup_hits"] >= 1
        assert snap["objects_ingested"] >= 1
        assert snap["used_bytes"] == len(b"counted")

    def test_empty_blob_is_implicit(self, store):
        store.write_blob("/e", b"")
        with store.open("/t", OpenFlags(write=True, create=True, truncate=True), 0o644):
            pass
        assert EMPTY_KEY == data_checksum(b"")
        for path in ("/e", "/t"):
            assert store.read_blob(path) == b""
            assert store.checksum(path) == store.key_of(path) == EMPTY_KEY
        assert store.lookup_key(EMPTY_KEY)
        assert store.link_key("/linked", EMPTY_KEY) == 0
        assert store.read_blob("/linked") == b""
        # no object file backs it, so neither counting nor scrub sees it
        assert store.object_count() == 0
        report = store.scrub()
        assert report["objects"] == 0 and report["orphans"] == []
        for path in ("/e", "/t", "/linked"):
            store.unlink(path)
        assert store.lookup_key(EMPTY_KEY)

    def test_truncating_open_keeps_the_old_blob_until_the_seal(self, store):
        # The truncating open's empty pointer is not durable, so the
        # content it unbinds must outlive it until the seal's pointer is.
        store.write_blob("/f", b"old content")
        old = store.key_of("/f")
        handle = store.open("/f", OpenFlags(write=True, truncate=True), 0o644)
        assert store.read_blob("/f") == b""  # visible at once
        assert store.lookup_key(old)
        handle.pwrite(b"new", 0)
        handle.close()
        assert store.read_blob("/f") == b"new"
        assert store.refcount(old) == 0
        assert not store.lookup_key(old)

    def test_acked_put_survives_a_fresh_store(self, store):
        store.write_blob("/a", b"acked bytes")
        store.write_blob("/b", b"acked bytes")
        store.write_blob("/e", b"")
        key = store.key_of("/a")
        reopened = CasStore(store.root)
        assert reopened.read_blob("/a") == reopened.read_blob("/b") == b"acked bytes"
        assert reopened.read_blob("/e") == b""
        assert reopened.refcount(key) == 2
        assert reopened.refcount(EMPTY_KEY) == 1
        assert reopened.used_bytes() == len(b"acked bytes")
        assert reopened.scrub()["corrupt"] == []


class TestCasFsyncLedger:
    """What a put costs the disk, from the store's own counters.

    A new blob's floor is four fsyncs, in this order: the object, its
    shard directory (the object's name), the pointer, its namespace
    directory (the pointer's name).  A dedup hit skips the first two.
    A create/truncate open makes the file visible, not durable.
    """

    WCT = OpenFlags(write=True, create=True, truncate=True)

    @pytest.fixture()
    def store(self, tmp_path) -> CasStore:
        root = tmp_path / "cas"
        root.mkdir()
        store = CasStore(str(root))
        store.mkdir("/d", 0o755)
        return store

    def put(self, store, path, data):
        with store.open(path, self.WCT, 0o644) as handle:
            handle.pwrite(data, 0)

    def cost(self, store, op) -> dict:
        before = store.snapshot()
        op()
        after = store.snapshot()
        return {k: after[k] - before[k] for k in ("fsyncs", "files_created")}

    @staticmethod
    def same_shard(data: bytes) -> bytes:
        """Other content whose object lands in ``data``'s shard."""
        shard = data_checksum(data)[:2]
        i = 0
        while data_checksum(b"%d" % i)[:2] != shard:
            i += 1
        return b"%d" % i

    def test_counters_start_at_zero(self, tmp_path):
        snap = CasStore(str(tmp_path)).snapshot()
        assert snap["fsyncs"] == snap["files_created"] == 0

    def test_new_put_pays_the_floor(self, store):
        first = b"x" * 16384
        # The first object in a shard also makes the shard's own name
        # durable: once per shard, one fsync of objects/.
        assert self.cost(store, lambda: self.put(store, "/d/a", first))["fsyncs"] == 5
        cost = self.cost(store, lambda: self.put(store, "/d/b", self.same_shard(first)))
        assert cost["fsyncs"] <= 4
        assert cost["files_created"] <= 3

    def test_dedup_put_skips_the_object(self, store):
        self.put(store, "/d/a", b"y" * 16384)
        cost = self.cost(store, lambda: self.put(store, "/d/b", b"y" * 16384))
        assert cost["fsyncs"] <= 2
        assert store.snapshot()["dedup_hits"] == 1

    def test_create_and_truncate_opens_do_not_fsync(self, store):
        self.put(store, "/d/old", b"z" * 100)
        for path in ("/d/new", "/d/old"):
            handle = None

            def open_it():
                nonlocal handle
                handle = store.open(path, self.WCT, 0o644)

            assert self.cost(store, open_it)["fsyncs"] == 0
            handle.close()
