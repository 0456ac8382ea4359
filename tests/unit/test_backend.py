"""Unit tests for the file server backend: confinement + ACL enforcement.

These drive :class:`Backend` directly (no sockets), mostly over a local
directory store, so every permission rule from the paper's section 4 is
pinned down precisely.
"""

import os
import time
from types import SimpleNamespace

import pytest

from repro.auth.acl import ACL_FILE_NAME, Acl
from repro.auth.methods import ClientCredentials
from repro.chirp.backend import Backend
from repro.chirp.client import ChirpClient
from repro.chirp.protocol import OpenFlags
from repro.store import LocalDirStore, make_store
from repro.store.interface import stat_stamp
from repro.util import errors as E

OWNER = "unix:owner"
ALICE = "hostname:alice.cse.nd.edu"
BOB = "globus:/O=ND/CN=bob"

R = OpenFlags(read=True)
W = OpenFlags(write=True, create=True)
WX = OpenFlags(write=True, create=True, exclusive=True)


@pytest.fixture()
def backend(tmp_path):
    return Backend(LocalDirStore(str(tmp_path)), OWNER)


def write(backend, subject, path, data):
    fd = backend.open(subject, path, W, 0o644)
    try:
        backend.pwrite(fd, data, 0)
    finally:
        backend.close(fd)


def read(backend, subject, path):
    fd = backend.open(subject, path, R, 0)
    try:
        return backend.pread(fd, 1 << 20, 0)
    finally:
        backend.close(fd)


class TestBasicIO:
    def test_write_then_read(self, backend):
        write(backend, OWNER, "/f.txt", b"hello")
        assert read(backend, OWNER, "/f.txt") == b"hello"

    def test_pread_with_offset(self, backend):
        write(backend, OWNER, "/f", b"0123456789")
        fd = backend.open(OWNER, "/f", R, 0)
        assert backend.pread(fd, 3, 4) == b"456"
        backend.close(fd)

    def test_pwrite_with_offset(self, backend):
        write(backend, OWNER, "/f", b"aaaaaaaa")
        fd = backend.open(OWNER, "/f", OpenFlags(write=True), 0)
        backend.pwrite(fd, b"BB", 3)
        backend.close(fd)
        assert read(backend, OWNER, "/f") == b"aaaBBaaa"

    def test_exclusive_create_conflicts(self, backend):
        fd = backend.open(OWNER, "/x", WX, 0o644)
        backend.close(fd)
        with pytest.raises(E.AlreadyExistsError):
            backend.open(OWNER, "/x", WX, 0o644)

    def test_open_missing_file(self, backend):
        with pytest.raises(E.DoesNotExistError):
            backend.open(OWNER, "/missing", R, 0)

    def test_open_directory_rejected(self, backend):
        backend.mkdir(OWNER, "/d", 0o755)
        with pytest.raises(E.IsADirectoryError_):
            backend.open(OWNER, "/d", R, 0)

    def test_fstat_and_ftruncate(self, backend):
        write(backend, OWNER, "/f", b"0123456789")
        fd = backend.open(OWNER, "/f", OpenFlags(read=True, write=True), 0)
        assert backend.fstat(fd).size == 10
        backend.ftruncate(fd, 4)
        assert backend.fstat(fd).size == 4
        backend.close(fd)

    def test_bad_fd_operations(self, backend):
        with pytest.raises((E.BadFileDescriptorError, E.ChirpError)):
            backend.close(999999)

    def test_negative_pread_rejected(self, backend):
        write(backend, OWNER, "/f", b"x")
        fd = backend.open(OWNER, "/f", R, 0)
        with pytest.raises(E.InvalidRequestError):
            backend.pread(fd, -1, 0)
        backend.close(fd)


class TestNamespace:
    def test_mkdir_listdir_rmdir(self, backend):
        backend.mkdir(OWNER, "/sub", 0o755)
        write(backend, OWNER, "/sub/a", b"1")
        assert backend.getdir(OWNER, "/") == ["sub"]
        assert backend.getdir(OWNER, "/sub") == ["a"]
        backend.unlink(OWNER, "/sub/a")
        backend.rmdir(OWNER, "/sub")
        assert backend.getdir(OWNER, "/") == []

    def test_rmdir_non_empty_fails(self, backend):
        backend.mkdir(OWNER, "/sub", 0o755)
        write(backend, OWNER, "/sub/a", b"1")
        with pytest.raises(E.NotEmptyError):
            backend.rmdir(OWNER, "/sub")

    def test_rmdir_with_only_acl_file_succeeds(self, backend, tmp_path):
        backend.mkdir(OWNER, "/sub", 0o755)
        backend.setacl(OWNER, "/sub", ALICE, "rwl")  # materializes the ACL file
        assert os.path.exists(str(tmp_path / "sub" / ACL_FILE_NAME))
        backend.rmdir(OWNER, "/sub")
        assert backend.getdir(OWNER, "/") == []

    def test_rename(self, backend):
        write(backend, OWNER, "/a", b"1")
        backend.rename(OWNER, "/a", "/b")
        assert read(backend, OWNER, "/b") == b"1"
        with pytest.raises(E.DoesNotExistError):
            backend.stat(OWNER, "/a")

    def test_rename_root_rejected(self, backend):
        with pytest.raises(E.InvalidRequestError):
            backend.rename(OWNER, "/", "/x")

    def test_stat_and_access(self, backend):
        write(backend, OWNER, "/f", b"abcd")
        st = backend.stat(OWNER, "/f")
        assert st.size == 4 and st.is_file
        backend.access(OWNER, "/f", "rl")
        with pytest.raises(E.DoesNotExistError):
            backend.access(OWNER, "/nope", "r")

    def test_truncate_and_utime(self, backend):
        write(backend, OWNER, "/f", b"0123456789")
        backend.truncate(OWNER, "/f", 3)
        assert backend.stat(OWNER, "/f").size == 3
        backend.utime(OWNER, "/f", 1000, 2000)
        st = backend.stat(OWNER, "/f")
        assert (st.atime, st.mtime) == (1000, 2000)

    def test_checksum(self, backend):
        from repro.util.checksum import data_checksum

        write(backend, OWNER, "/f", b"payload")
        assert backend.checksum(OWNER, "/f") == data_checksum(b"payload")

    def test_getdir_hides_acl_file(self, backend):
        write(backend, OWNER, "/visible", b"1")
        names = backend.getdir(OWNER, "/")
        assert ACL_FILE_NAME not in names
        assert "visible" in names

    def test_acl_file_not_directly_accessible(self, backend):
        for op in (
            lambda: backend.open(OWNER, "/" + ACL_FILE_NAME, R, 0),
            lambda: backend.stat(OWNER, "/" + ACL_FILE_NAME),
            lambda: backend.unlink(OWNER, "/" + ACL_FILE_NAME),
            lambda: backend.rename(OWNER, "/" + ACL_FILE_NAME, "/x"),
        ):
            with pytest.raises(E.NotAuthorizedError):
                op()

    def test_path_escape_is_confined(self, backend, tmp_path):
        # '..' clamps at the export root rather than escaping it.
        write(backend, OWNER, "/../../evil", b"x")
        assert os.path.exists(str(tmp_path / "evil"))


class TestAclEnforcement:
    @pytest.fixture()
    def shared(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER)
        backend.setacl(OWNER, "/", "hostname:*.cse.nd.edu", "rwl")
        backend.setacl(OWNER, "/", "globus:/O=ND/*", "rl")
        return backend

    def test_reader_writer_can_write(self, shared):
        write(shared, ALICE, "/a.txt", b"1")
        assert read(shared, ALICE, "/a.txt") == b"1"

    def test_read_only_subject_cannot_write(self, shared):
        with pytest.raises(E.NotAuthorizedError):
            write(shared, BOB, "/b.txt", b"1")

    def test_read_only_subject_can_read_and_list(self, shared):
        write(shared, ALICE, "/a.txt", b"1")
        assert read(shared, BOB, "/a.txt") == b"1"
        assert shared.getdir(BOB, "/") == ["a.txt"]

    def test_stranger_gets_nothing(self, shared):
        with pytest.raises(E.NotAuthorizedError):
            shared.getdir("unix:mallory", "/")
        with pytest.raises(E.NotAuthorizedError):
            read(shared, "unix:mallory", "/a.txt")

    def test_owner_always_retains_access(self, shared):
        """The owner of a file server retains access to all data."""
        write(shared, ALICE, "/a.txt", b"1")
        assert read(shared, OWNER, "/a.txt") == b"1"
        shared.unlink(OWNER, "/a.txt")  # owner may evict any data

    def test_delete_needs_w_or_d(self, shared):
        write(shared, ALICE, "/a.txt", b"1")
        with pytest.raises(E.NotAuthorizedError):
            shared.unlink(BOB, "/a.txt")  # bob holds only rl
        shared.unlink(ALICE, "/a.txt")  # alice holds w

    def test_d_right_alone_allows_delete_but_not_write(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER)
        backend.setacl(OWNER, "/", "unix:janitor", "ld")
        write(backend, OWNER, "/junk", b"1")
        with pytest.raises(E.NotAuthorizedError):
            write(backend, "unix:janitor", "/new", b"1")
        backend.unlink("unix:janitor", "/junk")

    def test_getacl_needs_l(self, shared):
        assert shared.getacl(ALICE, "/").check("globus:/O=ND/*", "r")
        with pytest.raises(E.NotAuthorizedError):
            shared.getacl("unix:mallory", "/")

    def test_setacl_needs_a(self, shared):
        with pytest.raises(E.NotAuthorizedError):
            shared.setacl(ALICE, "/", ALICE, "rwla")

    def test_subdirectory_inherits_acl_dynamically(self, shared):
        shared.mkdir(ALICE, "/sub", 0o755)
        write(shared, ALICE, "/sub/f", b"1")
        assert read(shared, BOB, "/sub/f") == b"1"
        # Tightening the parent later affects the child too (inheritance
        # is dynamic until the child gets its own ACL).
        shared.setacl(OWNER, "/", "globus:/O=ND/*", "none")
        with pytest.raises(E.NotAuthorizedError):
            read(shared, BOB, "/sub/f")

    def test_setacl_copy_on_write_scopes_to_subtree(self, shared):
        shared.mkdir(ALICE, "/sub", 0o755)
        shared.setacl(OWNER, "/sub", "unix:carol", "rwl")
        write(shared, "unix:carol", "/sub/c", b"1")
        with pytest.raises(E.NotAuthorizedError):
            write(shared, "unix:carol", "/c", b"1")  # root unchanged

    def test_rename_needs_rights_on_both_directories(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER)
        backend.mkdir(OWNER, "/src", 0o755)
        backend.mkdir(OWNER, "/dst", 0o755)
        backend.setacl(OWNER, "/src", ALICE, "rwl")
        # alice has no rights on /dst
        write(backend, ALICE, "/src/f", b"1")
        with pytest.raises(E.NotAuthorizedError):
            backend.rename(ALICE, "/src/f", "/dst/f")


class TestReserveRight:
    @pytest.fixture()
    def visitors(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER)
        backend.setacl(OWNER, "/", "hostname:*.cse.nd.edu", "v(rwl)")
        backend.setacl(OWNER, "/", "globus:/O=ND/*", "v(rwla)")
        return backend

    def test_paper_worked_example(self, visitors):
        """mkdir(/backup) by hostname:laptop... yields an ACL with exactly
        'hostname:laptop.cse.nd.edu rwl' (section 4)."""
        subject = "hostname:laptop.cse.nd.edu"
        visitors.mkdir(subject, "/backup", 0o755)
        acl = visitors.getacl(subject, "/backup")
        assert len(acl) == 1
        assert acl.rights_for(subject).flags == frozenset("rwl")

    def test_reserved_dir_is_private(self, visitors):
        visitors.mkdir(ALICE, "/mine", 0o755)
        write(visitors, ALICE, "/mine/f", b"1")
        with pytest.raises(E.NotAuthorizedError):
            read(visitors, "hostname:other.cse.nd.edu", "/mine/f")

    def test_visitor_without_a_cannot_extend_access(self, visitors):
        visitors.mkdir(ALICE, "/mine", 0o755)
        with pytest.raises(E.NotAuthorizedError):
            visitors.setacl(ALICE, "/mine", BOB, "rwl")

    def test_visitor_with_a_can_extend_access(self, visitors):
        visitors.mkdir(BOB, "/bobs", 0o755)
        visitors.setacl(BOB, "/bobs", ALICE, "rl")
        write(visitors, BOB, "/bobs/f", b"1")
        assert read(visitors, ALICE, "/bobs/f") == b"1"

    def test_v_without_w_cannot_create_files_at_top(self, visitors):
        with pytest.raises(E.NotAuthorizedError):
            write(visitors, ALICE, "/toplevel.txt", b"1")

    def test_no_rights_cannot_mkdir(self, visitors):
        with pytest.raises(E.NotAuthorizedError):
            visitors.mkdir("unix:mallory", "/nope", 0o755)

    def test_owner_mkdir_is_not_reserved(self, visitors, tmp_path):
        visitors.mkdir(OWNER, "/ownerdir", 0o755)
        assert not os.path.exists(str(tmp_path / "ownerdir" / ACL_FILE_NAME))


class TestQuota:
    def test_putfile_path_quota(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER, quota_bytes=10_000)
        write(backend, OWNER, "/small", b"x" * 1000)
        with pytest.raises(E.NoSpaceError):
            backend._charge_quota(20_000)
        backend._charge_quota(1_000)  # still room

    def test_statfs_reflects_quota(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER, quota_bytes=10_000)
        write(backend, OWNER, "/f", b"x" * 4_000)
        fs = backend.statfs()
        assert fs.total_bytes == 10_000
        assert fs.free_bytes <= 6_100  # ACL file consumes a few bytes too

    def test_statfs_without_quota_uses_statvfs(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER)
        fs = backend.statfs()
        assert fs.total_bytes > 0
        assert 0 <= fs.free_bytes <= fs.total_bytes

    def test_pwrite_respects_quota(self, tmp_path):
        backend = Backend(LocalDirStore(str(tmp_path)), OWNER, quota_bytes=5_000)
        fd = backend.open(OWNER, "/f", W, 0o644)
        with pytest.raises(E.NoSpaceError):
            backend.pwrite(fd, b"x" * 6_000, 0)
        backend.close(fd)


# ---------------------------------------------------------------------------
# ACL cache: parsed ACLs are kept per blob and re-validated by the store's
# stamp on every lookup.
# ---------------------------------------------------------------------------

#: longer than the stores' stamp settle window (20 ms): a blob left alone
#: this long gets a stamp the cache trusts
SETTLE_S = 0.05
CAROL = "unix:carol"


def count_acl_reads(store) -> list:
    reads: list = []
    inner = store.try_read_blob

    def counting(vpath):
        reads.append(vpath)
        return inner(vpath)

    store.try_read_blob = counting
    return reads


def blob_file(store, vpath: str) -> str:
    """The on-disk file holding ``vpath`` (a CAS store's pointer record)."""
    return store.resolve(vpath).real


def rewrite_in_place(store, vpath: str, old: str, new: str) -> None:
    """Edit an ACL behind the backend's back, keeping the file's inode,
    size and mtime: only the content (and the kernel's ctime) change."""
    text = store.read_blob(vpath).decode()
    assert old in text and len(old) == len(new)
    text = text.replace(old, new)
    if store.kind == "cas":
        # Same-length pointer record naming an object that holds ``text``.
        store.write_blob("/.oob", text.encode())
        with open(blob_file(store, "/.oob"), "rb") as fh:
            data = fh.read()
    else:
        data = text.encode()
    real = blob_file(store, vpath)
    before = os.stat(real)
    assert len(data) == before.st_size
    with open(real, "r+b") as fh:
        fh.write(data)
    os.utime(real, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(real)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns
    )


@pytest.fixture(params=["local", "cas"])
def stamped(request, tmp_path):
    return Backend(make_store(request.param, str(tmp_path)), OWNER)


class TestAclCache:
    def test_stamp_vouches_only_for_settled_changes(self):
        second = 1_000_000_000
        now = time.time_ns()

        def stamps_equal(ctime_ns):
            st = SimpleNamespace(st_ino=7, st_size=10, st_mtime_ns=ctime_ns, st_ctime_ns=ctime_ns)
            return stat_stamp(st) == stat_stamp(st)

        assert stamps_equal((now // second - 1) * second + 123)
        assert not stamps_equal(now - 1_000)  # same clock tick as now
        # Whole-second timestamps: the filesystem cannot tell apart two
        # changes within a second.
        assert not stamps_equal((now // second - 1) * second)
        assert stamps_equal((now // second - 3) * second)

    def test_settled_acl_is_not_reread(self, stamped):
        stamped.setacl(OWNER, "/", BOB, "rl")
        time.sleep(SETTLE_S)
        stamped.getdir(BOB, "/")
        reads = count_acl_reads(stamped.store)
        for _ in range(3):
            stamped.getdir(BOB, "/")
        assert reads == []

    @pytest.mark.parametrize("settled", [False, True], ids=["fresh", "settled"])
    def test_out_of_band_in_place_rewrite_is_seen(self, stamped, settled):
        stamped.mkdir(OWNER, "/d", 0o755)
        stamped.setacl(OWNER, "/d", ALICE, "rwl")
        if settled:
            time.sleep(SETTLE_S)
        assert stamped.getdir(ALICE, "/d") == []
        rewrite_in_place(stamped.store, "/d/" + ACL_FILE_NAME, f"{ALICE} rwl", f"{ALICE} rwd")
        with pytest.raises(E.NotAuthorizedError):
            stamped.getdir(ALICE, "/d")
        write(stamped, ALICE, "/d/f", b"1")  # w survived the edit

    def test_out_of_band_delete_falls_back_to_parent(self, stamped):
        stamped.setacl(OWNER, "/", BOB, "rl")
        stamped.mkdir(OWNER, "/d", 0o755)
        stamped.setacl(OWNER, "/d", ALICE, "rwl")
        stamped.setacl(OWNER, "/d", BOB, "none")
        time.sleep(SETTLE_S)
        assert stamped.getdir(ALICE, "/d") == []
        with pytest.raises(E.NotAuthorizedError):
            stamped.getdir(BOB, "/d")
        os.unlink(blob_file(stamped.store, "/d/" + ACL_FILE_NAME))
        with pytest.raises(E.NotAuthorizedError):
            stamped.getdir(ALICE, "/d")
        assert stamped.getdir(BOB, "/d") == []
        assert stamped.getacl(OWNER, "/d").to_text() == stamped.getacl(OWNER, "/").to_text()

    def test_setacl_is_seen_on_next_call(self, stamped):
        stamped.setacl(OWNER, "/", BOB, "rl")
        time.sleep(SETTLE_S)
        stamped.getdir(BOB, "/")
        stamped.setacl(OWNER, "/", BOB, "none")
        with pytest.raises(E.NotAuthorizedError):
            stamped.getdir(BOB, "/")

    def test_reserve_mkdir_is_seen_on_next_call(self, stamped):
        stamped.setacl(OWNER, "/", ALICE, "v(rwl)")
        time.sleep(SETTLE_S)
        with pytest.raises(E.NotAuthorizedError):
            stamped.getdir(ALICE, "/")  # v alone: no l on the root
        stamped.mkdir(ALICE, "/mine", 0o755)
        assert stamped.getdir(ALICE, "/mine") == []

    def test_rmdir_and_remkdir_is_seen_on_next_call(self, stamped):
        stamped.setacl(OWNER, "/", ALICE, "v(rwl)")
        stamped.mkdir(ALICE, "/mine", 0o755)
        time.sleep(SETTLE_S)
        assert stamped.getdir(ALICE, "/mine") == []
        stamped.rmdir(OWNER, "/mine")
        stamped.mkdir(OWNER, "/mine", 0o755)  # owner mkdir: inherits the root's ACL
        with pytest.raises(E.NotAuthorizedError):
            stamped.getdir(ALICE, "/mine")
        assert "/mine/" + ACL_FILE_NAME not in stamped._acl_cache

    def test_directory_rename_is_seen_on_next_call(self, stamped):
        stamped.mkdir(OWNER, "/d", 0o755)
        stamped.mkdir(OWNER, "/d/sub", 0o755)
        stamped.setacl(OWNER, "/d", ALICE, "rwl")
        stamped.setacl(OWNER, "/d/sub", ALICE, "rwl")
        time.sleep(SETTLE_S)
        assert stamped.getdir(ALICE, "/d/sub") == []
        stamped.rename(OWNER, "/d", "/e")
        # No entry outlives its blob.
        assert not any(p.startswith("/d/") for p in stamped._acl_cache)
        stamped.mkdir(OWNER, "/d", 0o755)
        stamped.mkdir(OWNER, "/d/sub", 0o755)
        with pytest.raises(E.NotAuthorizedError):
            stamped.getdir(ALICE, "/d/sub")
        assert stamped.getdir(ALICE, "/e/sub") == []

    @pytest.mark.parametrize("kind", ["memory", "faulty+local"])
    def test_unstamped_stores_reread_every_check(self, kind, tmp_path):
        backend = Backend(make_store(kind, str(tmp_path)), OWNER)
        backend.setacl(OWNER, "/", BOB, "rl")
        time.sleep(SETTLE_S)
        reads = count_acl_reads(backend.store)
        for _ in range(3):
            assert backend.getdir(BOB, "/") == []
        assert reads == ["/" + ACL_FILE_NAME] * 3
        # An edit straight on the store is seen at once.
        backend.store.write_blob("/" + ACL_FILE_NAME, Acl.owner_default(OWNER).to_text().encode())
        with pytest.raises(E.NotAuthorizedError):
            backend.getdir(BOB, "/")
        assert backend._acl_cache == {}


class _AclWritesFail(LocalDirStore):
    """A local store whose whole-blob writes fail on demand (disk full)."""

    failing = False

    def write_blob(self, vpath, data):
        if self.failing:
            raise E.NoSpaceError(f"{vpath}: injected disk full")
        super().write_blob(vpath, data)


class TestSetaclCopyOnWrite:
    def test_failed_acl_write_leaves_persisted_rights(self, tmp_path):
        store = _AclWritesFail(str(tmp_path))
        backend = Backend(store, OWNER)
        backend.mkdir(OWNER, "/d", 0o755)
        backend.setacl(OWNER, "/", BOB, "rl")
        backend.setacl(OWNER, "/d", BOB, "rl")
        time.sleep(SETTLE_S)
        for vdir in ("/", "/d"):
            backend.getdir(BOB, vdir)  # both ACLs now cached
        store.failing = True
        for vdir in ("/", "/d"):
            with pytest.raises(E.NoSpaceError):
                backend.setacl(OWNER, vdir, CAROL, "rwl")
            with pytest.raises(E.NoSpaceError):
                backend.setacl(OWNER, vdir, BOB, "none")
        for vdir in ("/", "/d"):
            with open(os.path.join(str(tmp_path), vdir.lstrip("/"), ACL_FILE_NAME)) as fh:
                persisted = fh.read()
            assert backend.getacl(OWNER, vdir).to_text() == persisted
            assert backend.getdir(BOB, vdir) == (["d"] if vdir == "/" else [])
            with pytest.raises(E.NotAuthorizedError):
                write(backend, CAROL, vdir.rstrip("/") + "/c", b"1")


class TestAclCacheOverTheWire:
    @pytest.mark.parametrize("kind", ["local", "cas"])
    def test_edits_seen_by_a_live_server(self, kind, server_factory, credentials):
        server = server_factory.new(store=kind)
        store = server.backend.store
        visitor_subject = "hostname:localhost"
        owner = ChirpClient(*server.address, credentials=credentials)
        visitor = ChirpClient(*server.address, credentials=ClientCredentials(methods=("hostname",)))
        try:
            owner.mkdir("/d")
            owner.setacl("/d", visitor_subject, "rl")
            time.sleep(SETTLE_S)
            assert visitor.getdir("/d") == []
            rewrite_in_place(store, "/d/" + ACL_FILE_NAME, f"{visitor_subject} rl", f"{visitor_subject} rw")
            with pytest.raises(E.NotAuthorizedError):
                visitor.getdir("/d")
            owner.setacl("/d", visitor_subject, "rl")
            assert visitor.getdir("/d") == []
            time.sleep(SETTLE_S)
            os.unlink(blob_file(store, "/d/" + ACL_FILE_NAME))
            with pytest.raises(E.NotAuthorizedError):
                visitor.getdir("/d")  # the root's ACL: owner only
            owner.setacl("/d", visitor_subject, "rl")
            time.sleep(SETTLE_S)
            assert visitor.getdir("/d") == []
            owner.rename("/d", "/e")
            owner.mkdir("/d")
            with pytest.raises(E.NotAuthorizedError):
                visitor.getdir("/d")
            assert visitor.getdir("/e") == []
            owner.rmdir("/e")
            owner.mkdir("/e")
            with pytest.raises(E.NotAuthorizedError):
                visitor.getdir("/e")
        finally:
            owner.close()
            visitor.close()


# ---------------------------------------------------------------------------
# One resolution per request: the store walks a request path once, and the
# store call reuses that walk; a visitor's ACL blobs take one walk each.
# ---------------------------------------------------------------------------

VISITOR = "unix:visitor"


@pytest.fixture()
def ledger_backend(tmp_path):
    """``/vol/t0d1/f`` on a local store, under a settled root-only ACL
    that grants ``VISITOR`` ``rl``."""
    backend = Backend(LocalDirStore(str(tmp_path)), OWNER)
    backend.mkdir(OWNER, "/vol", 0o755)
    backend.mkdir(OWNER, "/vol/t0d1", 0o755)
    write(backend, OWNER, "/vol/t0d1/f", b"payload")
    backend.setacl(OWNER, "/", VISITOR, "rl")
    time.sleep(SETTLE_S)
    return backend


class TestSyscallLedger:
    """Path syscalls per ``Backend`` call, counted in-process.

    Before one resolution per request (commit d37907d), each of these
    calls resolved its path up to four times: three ``confine`` walks
    to stamp ACL blobs and one to reach the target.  Owner and visitor
    paid the same:

    =============  ==============================
    stat           9 ``lstat`` + 4 ``stat``
    open           9 ``lstat`` + 4 ``stat`` + 1 ``open``
    getdir         8 ``lstat`` + 3 ``stat``
    visitor stat   9 ``lstat`` + 4 ``stat``
    =============  ==============================
    """

    CALLS = ("lstat", "stat", "open", "fstat")

    def ledger(self, monkeypatch, call) -> dict:
        call()  # warm: the ACL cache holds the root ACL from here on
        counts = dict.fromkeys(self.CALLS, 0)
        for name in self.CALLS:
            real = getattr(os, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(os, name, counting)
        try:
            call()
        finally:
            monkeypatch.undo()
        return {name: n for name, n in counts.items() if n}

    def test_owner_stat(self, ledger_backend, monkeypatch):
        call = lambda: ledger_backend.stat(OWNER, "/vol/t0d1/f")  # noqa: E731
        assert self.ledger(monkeypatch, call) == {"lstat": 3}

    def test_owner_open(self, ledger_backend, monkeypatch):
        handles = []
        call = lambda: handles.append(ledger_backend.open(OWNER, "/vol/t0d1/f", R, 0))  # noqa: E731
        try:
            assert self.ledger(monkeypatch, call) == {"lstat": 3, "open": 1}
        finally:
            for handle in handles:
                handle.close()

    def test_owner_getdir(self, ledger_backend, monkeypatch):
        call = lambda: ledger_backend.getdir(OWNER, "/vol/t0d1")  # noqa: E731
        assert self.ledger(monkeypatch, call) == {"lstat": 2}

    def test_visitor_stat(self, ledger_backend, monkeypatch):
        call = lambda: ledger_backend.stat(VISITOR, "/vol/t0d1/f")  # noqa: E731
        # The target walk (3) plus one plain walk per ancestor ACL blob
        # (3 + 2 + 1); the leaf lstat of each walk stands in for a stat.
        assert self.ledger(monkeypatch, call) == {"lstat": 9}


def _outside(tmp_path):
    """A directory beside the export root, with a file and a permissive ACL."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "f").write_bytes(b"secret")
    (outside / "acl").write_text(f"{VISITOR} rwlda\n")
    return outside


@pytest.fixture(params=["local", "cas"])
def exported(request, tmp_path):
    """A backend over a store rooted in ``tmp_path/root``, and the real
    directory its namespace lives in (a CAS store's ``ns/``)."""
    root = tmp_path / "root"
    root.mkdir()
    store = make_store(request.param, str(root))
    backend = Backend(store, OWNER)
    backend.setacl(OWNER, "/", VISITOR, "rwl")
    return backend, getattr(store, "ns_root", store.root)


class TestSingleWalkConfinement:
    """Escapes fail closed, for the owner and for visitors alike."""

    @pytest.mark.parametrize("subject", [OWNER, VISITOR])
    def test_escaping_intermediate_symlink(self, exported, tmp_path, subject):
        backend, ns = exported
        os.symlink(str(_outside(tmp_path)), os.path.join(ns, "evil"))
        for call in (
            lambda: backend.stat(subject, "/evil/f"),
            lambda: backend.stat_read(subject, "/evil/f", 4096),
            lambda: backend.open(subject, "/evil/f", R, 0),
            lambda: backend.open(subject, "/evil/new", W, 0o644),
            lambda: backend.getdir(subject, "/evil"),
            lambda: backend.mkdir(subject, "/evil/d", 0o755),
        ):
            with pytest.raises(E.NotAuthorizedError):
                call()
        assert sorted(os.listdir(tmp_path / "outside")) == ["acl", "f"]

    @pytest.mark.parametrize("subject", [OWNER, VISITOR])
    def test_escaping_leaf_symlink(self, exported, tmp_path, subject):
        backend, ns = exported
        os.symlink(str(_outside(tmp_path) / "f"), os.path.join(ns, "link"))
        for call in (
            lambda: backend.stat(subject, "/link"),
            lambda: backend.lstat(subject, "/link"),
            lambda: backend.stat_read(subject, "/link", 4096),
            lambda: backend.open(subject, "/link", R, 0),
            lambda: backend.open(subject, "/link", W, 0o644),
            lambda: backend.unlink(subject, "/link"),
        ):
            with pytest.raises(E.NotAuthorizedError):
                call()
        assert (tmp_path / "outside" / "f").read_bytes() == b"secret"


    @pytest.mark.parametrize("kind", ["local", "memory", "cas"])
    def test_backslash_and_nul_are_refused(self, kind, tmp_path):
        # Before the store resolved request paths, these escaped the
        # backend as a bare PathEscapeError and the server dropped the
        # connection instead of answering.
        backend = Backend(make_store(kind, str(tmp_path)), OWNER)
        for path in ("/a\\b", "/a\x00b"):
            with pytest.raises(E.NotAuthorizedError):
                backend.stat(OWNER, path)
            with pytest.raises(E.NotAuthorizedError):
                backend.getdir(OWNER, path)


class TestSingleWalkAcls:
    """ACL lookups through the single walk see what ``confine`` sees."""

    def test_acl_symlinked_out_of_the_root_refuses_the_visitor(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        backend = Backend(LocalDirStore(str(root)), OWNER)
        backend.mkdir(OWNER, "/d", 0o755)
        write(backend, OWNER, "/d/f", b"1")
        os.symlink(str(_outside(tmp_path) / "acl"), str(root / "d" / ACL_FILE_NAME))
        time.sleep(SETTLE_S)
        for call in (
            lambda: backend.stat(VISITOR, "/d/f"),
            lambda: backend.getdir(VISITOR, "/d"),
            lambda: read(backend, VISITOR, "/d/f"),
            lambda: write(backend, VISITOR, "/d/g", b"2"),
            lambda: backend.getacl(VISITOR, "/d"),
        ):
            with pytest.raises(E.NotAuthorizedError):
                call()
        assert not (root / "d" / "g").exists()

    def test_acl_symlinked_inside_the_root_is_followed(self, backend, tmp_path):
        backend.mkdir(OWNER, "/acls", 0o755)
        backend.mkdir(OWNER, "/d", 0o755)
        write(backend, OWNER, "/d/f", b"1")
        (tmp_path / "acls" / "d").write_text(f"{VISITOR} rl\n")
        os.symlink(str(tmp_path / "acls" / "d"), str(tmp_path / "d" / ACL_FILE_NAME))
        time.sleep(SETTLE_S)
        assert backend.getdir(VISITOR, "/d") == ["f"]
        assert read(backend, VISITOR, "/d/f") == b"1"
        with pytest.raises(E.NotAuthorizedError):
            write(backend, VISITOR, "/d/g", b"2")

    def test_acl_under_a_symlinked_directory(self, backend, tmp_path):
        backend.mkdir(OWNER, "/real", 0o755)
        write(backend, OWNER, "/real/f", b"1")
        backend.setacl(OWNER, "/real", VISITOR, "rl")
        os.symlink(str(tmp_path / "real"), str(tmp_path / "alias"))
        time.sleep(SETTLE_S)
        assert backend.stat(VISITOR, "/alias/f").size == 1
        assert backend.getdir(VISITOR, "/alias") == ["f"]
        with pytest.raises(E.NotAuthorizedError):
            backend.getdir(VISITOR, "/")

    @pytest.mark.parametrize("settled", [False, True], ids=["fresh", "settled"])
    def test_in_place_rewrite_refuses_a_stranger(self, stamped, settled):
        stamped.mkdir(OWNER, "/vol", 0o755)
        stamped.mkdir(OWNER, "/vol/t0d1", 0o755)
        write(stamped, OWNER, "/vol/t0d1/f", b"1")
        stamped.setacl(OWNER, "/vol", VISITOR, "rl")
        if settled:
            time.sleep(SETTLE_S)
        assert stamped.stat(VISITOR, "/vol/t0d1/f").size == 1
        # The visitor's entry now names someone else: the visitor is a
        # stranger to this ACL and the root's.
        rewrite_in_place(stamped.store, "/vol/" + ACL_FILE_NAME, VISITOR, "unix:mallory")
        for call in (
            lambda: stamped.stat(VISITOR, "/vol/t0d1/f"),
            lambda: stamped.stat_read(VISITOR, "/vol/t0d1/f", 4096),
            lambda: stamped.getdir(VISITOR, "/vol/t0d1"),
            lambda: read(stamped, VISITOR, "/vol/t0d1/f"),
        ):
            with pytest.raises(E.NotAuthorizedError):
                call()
        assert stamped.stat("unix:mallory", "/vol/t0d1/f").size == 1
