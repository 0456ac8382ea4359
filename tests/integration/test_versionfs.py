"""Integration tests: VersionedFS over live file servers.

The paper's future-work vision realized: "record many backup images ...
on-line perusal, recovery, and forensic analysis of data over time."
"""

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.core.placement import RoundRobinPlacement
from repro.transport.recovery import RetryPolicy
from repro.core.versionfs import VersionedFS, VersionStub, Version
from repro.util import errors as E

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


@pytest.fixture()
def vfs(server_factory, pool):
    servers = [server_factory.new() for _ in range(3)]
    dir_server = server_factory.new()
    dir_client = pool.get(*dir_server.address)
    dir_client.mkdir("/vvol")
    for s in servers:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        c.mkdir("/tssdata/vvol")
    clock = {"now": 1000.0}

    def now():
        clock["now"] += 1.0
        return clock["now"]

    fs = VersionedFS(
        CFS(dir_client, "/vvol", FAST),
        pool,
        [s.address for s in servers],
        "/tssdata/vvol",
        placement=RoundRobinPlacement(seed=13),
        policy=FAST,
        now=now,
    )
    fs._test_servers = servers
    return fs


class TestVersionHistory:
    def test_each_write_session_is_a_version(self, vfs):
        vfs.write_file("/doc.txt", b"draft one")
        vfs.write_file("/doc.txt", b"draft two")
        vfs.write_file("/doc.txt", b"final")
        history = vfs.versions("/doc.txt")
        assert [v.number for v in history] == [1, 2, 3]
        assert vfs.read_file("/doc.txt") == b"final"

    def test_old_versions_readable(self, vfs):
        vfs.write_file("/doc.txt", b"v1 contents")
        vfs.write_file("/doc.txt", b"v2 contents")
        assert vfs.read_version("/doc.txt", 1) == b"v1 contents"
        assert vfs.read_version("/doc.txt", 2) == b"v2 contents"

    def test_missing_version_raises(self, vfs):
        vfs.write_file("/doc.txt", b"only one")
        with pytest.raises(E.DoesNotExistError):
            vfs.read_version("/doc.txt", 9)

    def test_timestamps_are_monotone(self, vfs):
        for i in range(3):
            vfs.write_file("/t", bytes([i]))
        stamps = [v.committed_at for v in vfs.versions("/t")]
        assert stamps == sorted(stamps)

    def test_versions_land_on_multiple_servers(self, vfs):
        for i in range(6):
            vfs.write_file("/spread", bytes([i]))
        endpoints = {v.endpoint for v in vfs.versions("/spread")}
        assert len(endpoints) == 3


class TestCopyOnWrite:
    def test_modify_without_truncate_seeds_from_latest(self, vfs):
        vfs.write_file("/log", b"0123456789")
        with vfs.open("/log", OpenFlags(read=True, write=True)) as h:
            h.pwrite(b"XX", 3)
        assert vfs.read_file("/log") == b"012XX56789"
        assert vfs.read_version("/log", 1) == b"0123456789"  # untouched

    def test_writer_invisible_until_close(self, vfs):
        vfs.write_file("/shared", b"committed")
        handle = vfs.open("/shared", OpenFlags(read=True, write=True))
        handle.pwrite(b"IN-PROGRESS", 0)
        # a reader still sees the committed version
        assert vfs.read_file("/shared") == b"committed"
        handle.close()
        assert vfs.read_file("/shared") == b"IN-PROGRESS"

    def test_abort_discards_the_session(self, vfs):
        vfs.write_file("/doc", b"keep me")
        handle = vfs.open("/doc", OpenFlags(read=True, write=True))
        handle.pwrite(b"discard", 0)
        handle.abort()
        assert vfs.read_file("/doc") == b"keep me"
        assert len(vfs.versions("/doc")) == 1

    def test_append_mode_versions_correctly(self, vfs):
        vfs.write_file("/log", b"one\n")
        with vfs.open("/log", OpenFlags(read=True, write=True, append=True)) as h:
            h.pwrite(b"two\n", h.fstat().size)
        assert vfs.read_file("/log") == b"one\ntwo\n"
        assert vfs.read_version("/log", 1) == b"one\n"

    def test_truncate_is_a_version(self, vfs):
        vfs.write_file("/f", b"0123456789")
        vfs.truncate("/f", 4)
        assert vfs.read_file("/f") == b"0123"
        assert vfs.read_version("/f", 1) == b"0123456789"


class TestRestoreAndPrune:
    def test_restore_promotes_old_version(self, vfs):
        vfs.write_file("/cfg", b"good config")
        vfs.write_file("/cfg", b"broken config")
        promoted = vfs.restore("/cfg", 1)
        assert promoted.number == 3
        assert vfs.read_file("/cfg") == b"good config"
        # forensic trail intact: the broken version is still readable
        assert vfs.read_version("/cfg", 2) == b"broken config"

    def test_prune_keeps_newest(self, vfs, pool):
        for i in range(5):
            vfs.write_file("/big", bytes([i]) * 100)
        deleted = vfs.prune("/big", keep=2)
        assert deleted == 3
        history = vfs.versions("/big")
        assert [v.number for v in history] == [4, 5]
        assert vfs.read_file("/big") == bytes([4]) * 100

    def test_prune_spares_restored_data(self, vfs):
        vfs.write_file("/f", b"original")
        vfs.write_file("/f", b"newer")
        vfs.restore("/f", 1)  # version 3 shares version 1's data file
        vfs.prune("/f", keep=1)
        assert vfs.read_file("/f") == b"original"  # data survived the prune

    def test_prune_validates_keep(self, vfs):
        vfs.write_file("/f", b"x")
        with pytest.raises(ValueError):
            vfs.prune("/f", keep=0)


class TestNamespace:
    def test_listdir_hides_machinery(self, vfs):
        vfs.write_file("/visible", b"1")
        assert vfs.listdir("/") == ["visible"]

    def test_stat_reports_latest_size(self, vfs):
        vfs.write_file("/f", b"12")
        vfs.write_file("/f", b"12345")
        assert vfs.stat("/f").size == 5

    def test_unlink_removes_every_versions_data(self, vfs, pool):
        for i in range(3):
            vfs.write_file("/gone", bytes([i]) * 50)
        history = vfs.versions("/gone")
        vfs.unlink("/gone")
        assert vfs.listdir("/") == []
        for version in history:
            assert not pool.get(*version.endpoint).exists(version.path)

    def test_rename_carries_history(self, vfs):
        vfs.write_file("/old", b"v1")
        vfs.write_file("/old", b"v2")
        vfs.rename("/old", "/new")
        assert vfs.read_version("/new", 1) == b"v1"

    def test_exclusive_create(self, vfs):
        vfs.write_file("/x", b"1")
        with pytest.raises(E.AlreadyExistsError):
            vfs.open("/x", OpenFlags(write=True, create=True, exclusive=True))

    def test_open_missing_without_create(self, vfs):
        with pytest.raises(E.DoesNotExistError):
            vfs.open("/missing", OpenFlags(write=True))


class TestStubCodec:
    def test_roundtrip(self):
        stub = VersionStub(
            (Version(1, "h", 1, "/p1", 100.0), Version(2, "h", 1, "/p2", 200.0))
        )
        assert VersionStub.decode(stub.encode()) == stub

    def test_empty_history_rejected(self):
        with pytest.raises(E.InvalidRequestError):
            VersionStub.decode(b'{"tss": "vstub", "v": 1, "versions": []}')

    def test_latest_and_get(self):
        stub = VersionStub(
            (Version(1, "h", 1, "/p1", 1.0), Version(2, "h", 1, "/p2", 2.0))
        )
        assert stub.latest.number == 2
        assert stub.get(1).path == "/p1"
        with pytest.raises(E.DoesNotExistError):
            stub.get(5)
