"""Integration tests: DPFS and DSFS over live file servers.

The two abstractions share the stub engine, so shared behaviours are
tested once against both via parametrized fixtures; the differences
(private vs shared metadata, sharing between clients) get their own
tests.
"""

import os

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.dpfs import DPFS
from repro.core.dsfs import DSFS
from repro.core.placement import RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.util import errors as E

FAST = RetryPolicy(max_attempts=4, initial_delay=0.05, multiplier=1.5)


@pytest.fixture()
def cluster(server_factory, pool):
    """Three data servers plus one directory server."""
    servers = [server_factory.new() for _ in range(3)]
    dir_server = server_factory.new()
    return servers, dir_server, pool


def make_dpfs(cluster, tmp_path):
    servers, _dir, pool = cluster
    return DPFS.create(
        str(tmp_path / "meta"),
        pool,
        [s.address for s in servers],
        name="vol",
        placement=RoundRobinPlacement(seed=1),
        policy=FAST,
    )


def make_dsfs(cluster, tmp_path):
    servers, dir_server, pool = cluster
    return DSFS.create(
        pool,
        *dir_server.address,
        "/vol",
        [s.address for s in servers],
        name="vol",
        placement=RoundRobinPlacement(seed=1),
        policy=FAST,
    )


@pytest.fixture(params=["dpfs", "dsfs"])
def stubfs(request, cluster, tmp_path):
    maker = make_dpfs if request.param == "dpfs" else make_dsfs
    return maker(cluster, tmp_path)


class TestCommonSemantics:
    def test_write_read_roundtrip(self, stubfs):
        stubfs.write_file("/paper.txt", b"the content")
        assert stubfs.read_file("/paper.txt") == b"the content"

    def test_large_file(self, stubfs):
        blob = bytes(range(256)) * 4000
        stubfs.write_file("/big", blob)
        assert stubfs.read_file("/big") == blob
        assert stubfs.stat("/big").size == len(blob)

    def test_directories_and_rename(self, stubfs):
        stubfs.mkdir("/figures")
        stubfs.write_file("/figures/b.eps", b"EPS")
        stubfs.write_file("/paper.txt", b"txt")
        assert sorted(stubfs.listdir("/")) == ["figures", "paper.txt"]
        # name-only rename: data file does not move
        before = stubfs.stub_for("/paper.txt")
        stubfs.rename("/paper.txt", "/figures/paper.txt")
        after = stubfs.stub_for("/figures/paper.txt")
        assert (before.host, before.port, before.path) == (
            after.host,
            after.port,
            after.path,
        )

    def test_data_spreads_across_servers(self, stubfs):
        for i in range(9):
            stubfs.write_file(f"/f{i}", bytes([i]))
        endpoints = {stubfs.stub_for(f"/f{i}").endpoint for i in range(9)}
        assert len(endpoints) == 3  # round robin hits every server

    def test_exclusive_create(self, stubfs):
        stubfs.write_file("/x", b"1")
        with pytest.raises(E.AlreadyExistsError):
            stubfs.open("/x", OpenFlags(write=True, create=True, exclusive=True))

    def test_plain_create_overwrites(self, stubfs):
        stubfs.write_file("/x", b"first")
        stubfs.write_file("/x", b"second!")
        assert stubfs.read_file("/x") == b"second!"

    def test_unlink_removes_data_then_stub(self, stubfs):
        stubfs.write_file("/x", b"1")
        stub = stubfs.stub_for("/x")
        stubfs.unlink("/x")
        assert stubfs.listdir("/") == []
        client = stubfs.pool.get(*stub.endpoint)
        assert not client.exists(stub.path)  # data really gone

    def test_open_missing_file(self, stubfs):
        with pytest.raises(E.DoesNotExistError):
            stubfs.read_file("/missing")

    def test_stat_reports_data_size(self, stubfs):
        stubfs.write_file("/x", b"x" * 12345)
        assert stubfs.stat("/x").size == 12345
        # lstat sees the (tiny) stub entry itself
        assert stubfs.lstat("/x").size < 4096

    def test_truncate_and_utime_reach_data(self, stubfs):
        stubfs.write_file("/x", b"0123456789")
        stubfs.truncate("/x", 4)
        assert stubfs.stat("/x").size == 4
        stubfs.utime("/x", 100, 200)
        assert stubfs.stat("/x").mtime == 200

    def test_utime_on_a_directory(self, stubfs):
        stubfs.mkdir("/d")
        stubfs.utime("/d", 100, 200)
        st = stubfs.stat("/d")
        assert st.is_dir and st.mtime == 200

    def test_statfs_aggregates_servers(self, stubfs):
        fs = stubfs.statfs()
        one = stubfs.pool.get(*stubfs.servers[0]).statfs()
        assert fs.total_bytes >= 2 * one.total_bytes  # 3 servers summed

    def test_rmdir(self, stubfs):
        stubfs.mkdir("/d")
        stubfs.rmdir("/d")
        assert stubfs.listdir("/") == []

    def test_volume_file_is_hidden_and_guarded(self, stubfs):
        assert ".tssvolume" not in stubfs.listdir("/")
        with pytest.raises(E.NotAuthorizedError):
            stubfs.read_file("/.tssvolume")
        with pytest.raises(E.NotAuthorizedError):
            stubfs.unlink("/.tssvolume")


class TestDanglingStubs:
    def test_dangling_stub_open_says_not_found(self, stubfs):
        """Crash between creation steps 2 and 3 leaves a stub with no
        data; open must say 'file not found' (paper, section 5)."""
        stubfs.write_file("/x", b"1")
        stub = stubfs.stub_for("/x")
        stubfs.pool.get(*stub.endpoint).unlink(stub.path)  # simulate crash
        with pytest.raises(E.DoesNotExistError):
            stubfs.read_file("/x")
        with pytest.raises(E.DoesNotExistError):
            stubfs.stat("/x")

    def test_dangling_stub_still_listed_and_lstattable(self, stubfs):
        stubfs.write_file("/x", b"1")
        stub = stubfs.stub_for("/x")
        stubfs.pool.get(*stub.endpoint).unlink(stub.path)
        assert stubfs.listdir("/") == ["x"]
        assert stubfs.lstat("/x").size > 0

    def test_dangling_stub_easily_deleted(self, stubfs):
        stubfs.write_file("/x", b"1")
        stub = stubfs.stub_for("/x")
        stubfs.pool.get(*stub.endpoint).unlink(stub.path)
        stubfs.unlink("/x")  # paper: "easily deleted by a user"
        assert stubfs.listdir("/") == []


class TestFailureCoherence:
    def test_lost_server_takes_out_only_its_files(self, cluster, tmp_path, server_factory):
        servers, _dir, pool = cluster
        fs = make_dsfs(cluster, tmp_path)
        for i in range(9):
            fs.write_file(f"/f{i}", bytes([i]) * 10)
        victim = servers[0]
        dead_endpoint = victim.address
        on_victim = [
            f"/f{i}" for i in range(9)
            if fs.stub_for(f"/f{i}").endpoint == dead_endpoint
        ]
        survivors = [p for p in (f"/f{i}" for i in range(9)) if p not in on_victim]
        assert on_victim and survivors
        victim.stop()
        pool.evict(*dead_endpoint)
        # namespace stays navigable
        assert len(fs.listdir("/")) == 9
        # surviving files still read fine
        for path in survivors:
            assert len(fs.read_file(path)) == 10
        # lost files fail with a connection error, not corruption
        with pytest.raises(E.DisconnectedError):
            fs.read_file(on_victim[0])

    def test_force_unlink_with_dead_server(self, cluster, tmp_path):
        servers, _dir, pool = cluster
        fs = make_dsfs(cluster, tmp_path)
        fs.write_file("/doomed", b"x")
        endpoint = fs.stub_for("/doomed").endpoint
        server = next(s for s in servers if s.address == endpoint)
        server.stop()
        pool.evict(*endpoint)
        with pytest.raises(E.DisconnectedError):
            fs.unlink("/doomed")
        fs.unlink("/doomed", force=True)  # the documented escape hatch
        assert fs.listdir("/") == []

    def test_new_files_avoid_dead_server(self, cluster, tmp_path):
        servers, _dir, pool = cluster
        fs = make_dsfs(cluster, tmp_path)
        victim = servers[1]
        victim.stop()
        pool.evict(*victim.address)
        for i in range(6):
            fs.write_file(f"/n{i}", b"1")  # placement retries elsewhere
        endpoints = {fs.stub_for(f"/n{i}").endpoint for i in range(6)}
        assert victim.address not in endpoints


class TestSharing:
    def test_two_clients_share_a_dsfs(self, cluster, tmp_path, credentials):
        """The defining DSFS property: multiple users, one namespace."""
        servers, dir_server, pool = cluster
        fs_a = make_dsfs(cluster, tmp_path)
        pool_b = ClientPool(credentials)
        fs_b = DSFS.open_volume(pool_b, *dir_server.address, "/vol", policy=FAST)
        fs_a.write_file("/from-a.txt", b"written by a")
        assert fs_b.read_file("/from-a.txt") == b"written by a"
        fs_b.write_file("/from-b.txt", b"written by b")
        assert sorted(fs_a.listdir("/")) == ["from-a.txt", "from-b.txt"]
        pool_b.close()

    def test_exclusive_create_races_resolve_once(self, cluster, tmp_path, credentials):
        """Two clients racing to create the same name: exactly one wins
        (the stub's exclusive create arbitrates)."""
        _servers, dir_server, pool = cluster
        fs_a = make_dsfs(cluster, tmp_path)
        pool_b = ClientPool(credentials)
        fs_b = DSFS.open_volume(pool_b, *dir_server.address, "/vol", policy=FAST)
        flags = OpenFlags(write=True, create=True, exclusive=True)
        h = fs_a.open("/contested", flags)
        h.pwrite(b"a was here", 0)
        h.close()
        with pytest.raises(E.AlreadyExistsError):
            fs_b.open("/contested", flags)
        assert fs_b.read_file("/contested") == b"a was here"
        pool_b.close()

    def test_dpfs_reopen_volume(self, cluster, tmp_path, credentials):
        fs = make_dpfs(cluster, tmp_path)
        fs.write_file("/persists.txt", b"here")
        pool2 = ClientPool(credentials)
        again = DPFS.open_volume(str(tmp_path / "meta"), pool2, policy=FAST)
        assert again.read_file("/persists.txt") == b"here"
        assert again.servers == fs.servers
        pool2.close()

    def test_add_server_grows_volume(self, cluster, tmp_path, server_factory):
        fs = make_dsfs(cluster, tmp_path)
        new_server = server_factory.new()
        fs.add_server(*new_server.address)
        assert tuple(new_server.address) in {tuple(s) for s in fs.servers}
        # config persisted: a fresh open sees the new server
        again = DSFS.open_volume(fs.pool, *fs.dir_endpoint, "/vol", policy=FAST)
        assert tuple(new_server.address) in {tuple(s) for s in again.servers}


class TestDpfsDurableCreate:
    """A DPFS stub create is durable before the data file is made: the
    new stub is fsynced, then its directory, and nothing else in the
    private tree is."""

    @pytest.fixture()
    def tree_fsyncs(self, monkeypatch, tmp_path):
        """The private tree's paths ``os.fsync`` is called on, relative
        to the tree ("." is the tree's root directory)."""
        root = str((tmp_path / "meta").resolve())
        seen: list[str] = []
        real_fsync = os.fsync

        def fsync(fd):
            target = os.readlink(f"/proc/self/fd/{fd}")
            if target == root or target.startswith(root + "/"):
                seen.append(os.path.relpath(target, root))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return seen

    def test_write_file_fsyncs_the_stub_and_its_directory(self, cluster, tmp_path, tree_fsyncs):
        fs = make_dpfs(cluster, tmp_path)
        fs.mkdir("/sub")
        del tree_fsyncs[:]
        fs.write_file("/sub/a", b"payload")
        assert tree_fsyncs == ["sub/a", "sub"]

    def test_open_create_fsyncs_the_stub_and_its_directory(self, cluster, tmp_path, tree_fsyncs):
        fs = make_dpfs(cluster, tmp_path)
        del tree_fsyncs[:]
        with fs.open("/b", OpenFlags(write=True, create=True)) as handle:
            handle.pwrite(b"payload", 0)
        assert tree_fsyncs == ["b", "."]
