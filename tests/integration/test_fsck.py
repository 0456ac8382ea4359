"""Integration tests: fsck over live DSFS volumes."""

import pytest

from repro.core.cfs import CFS
from repro.core.dsfs import DSFS
from repro.core.fsck import fsck_volume
from repro.core.placement import RoundRobinPlacement
from repro.core.replfs import ReplicatedFS
from repro.core.stripefs import StripedFS
from repro.transport.recovery import RetryPolicy

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


@pytest.fixture()
def volume(server_factory, pool):
    servers = [server_factory.new() for _ in range(3)]
    dir_server = server_factory.new()
    fs = DSFS.create(
        pool,
        *dir_server.address,
        "/vol",
        [s.address for s in servers],
        name="vol",
        placement=RoundRobinPlacement(seed=7),
        policy=FAST,
    )
    fs._test_servers = servers
    return fs


class TestFsckClean:
    def test_healthy_volume_is_clean(self, volume):
        volume.mkdir("/a")
        for i in range(6):
            volume.write_file(f"/a/f{i}", bytes([i]) * 100)
        report = fsck_volume(volume)
        assert report.clean
        assert report.files_checked == 6
        assert report.healthy == 6
        assert report.directories_checked == 2  # "/" and "/a"

    def test_empty_volume(self, volume):
        report = fsck_volume(volume)
        assert report.clean
        assert report.files_checked == 0


class TestFsckDangling:
    def test_detects_dangling_stub(self, volume, pool):
        volume.write_file("/doomed", b"x")
        stub = volume.stub_for("/doomed")
        pool.get(*stub.endpoint).unlink(stub.path)
        report = fsck_volume(volume)
        assert report.dangling_stubs == {"/doomed": "no data file"}
        assert not report.clean

    def test_removes_dangling_when_asked(self, volume, pool):
        volume.write_file("/doomed", b"x")
        volume.write_file("/fine", b"y")
        stub = volume.stub_for("/doomed")
        pool.get(*stub.endpoint).unlink(stub.path)
        report = fsck_volume(volume, remove_dangling=True)
        assert report.removed_stubs == 1
        assert volume.listdir("/") == ["fine"]
        assert fsck_volume(volume).clean

    def test_unreachable_server_is_not_removed(self, volume, pool):
        """Conservative repair: a down server may come back; never delete
        its stubs."""
        volume.write_file("/maybe", b"x")
        endpoint = volume.stub_for("/maybe").endpoint
        victim = next(s for s in volume._test_servers if s.address == endpoint)
        victim.stop()
        pool.evict(*endpoint)
        report = fsck_volume(volume, remove_dangling=True)
        assert report.dangling_stubs["/maybe"] == "server unreachable"
        assert report.removed_stubs == 0
        assert "maybe" in volume.listdir("/")


class TestFsckOrphans:
    def test_detects_orphan_data(self, volume, pool):
        volume.write_file("/kept", b"x")
        # simulate an interrupted replication: data with no stub
        client = pool.get(*volume.servers[0])
        client.putfile(volume.data_dir + "/file-orphaned-123", b"stranded")
        report = fsck_volume(volume)
        assert len(report.orphan_data) == 1
        assert report.orphan_data[0][2].endswith("file-orphaned-123")

    def test_removes_orphans_when_asked(self, volume, pool):
        client = pool.get(*volume.servers[1])
        client.putfile(volume.data_dir + "/file-orphaned-9", b"stranded")
        report = fsck_volume(volume, remove_orphans=True)
        assert report.removed_orphans == 1
        assert fsck_volume(volume).clean

    def test_referenced_data_never_flagged(self, volume):
        for i in range(9):
            volume.write_file(f"/f{i}", bytes([i]))
        report = fsck_volume(volume)
        assert report.orphan_data == []

    def test_rename_does_not_confuse_fsck(self, volume):
        volume.write_file("/old", b"x")
        volume.mkdir("/sub")
        volume.rename("/old", "/sub/new")
        report = fsck_volume(volume)
        assert report.clean


class TestFsckOnDpfs:
    def test_works_on_private_volumes_too(self, server_factory, pool, tmp_path):
        from repro.core.dpfs import DPFS

        servers = [server_factory.new() for _ in range(2)]
        fs = DPFS.create(
            str(tmp_path / "meta"), pool, [s.address for s in servers],
            name="priv", policy=FAST,
        )
        fs.write_file("/a", b"1")
        fs.write_file("/b", b"2")
        stub = fs.stub_for("/a")
        pool.get(*stub.endpoint).unlink(stub.path)
        report = fsck_volume(fs, remove_dangling=True)
        assert report.removed_stubs == 1
        assert fs.listdir("/") == ["b"]


class TestFsckCli:
    def test_tss_fsck_command(self, volume, pool, capsys):
        from repro.cli import main as tss_main

        volume.write_file("/good", b"x")
        volume.write_file("/bad", b"y")
        stub = volume.stub_for("/bad")
        pool.get(*stub.endpoint).unlink(stub.path)
        host, port = volume.dir_endpoint
        spec = f"/dsfs/{host}:{port}@vol"
        assert tss_main(["fsck", spec]) == 1  # dirty volume
        out = capsys.readouterr().out
        assert "dangling  /bad" in out
        assert tss_main(["fsck", spec, "--repair"]) == 0
        capsys.readouterr()
        assert tss_main(["fsck", spec]) == 0  # clean now
        assert "clean" in capsys.readouterr().out


class TestFsckOnMultiMemberLayouts:
    """fsck walks every member a stub references, whatever the layout."""

    @pytest.fixture()
    def layout(self, server_factory, pool):
        def make(cls, **kwargs):
            dir_client = pool.get(*server_factory.new().address)
            dir_client.mkdir("/vol")
            servers = [server_factory.new().address for _ in range(3)]
            fs = cls(CFS(dir_client, "/vol", FAST), pool, servers, "/tssdata/vol",
                     policy=FAST, **kwargs)
            fs.make_data_dirs(servers)
            return fs

        return make

    @staticmethod
    def lose(pool, member) -> None:
        pool.get(member.host, member.port).unlink(member.path)

    def test_replicated_copy_lost_is_not_dangling(self, layout, pool):
        fs = layout(ReplicatedFS, copies=2)
        fs.write_file("/f", b"two copies")
        first, second = fs.layout.members(fs.stub_for("/f"))
        self.lose(pool, first)
        report = fsck_volume(fs)
        assert report.healthy == 1 and report.clean

    def test_replicated_every_copy_lost_is_dangling(self, layout, pool):
        fs = layout(ReplicatedFS, copies=2)
        fs.write_file("/f", b"two copies")
        fs.write_file("/g", b"kept")
        for member in fs.layout.members(fs.stub_for("/f")):
            self.lose(pool, member)
        report = fsck_volume(fs, remove_dangling=True)
        assert report.dangling_stubs == {"/f": "no data file"}
        assert report.removed_stubs == 1
        assert fs.listdir("/") == ["g"]
        assert fsck_volume(fs).clean

    def test_striped_stripe_lost_is_dangling_and_strands_the_rest(self, layout, pool):
        fs = layout(StripedFS, stripe_size=4)
        fs.write_file("/f", b"0123456789ab")
        stripes = fs.layout.members(fs.stub_for("/f"))
        self.lose(pool, stripes[1])
        report = fsck_volume(fs)
        assert report.dangling_stubs == {"/f": "no data file"}
        assert report.orphan_data == []  # the stub still references them
        report = fsck_volume(fs, remove_dangling=True, remove_orphans=True)
        assert report.removed_stubs == 1
        # The stripes the removed stub left behind are orphans now.
        assert sorted(path for _, _, path in report.orphan_data) == sorted(
            m.path for m in (stripes[0], stripes[2])
        )
        assert report.removed_orphans == 2
        assert fsck_volume(fs).clean

    def test_healthy_layouts_are_clean(self, layout):
        for cls, kwargs in ((ReplicatedFS, {"copies": 2}), (StripedFS, {"stripe_size": 4})):
            fs = layout(cls, **kwargs)
            for i in range(4):
                fs.write_file(f"/f{i}", b"x" * (i * 5))
            report = fsck_volume(fs)
            assert report.clean and report.healthy == 4, cls
