"""Integration tests: the adapter's POSIX surface and interposition."""

import errno
import io
import os
import stat as stat_mod

import pytest

from repro.adapter.adapter import Adapter
from repro.adapter.interpose import interposed
from repro.adapter.mountlist import Mountlist
from repro.core.dsfs import DSFS
from repro.core.storefs import StoreFilesystem
from repro.store.localdir import LocalDirStore
from repro.transport.recovery import RetryPolicy

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


@pytest.fixture()
def adapter(pool):
    a = Adapter(pool=pool, policy=FAST)
    yield a
    # the pool fixture closes connections; do not double-close


@pytest.fixture()
def cfs_url(file_server):
    host, port = file_server.address
    return f"/cfs/{host}:{port}"


class TestAutoNamespaces:
    def test_cfs_open_write_read(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/hello.txt", "w") as f:
            f.write("hello adapter\n")
        with adapter.open(f"{cfs_url}/hello.txt") as f:
            assert f.read() == "hello adapter\n"

    def test_binary_unbuffered_by_default(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/b.bin", "wb") as f:
            assert isinstance(f, io.RawIOBase)
            f.write(b"\x00\x01\x02")
        with adapter.open(f"{cfs_url}/b.bin", "rb") as f:
            assert f.read() == b"\x00\x01\x02"

    def test_dsfs_auto_namespace(self, adapter, server_factory, pool, cfs_url):
        data = [server_factory.new() for _ in range(2)]
        dir_server = server_factory.new()
        DSFS.create(
            pool, *dir_server.address, "/run5",
            [s.address for s in data], name="run5", policy=FAST,
        )
        host, port = dir_server.address
        url = f"/dsfs/{host}:{port}@run5"
        with adapter.open(f"{url}/traj.dat", "wb") as f:
            f.write(b"trajectory")
        assert adapter.listdir(url + "/") == ["traj.dat"]
        assert adapter.read_bytes(f"{url}/traj.dat") == b"trajectory"

    def test_unknown_namespace_is_enoent(self, adapter):
        with pytest.raises(OSError) as exc:
            adapter.stat("/not-tss/path")
        assert exc.value.errno == errno.ENOENT

    def test_bad_endpoint_spec(self, adapter):
        with pytest.raises(OSError):
            adapter.listdir("/cfs/no-port-here/")

    def test_unreachable_server_is_oserror(self, adapter):
        with pytest.raises(OSError):
            adapter.stat("/cfs/127.0.0.1:1/x")


class TestMounts:
    def test_explicit_mount_of_localfs(self, adapter, tmp_path):
        local = tmp_path / "localtree"
        local.mkdir()
        (local / "f.txt").write_text("local")
        adapter.mount("/mnt", StoreFilesystem(LocalDirStore(str(local))))
        assert adapter.listdir("/mnt") == ["f.txt"]
        assert adapter.read_bytes("/mnt/f.txt") == b"local"

    def test_mountlist_rule(self, adapter, cfs_url):
        adapter.write_bytes(f"{cfs_url}/software", b"")  # ensure dir? no-op file
        adapter.add_mount_rule("/usr/tss", cfs_url)
        adapter.write_bytes("/usr/tss/app.bin", b"binary")
        assert adapter.read_bytes(f"{cfs_url}/app.bin") == b"binary"

    def test_mountlist_from_text(self, pool, cfs_url):
        ml = Mountlist.from_text(f"/data {cfs_url}\n")
        a = Adapter(pool=pool, policy=FAST, mountlist=ml)
        a.write_bytes("/data/x", b"1")
        assert a.exists(f"{cfs_url}/x")

    def test_unmount(self, adapter, tmp_path):
        adapter.mount("/mnt", StoreFilesystem(LocalDirStore(str(tmp_path))))
        adapter.unmount("/mnt")
        with pytest.raises(OSError):
            adapter.listdir("/mnt")

    def test_rename_across_abstractions_is_exdev(self, adapter, tmp_path, cfs_url):
        adapter.mount("/mnt", StoreFilesystem(LocalDirStore(str(tmp_path))))
        adapter.write_bytes("/mnt/f", b"1")
        with pytest.raises(OSError) as exc:
            adapter.rename("/mnt/f", f"{cfs_url}/f")
        assert exc.value.errno == errno.EXDEV


class TestPosixSemantics:
    def test_stat_is_os_compatible(self, adapter, cfs_url):
        adapter.write_bytes(f"{cfs_url}/f", b"12345")
        st = adapter.stat(f"{cfs_url}/f")
        assert st.st_size == 5
        assert stat_mod.S_ISREG(st.st_mode)

    def test_errors_carry_errno(self, adapter, cfs_url):
        with pytest.raises(FileNotFoundError):
            adapter.stat(f"{cfs_url}/missing")
        adapter.mkdir(f"{cfs_url}/d")
        with pytest.raises(FileExistsError):
            adapter.mkdir(f"{cfs_url}/d")

    def test_seek_and_tell(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/f", "wb") as f:
            f.write(b"0123456789")
        with adapter.open(f"{cfs_url}/f", "rb") as f:
            f.seek(4)
            assert f.tell() == 4
            assert f.read(2) == b"45"
            f.seek(-2, os.SEEK_END)
            assert f.read() == b"89"

    def test_append_mode(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/log", "ab") as f:
            f.write(b"one\n")
        with adapter.open(f"{cfs_url}/log", "ab") as f:
            f.write(b"two\n")
        assert adapter.read_bytes(f"{cfs_url}/log") == b"one\ntwo\n"

    def test_rplus_mode(self, adapter, cfs_url):
        adapter.write_bytes(f"{cfs_url}/f", b"AAAA")
        with adapter.open(f"{cfs_url}/f", "r+b") as f:
            f.seek(1)
            f.write(b"BB")
        assert adapter.read_bytes(f"{cfs_url}/f") == b"ABBA"

    def test_truncate_via_handle(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/f", "wb") as f:
            f.write(b"0123456789")
            f.truncate(4)
        assert adapter.stat(f"{cfs_url}/f").st_size == 4

    def test_text_mode_with_lines(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/lines.txt", "w") as f:
            f.write("one\ntwo\nthree\n")
        with adapter.open(f"{cfs_url}/lines.txt") as f:
            assert f.readlines() == ["one\n", "two\n", "three\n"]

    def test_exclusive_mode(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/x", "xb") as f:
            f.write(b"1")
        with pytest.raises(FileExistsError):
            adapter.open(f"{cfs_url}/x", "xb")

    def test_makedirs_and_walk(self, adapter, cfs_url):
        adapter.makedirs(f"{cfs_url}/a/b/c")
        adapter.write_bytes(f"{cfs_url}/a/b/f.txt", b"1")
        walked = list(adapter.walk(f"{cfs_url}/a"))
        dirs = {d for _, ds, _ in walked for d in ds}
        files = {f for _, _, fs in walked for f in fs}
        assert "b" in dirs and "c" in dirs
        assert "f.txt" in files

    def test_utime_and_exists(self, adapter, cfs_url):
        adapter.write_bytes(f"{cfs_url}/f", b"1")
        adapter.utime(f"{cfs_url}/f", (10, 20))
        assert adapter.stat(f"{cfs_url}/f").st_mtime == 20
        assert adapter.exists(f"{cfs_url}/f")
        assert not adapter.exists(f"{cfs_url}/nope")

    def test_statfs(self, adapter, cfs_url):
        fs = adapter.statfs(cfs_url + "/")
        assert fs.total_bytes > 0

    def test_fileno_unsupported(self, adapter, cfs_url):
        with adapter.open(f"{cfs_url}/f", "wb") as f:
            with pytest.raises(OSError):
                f.fileno()

    def test_write_to_readonly_handle_rejected(self, adapter, cfs_url):
        adapter.write_bytes(f"{cfs_url}/f", b"1")
        with adapter.open(f"{cfs_url}/f", "rb") as f:
            with pytest.raises(io.UnsupportedOperation):
                f.write(b"x")

    def test_sync_writes_switch(self, pool, cfs_url):
        a = Adapter(pool=pool, policy=FAST, sync_writes=True)
        with a.open(f"{cfs_url}/durable", "wb") as f:
            f.write(b"synced")
        assert a.read_bytes(f"{cfs_url}/durable") == b"synced"


class TestInterposition:
    def test_unmodified_code_reads_and_writes(self, adapter, cfs_url):
        def legacy_app(path):
            """Plain Python file code, knowing nothing about the TSS."""
            with open(path, "w") as f:
                f.write("legacy data")
            with open(path) as f:
                return f.read()

        with interposed(adapter):
            assert legacy_app(f"{cfs_url}/legacy.txt") == "legacy data"

    def test_os_functions_are_routed(self, adapter, cfs_url):
        with interposed(adapter):
            os.mkdir(f"{cfs_url}/d")
            with open(f"{cfs_url}/d/f", "wb") as f:
                f.write(b"1")
            assert os.listdir(f"{cfs_url}/d") == ["f"]
            assert os.stat(f"{cfs_url}/d/f").st_size == 1
            assert os.path.exists(f"{cfs_url}/d/f")
            assert os.path.isdir(f"{cfs_url}/d")
            os.rename(f"{cfs_url}/d/f", f"{cfs_url}/d/g")
            os.remove(f"{cfs_url}/d/g")
            os.rmdir(f"{cfs_url}/d")

    def test_local_paths_untouched(self, adapter, tmp_path):
        local = tmp_path / "plain.txt"
        with interposed(adapter):
            with open(str(local), "w") as f:
                f.write("still local")
        assert local.read_text() == "still local"

    def test_patch_is_reverted(self, adapter):
        import builtins

        original = builtins.open
        with interposed(adapter):
            assert builtins.open is not original
        assert builtins.open is original

    def test_reverted_even_after_exception(self, adapter):
        import builtins

        original = builtins.open
        with pytest.raises(RuntimeError):
            with interposed(adapter):
                raise RuntimeError("app crashed")
        assert builtins.open is original

    def test_rename_between_worlds_rejected(self, adapter, cfs_url, tmp_path):
        with interposed(adapter):
            with pytest.raises(OSError):
                os.rename(str(tmp_path / "x"), f"{cfs_url}/x")
