"""Unit tests for the Filesystem bulk helpers and stat adaptation, run
over :class:`StoreFilesystem`, the bridge from any storage resource to
the abstraction interface."""

import os
import stat as stat_mod

import pytest

from repro.chirp.protocol import ChirpStat, OpenFlags
from repro.core.interface import FileHandle, StatResult, to_stat_result
from repro.core.storefs import StoreFilesystem
from repro.store import make_store
from repro.util import errors as E


def store_fs(kind, tmp_path):
    root = tmp_path / f"store-{kind}"
    root.mkdir()
    return StoreFilesystem(make_store(kind, str(root)))


@pytest.fixture()
def fs(tmp_path):
    return StoreFilesystem(make_store("local", str(tmp_path)))


class TestBulkHelpers:
    def test_read_write_file_roundtrip(self, fs):
        blob = bytes(range(256)) * 100
        assert fs.write_file("/f.bin", blob) == len(blob)
        assert fs.read_file("/f.bin") == blob

    def test_write_file_truncates_previous(self, fs):
        fs.write_file("/f", b"a much longer earlier version")
        fs.write_file("/f", b"short")
        assert fs.read_file("/f") == b"short"

    def test_empty_file(self, fs):
        fs.write_file("/empty", b"")
        assert fs.read_file("/empty") == b""
        assert fs.stat("/empty").size == 0

    def test_makedirs_creates_chain(self, fs):
        fs.makedirs("/a/b/c/d")
        assert fs.stat("/a/b/c/d").is_dir

    def test_makedirs_tolerates_existing(self, fs):
        fs.makedirs("/a/b")
        fs.makedirs("/a/b/c")  # /a and /a/b already exist
        assert fs.stat("/a/b/c").is_dir

    def test_exists(self, fs):
        assert not fs.exists("/nope")
        fs.write_file("/yes", b"1")
        assert fs.exists("/yes")

    def test_walk_structure(self, fs):
        fs.makedirs("/a/b")
        fs.write_file("/top.txt", b"1")
        fs.write_file("/a/mid.txt", b"2")
        fs.write_file("/a/b/leaf.txt", b"3")
        seen = {d: (set(dirs), set(files)) for d, dirs, files in fs.walk("/")}
        assert seen["/"] == ({"a"}, {"top.txt"})
        assert seen["/a"] == ({"b"}, {"mid.txt"})
        assert seen["/a/b"] == (set(), {"leaf.txt"})

    def test_read_missing_raises_chirp_error(self, fs):
        with pytest.raises(E.ChirpError):
            fs.read_file("/missing")

    def test_listdir_is_sorted(self, fs):
        for name in ("b", "c", "a"):
            fs.write_file("/" + name, b"")
        assert fs.listdir("/") == ["a", "b", "c"]

    def test_open_returns_the_stores_own_handle(self, fs):
        fs.write_file("/f", b"x")
        with fs.open("/f", OpenFlags(read=True)) as handle:
            assert isinstance(handle, FileHandle)
            assert type(handle).__module__.startswith("repro.store.")


class TestBulkHelpersOnEveryStore(TestBulkHelpers):
    """The same battery over the memory and CAS stores (the class above
    runs it on a local directory)."""

    @pytest.fixture(params=("memory", "cas"))
    def fs(self, request, tmp_path):
        return store_fs(request.param, tmp_path)


class TestLocalMount:
    def test_dotdot_symlink_escape_is_not_authorized(self, tmp_path):
        fs = store_fs("local", tmp_path)
        os.symlink("..", str(tmp_path / "store-local" / "up"))
        with pytest.raises(E.NotAuthorizedError):
            fs.stat("/up/store-local")
        with pytest.raises(E.NotAuthorizedError):
            fs.write_file("/up/escaped", b"x")
        assert not (tmp_path / "escaped").exists()

    def test_statfs_is_the_store_capacity(self, fs):
        assert fs.statfs().total_bytes == fs.store.capacity()[0]


class TestStatAdaptation:
    def test_field_mapping(self):
        st = ChirpStat(
            device=1, inode=2, mode=0o100644, nlink=1, uid=3, gid=4,
            size=500, atime=10, mtime=20, ctime=30,
        )
        result = to_stat_result(st)
        assert isinstance(result, StatResult)
        assert result.st_ino == 2
        assert result.st_size == 500
        assert result.st_mtime == 20
        assert stat_mod.S_ISREG(result.st_mode)

    def test_usable_by_stat_module_helpers(self, fs, tmp_path):
        fs.mkdir("/d")
        result = to_stat_result(fs.stat("/d"))
        assert stat_mod.S_ISDIR(result.st_mode)
        assert stat_mod.S_IMODE(result.st_mode) == stat_mod.S_IMODE(
            os.stat(str(tmp_path / "d")).st_mode
        )

    def test_tuple_order_matches_os_stat_result(self, fs):
        fs.write_file("/f", b"xyz")
        ours = to_stat_result(fs.stat("/f"))
        # os.stat_result's first 10 fields in order
        keys = (
            "st_mode", "st_ino", "st_dev", "st_nlink", "st_uid",
            "st_gid", "st_size", "st_atime", "st_mtime", "st_ctime",
        )
        for i, key in enumerate(keys):
            assert ours[i] == getattr(ours, key)
