"""Unit tests for adapter internals (no sockets: local-directory mounts,
each a StoreFilesystem over a LocalDirStore)."""

import errno
import io
import os
import pathlib

import pytest

from repro.adapter.adapter import Adapter, _parse_endpoint
from repro.adapter.fileobj import AdapterFile
from repro.adapter.interpose import interposed
from repro.chirp.protocol import OpenFlags
from repro.core.storefs import StoreFilesystem
from repro.store.localdir import LocalDirStore


@pytest.fixture()
def adapter(tmp_path):
    a = Adapter()
    root = tmp_path / "tree"
    root.mkdir()
    (root / "f.txt").write_text("content")
    (root / "sub").mkdir()
    a.mount("/mnt", StoreFilesystem(LocalDirStore(str(root))))
    return a


class TestResolution:
    def test_longest_mount_prefix_wins(self, adapter, tmp_path):
        inner_root = tmp_path / "inner"
        inner_root.mkdir()
        (inner_root / "deep.txt").write_text("deep")
        adapter.mount("/mnt/sub", StoreFilesystem(LocalDirStore(str(inner_root))))
        fs, inner = adapter.resolve("/mnt/sub/deep.txt")
        assert inner == "/deep.txt"
        assert adapter.read_bytes("/mnt/sub/deep.txt") == b"deep"
        # /mnt itself still resolves to the outer filesystem
        assert adapter.read_bytes("/mnt/f.txt") == b"content"

    def test_mount_exactly_at_prefix(self, adapter):
        fs, inner = adapter.resolve("/mnt")
        assert inner == "/"

    def test_component_boundary(self, adapter):
        with pytest.raises(OSError):
            adapter.resolve("/mntx/f")  # /mntx is not under /mnt

    def test_remount_replaces(self, adapter, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        (other / "g.txt").write_text("other")
        adapter.mount("/mnt", StoreFilesystem(LocalDirStore(str(other))))
        assert adapter.listdir("/mnt") == ["g.txt"]

    def test_mount_over_root_rejected(self, adapter, tmp_path):
        with pytest.raises(ValueError):
            adapter.mount("/", StoreFilesystem(LocalDirStore(str(tmp_path))))

    def test_claims(self, adapter):
        assert adapter.claims("/mnt/f.txt")
        assert adapter.claims("/mnt")
        assert not adapter.claims("/etc/passwd")
        assert not adapter.claims("/m")

    def test_mountlist_feeds_resolution(self, adapter):
        adapter.add_mount_rule("/project", "/mnt/sub")
        fs, inner = adapter.resolve("/project/x")
        assert inner == "/sub/x"

    def test_parse_endpoint(self):
        assert _parse_endpoint("host:9094") == ("host", 9094)
        with pytest.raises(OSError):
            _parse_endpoint("no-port")
        with pytest.raises(OSError):
            _parse_endpoint("host:banana")


class TestOpenModes:
    def test_default_binary_is_raw(self, adapter):
        with adapter.open("/mnt/f.txt", "rb") as f:
            assert isinstance(f, AdapterFile)

    def test_requested_binary_buffering(self, adapter):
        with adapter.open("/mnt/f.txt", "rb", buffering=4096) as f:
            assert isinstance(f, io.BufferedReader)
            assert f.read() == b"content"

    def test_text_mode_is_wrapped(self, adapter):
        with adapter.open("/mnt/f.txt", "r") as f:
            assert isinstance(f, io.TextIOWrapper)
            assert f.read() == "content"

    def test_unbuffered_text_rejected(self, adapter):
        with pytest.raises(ValueError):
            adapter.open("/mnt/f.txt", "r", buffering=0)

    def test_buffered_writer_type(self, adapter):
        with adapter.open("/mnt/new.bin", "wb", buffering=4096) as f:
            assert isinstance(f, io.BufferedWriter)
            f.write(b"x")

    def test_buffered_random_type(self, adapter):
        with adapter.open("/mnt/new2.bin", "w+b", buffering=4096) as f:
            assert isinstance(f, io.BufferedRandom)
            f.write(b"x")

    def test_encoding_honored(self, adapter):
        with adapter.open("/mnt/uni.txt", "w", encoding="utf-16") as f:
            f.write("héllo")
        with adapter.open("/mnt/uni.txt", "r", encoding="utf-16") as f:
            assert f.read() == "héllo"


class TestErrnoTranslation:
    def test_enoent(self, adapter):
        with pytest.raises(FileNotFoundError):
            adapter.stat("/mnt/nope")

    def test_eexist(self, adapter):
        with pytest.raises(FileExistsError):
            adapter.mkdir("/mnt/sub")

    def test_enotempty(self, adapter):
        adapter.write_bytes("/mnt/sub/x", b"1")
        with pytest.raises(OSError) as exc:
            adapter.rmdir("/mnt/sub")
        assert exc.value.errno == errno.ENOTEMPTY

    def test_eisdir_on_open(self, adapter):
        with pytest.raises(OSError) as exc:
            adapter.open("/mnt/sub", "rb")
        assert exc.value.errno == errno.EISDIR

    def test_outside_namespace_is_enoent(self, adapter):
        with pytest.raises(OSError) as exc:
            adapter.listdir("/elsewhere")
        assert exc.value.errno == errno.ENOENT


class TestInterposeEdgeCases:
    def test_pathlike_paths_are_routed(self, adapter):
        with interposed(adapter):
            path = pathlib.PurePosixPath("/mnt/f.txt")
            assert os.stat(path).st_size == 7
            with open(path) as f:
                assert f.read() == "content"

    def test_file_descriptor_args_fall_through(self, adapter, tmp_path):
        real = tmp_path / "plain.txt"
        real.write_text("plain")
        with interposed(adapter):
            fd = os.open(str(real), os.O_RDONLY)
            try:
                assert os.stat(fd).st_size == 5  # int arg: original os.stat
            finally:
                os.close(fd)

    def test_relative_paths_fall_through(self, adapter, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rel.txt").write_text("rel")
        with interposed(adapter):
            with open("rel.txt") as f:
                assert f.read() == "rel"

    def test_bytes_paths_fall_through(self, adapter, tmp_path):
        real = tmp_path / "b.txt"
        real.write_text("b")
        with interposed(adapter):
            with open(os.fsencode(str(real))) as f:
                assert f.read() == "b"

    def test_nested_same_adapter_is_fine(self, adapter):
        with interposed(adapter):
            with interposed(adapter):
                assert os.path.exists("/mnt/f.txt")
            # inner exit restored the *outer* patch's originals, so the
            # outer context still works for local paths
        assert not os.path.exists("/mnt/f.txt")


class TestStoreHandleViaInterface:
    def test_statfs(self, adapter):
        fs = adapter.statfs("/mnt")
        assert fs.total_bytes > 0

    def test_walk(self, adapter):
        adapter.write_bytes("/mnt/sub/inner.txt", b"1")
        seen = {d: (dirs, files) for d, dirs, files in adapter.walk("/mnt")}
        assert "/mnt" in seen
        assert "sub" in seen["/mnt"][0]
        assert "inner.txt" in seen["/mnt/sub"][1]

    def test_read_write_bytes(self, adapter):
        adapter.write_bytes("/mnt/data.bin", b"\x00\x01")
        assert adapter.read_bytes("/mnt/data.bin") == b"\x00\x01"
