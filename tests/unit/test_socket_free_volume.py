"""The stub engine over members and trees that are plain filesystems.

Every volume here is a socket-free one (:func:`tests.volumes.memory_volume`):
the directory tree and the data servers are ``StoreFilesystem(MemoryStore())``.
That makes two kinds of test possible that a loopback volume cannot host:

- races injected at an exact step of an operation, through a tree that
  runs the racing call inside the step, not sampled from threads;
- layouts nested over other volumes.
"""

from __future__ import annotations

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.fsck import fsck_volume
from repro.core.interface import FileHandle
from repro.core.replfs import ReplicatedFS
from repro.core.storefs import StoreFilesystem
from repro.core.stripefs import StripedFS
from repro.core.stubfs import StubFilesystem
from repro.store import MemoryStore
from repro.util.errors import AlreadyExistsError, DisconnectedError
from tests.volumes import memory_volume


class RacingTree(StoreFilesystem):
    """An in-memory volume tree that runs ``race()`` once, inside the
    step named by :meth:`arm`:

    - ``"failed create"``: right after an exclusive create that found
      the entry already there;
    - ``"lookup"``: inside a stub lookup, between its read (which then
      finds nothing) and its stat (which then finds the racing entry),
      the order a disk store's lookup takes.
    """

    def __init__(self):
        super().__init__(MemoryStore())
        self._step = None
        self._race = None

    def arm(self, step: str, race) -> None:
        self._step, self._race = step, race

    def _at(self, step: str) -> bool:
        if self._step != step:
            return False
        self._step = None
        self._race()
        return True

    def put(self, path, data, flags, mode=0o644):
        try:
            return super().put(path, data, flags, mode)
        except AlreadyExistsError:
            self._at("failed create")
            raise

    def stat_read(self, path, limit):
        if self._at("lookup"):
            return self.stat(path), None
        return super().stat_read(path, limit)


@pytest.fixture()
def racing():
    """A socket-free volume over a :class:`RacingTree`, and a second
    client of the same volume to race it with."""
    tree = RacingTree()
    fs = memory_volume(tree=tree)
    members = {ep: fs.member(ep) for ep in fs.servers}
    other = StubFilesystem(tree, None, fs.servers, fs.data_dir, members=members.__getitem__)
    return fs, other, tree


class TestRaces:
    def test_write_file_survives_an_unlink_after_its_create_failed(self, racing):
        fs, other, tree = racing
        fs.write_file("/f", b"old")
        tree.arm("failed create", lambda: other.unlink("/f"))
        assert fs.write_file("/f", b"new") == 3
        assert fs.read_file("/f") == b"new"
        assert fsck_volume(fs).clean

    def test_open_create_survives_an_unlink_after_its_create_failed(self, racing):
        fs, other, tree = racing
        fs.write_file("/f", b"old")
        tree.arm("failed create", lambda: other.unlink("/f"))
        with fs.open("/f", OpenFlags(write=True, create=True, truncate=True)) as h:
            h.pwrite(b"new", 0)
        assert fs.read_file("/f") == b"new"
        assert fsck_volume(fs).clean

    def test_a_lookup_racing_unlink_and_create_reads_the_new_stub(self, racing):
        fs, other, tree = racing
        fs.write_file("/f", b"first")

        def replace():
            other.unlink("/f")
            other.write_file("/f", b"second")

        tree.arm("lookup", replace)
        assert fs.stat("/f").size == len(b"second")
        assert fs.read_file("/f") == b"second"


class TestFsck:
    def test_orphans_and_dangling_stubs(self):
        fs = memory_volume()
        fs.mkdir("/d")
        for i in range(6):
            fs.write_file(f"/d/f{i}", b"x" * i)
        assert fsck_volume(fs).clean
        stub = fs.stub_for("/d/f2")
        fs.member(stub.endpoint).unlink(stub.path)
        stray = fs.servers[1]
        fs.member(stray).write_file(fs.data_dir + "/file-stray", b"no stub")
        report = fsck_volume(fs, remove_dangling=True, remove_orphans=True)
        assert report.dangling_stubs == {"/d/f2": "no data file"}
        assert report.orphan_data == [(*stray, fs.data_dir + "/file-stray")]
        assert (report.removed_stubs, report.removed_orphans, report.healthy) == (1, 1, 5)
        assert fsck_volume(fs).clean


# ---------------------------------------------------------------------------
# nested layouts
# ---------------------------------------------------------------------------


class _SeverableHandle(FileHandle):
    def __init__(self, inner: FileHandle, owner: "Severable"):
        self.inner, self.owner = inner, owner

    def _run(self, op, *args):
        self.owner.check()
        return op(*args)

    def pread(self, length, offset):
        return self._run(self.inner.pread, length, offset)

    def pwrite(self, data, offset):
        return self._run(self.inner.pwrite, data, offset)

    def fsync(self):
        return self._run(self.inner.fsync)

    def fstat(self):
        return self._run(self.inner.fstat)

    def ftruncate(self, size):
        return self._run(self.inner.ftruncate, size)

    def close(self):
        self.inner.close()


class Severable:
    """A member filesystem that can be cut off: once :attr:`severed`,
    every call on it or on a handle it opened is unreachable."""

    def __init__(self, inner):
        self.inner = inner
        self.severed = False

    def check(self) -> None:
        if self.severed:
            raise DisconnectedError("member volume is gone")

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def call(*args, **kwargs):
            self.check()
            result = method(*args, **kwargs)
            return _SeverableHandle(result, self) if isinstance(result, FileHandle) else result

        return call


class TestNestedLayouts:
    """A replicated volume whose two members are two DSFS volumes."""

    @pytest.fixture()
    def nested(self):
        volumes = {("vol-a", 1): memory_volume(name="a"), ("vol-b", 1): memory_volume(name="b")}
        members = {ep: Severable(vol) for ep, vol in volumes.items()}
        fs = memory_volume(cls=ReplicatedFS, members=members, name="outer", copies=2)
        return fs, volumes, members

    def test_write_read_stat_unlink(self, nested):
        fs, volumes, _ = nested
        data = bytes(range(256)) * 8
        fs.mkdir("/d")
        assert fs.write_file("/d/f", data) == len(data)
        assert fs.read_file("/d/f") == data
        assert fs.stat("/d/f").size == len(data)
        # Each copy is a whole file in each member volume, itself a stub
        # over that volume's own members.
        for member in fs.layout.members(fs.stub_for("/d/f")):
            inner = volumes[member.endpoint]
            assert inner.read_file(member.path) == data
            assert inner.stub_for(member.path).endpoint in inner.servers
        fs.write_file("/d/f", b"shorter")
        assert fs.read_file("/d/f") == b"shorter"
        fs.unlink("/d/f")
        assert fs.listdir("/d") == []
        for vol in volumes.values():
            assert vol.listdir(fs.data_dir) == []
            assert fsck_volume(vol).clean

    def test_failover_when_one_member_volume_is_gone(self, nested):
        fs, _, members = nested
        fs.write_file("/f", b"replicated")
        handle = fs.open("/f", OpenFlags(read=True, write=True))
        first = fs.layout.members(fs.stub_for("/f"))[0]
        members[first.endpoint].severed = True
        assert handle.pread(100, 0) == b"replicated"
        assert handle.degraded and handle.suspects == [f"{first.host}:{first.port}"]
        handle.pwrite(b"R", 0)
        handle.close()
        assert fs.read_file("/f") == b"Replicated"
        assert fs.stat("/f").size == len(b"replicated")
        fs.write_file("/g", b"one copy left")
        assert fs.read_file("/g") == b"one copy left"
        assert len(fs.stub_for("/g").locations) == 1

    def test_striped_over_volumes(self):
        volumes = {(f"vol{i}", 1): memory_volume(name=f"v{i}") for i in range(3)}
        fs = memory_volume(cls=StripedFS, members=volumes, name="outer", stripe_size=4)
        fs.write_file("/f", b"0123456789")
        assert fs.read_file("/f") == b"0123456789"
        with fs.open("/f", OpenFlags(read=True)) as h:
            assert h.pread(6, 3) == b"345678"
        assert fs.stat("/f").size == 10
