"""One ``Filesystem`` contract, one battery over every stack.

A single script of namespace and data operations runs on every
implementation of :class:`~repro.core.interface.Filesystem`: a
``StoreFilesystem`` over each store, CFS, DPFS, DSFS, the replicated,
striped and versioned layouts over loopback servers, and
``CachedFilesystem`` in ``private`` and ``ttl`` mode over DSFS.  The
table below holds each step's expected outcome, a value or an error
class, once for all of them.  Where stacks legitimately differ, the row
names the family that differs and what it sees instead.  A DSFS-shaped
volume whose tree and members live in memory runs the same script with
``socket.socket`` patched to raise.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.cache.fs import CachedFilesystem
from repro.cache.manager import CacheManager
from repro.cache.policy import CachePolicy
from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.core.dpfs import DPFS
from repro.core.dsfs import DSFS
from repro.core.placement import RoundRobinPlacement
from repro.core.replfs import ReplicatedFS
from repro.core.storefs import StoreFilesystem
from repro.core.stripefs import StripedFS
from repro.core.versionfs import VersionedFS
from repro.store import CasStore, LocalDirStore, MemoryStore
from repro.transport.recovery import RetryPolicy
from repro.util import errors as E
from tests.volumes import memory_volume

FAST = RetryPolicy(max_attempts=3, initial_delay=0.02)

READ = OpenFlags(read=True)
WCX = OpenFlags(write=True, create=True, exclusive=True)
RWC = OpenFlags(read=True, write=True, create=True)
WC = OpenFlags(write=True, create=True)


def pwrite_new(path: str, flags: OpenFlags, data: bytes, offset: int):
    def op(fs):
        with fs.open(path, flags) as h:
            return h.pwrite(data, offset)

    return op


def close_new(path: str):
    def op(fs):
        fs.open(path, WC).close()

    return op


def utime_then_mtime(path: str, mtime: int):
    def op(fs):
        fs.utime(path, mtime - 1, mtime)
        return fs.stat(path).mtime

    return op


# The families a stack belongs to, for the rows where they differ.
STUB = "stub"  # a stub engine: the namespace entry of a file is its stub

# (step, op, expected, {family: expected there instead})
SCRIPT = [
    ("mkdir /d", lambda fs: fs.mkdir("/d"), None),
    ("mkdir /d again", lambda fs: fs.mkdir("/d"), E.AlreadyExistsError),
    ("stat /d is a directory", lambda fs: fs.stat("/d").is_dir, True),
    ("listdir /", lambda fs: sorted(fs.listdir("/")), ["d"]),
    ("write /d/f", lambda fs: fs.write_file("/d/f", b"hello"), 5),
    ("read /d/f", lambda fs: fs.read_file("/d/f"), b"hello"),
    ("stat /d/f size", lambda fs: fs.stat("/d/f").size, 5),
    ("stat /d/f is a file", lambda fs: fs.stat("/d/f").is_file, True),
    ("overwrite /d/f shorter", lambda fs: fs.write_file("/d/f", b"hi"), 2),
    ("read /d/f after overwrite", lambda fs: fs.read_file("/d/f"), b"hi"),
    ("exclusive create over /d/f", lambda fs: fs.open("/d/f", WCX), E.AlreadyExistsError),
    ("exclusive create /d/g", pwrite_new("/d/g", WCX, b"abc", 0), 3),
    ("read /d/g", lambda fs: fs.read_file("/d/g"), b"abc"),
    ("lstat /d/g sees the data", lambda fs: fs.lstat("/d/g").size == 3, True, {STUB: False}),
    ("sparse pwrite /d/s", pwrite_new("/d/s", RWC, b"xy", 10), 2),
    ("stat /d/s size", lambda fs: fs.stat("/d/s").size, 12),
    ("read /d/s hole", lambda fs: fs.read_file("/d/s"), b"\0" * 10 + b"xy"),
    ("truncate /d/s grow", lambda fs: fs.truncate("/d/s", 20), None),
    ("read /d/s grown", lambda fs: fs.read_file("/d/s"), b"\0" * 10 + b"xy" + b"\0" * 8),
    ("truncate /d/s shrink", lambda fs: fs.truncate("/d/s", 4), None),
    ("read /d/s shrunk", lambda fs: fs.read_file("/d/s"), b"\0" * 4),
    ("write empty /d/e", lambda fs: fs.write_file("/d/e", b""), 0),
    ("read empty /d/e", lambda fs: fs.read_file("/d/e"), b""),
    ("create-and-close /d/e2", close_new("/d/e2"), None),
    ("stat /d/e2 size", lambda fs: fs.stat("/d/e2").size, 0),
    ("stat missing", lambda fs: fs.stat("/nope"), E.DoesNotExistError),
    ("read missing", lambda fs: fs.read_file("/nope"), E.DoesNotExistError),
    ("open missing", lambda fs: fs.open("/nope", READ), E.DoesNotExistError),
    ("unlink missing", lambda fs: fs.unlink("/nope"), E.DoesNotExistError),
    ("truncate missing", lambda fs: fs.truncate("/nope", 0), E.DoesNotExistError),
    ("listdir missing", lambda fs: fs.listdir("/nope"), E.DoesNotExistError),
    ("rmdir missing", lambda fs: fs.rmdir("/nope"), E.DoesNotExistError),
    ("rename missing", lambda fs: fs.rename("/nope", "/x"), E.DoesNotExistError),
    ("mkdir under missing", lambda fs: fs.mkdir("/nope/sub"), E.DoesNotExistError),
    ("write under missing", lambda fs: fs.write_file("/nope/f", b"x"), E.DoesNotExistError),
    ("rename file out of /d", lambda fs: fs.rename("/d/f", "/f2"), None),
    ("read renamed file", lambda fs: fs.read_file("/f2"), b"hi"),
    ("rename file onto a file", lambda fs: fs.rename("/d/g", "/f2"), None),
    ("read replaced file", lambda fs: fs.read_file("/f2"), b"abc"),
    ("rename directory", lambda fs: fs.rename("/d", "/d2"), None),
    ("listdir renamed dir", lambda fs: sorted(fs.listdir("/d2")), ["e", "e2", "s"]),
    ("mkdir /d2/sub", lambda fs: fs.mkdir("/d2/sub"), None),
    ("rename dir into itself", lambda fs: fs.rename("/d2", "/d2/sub/x"), E.InvalidRequestError),
    ("rmdir non-empty", lambda fs: fs.rmdir("/d2"), E.NotEmptyError),
    ("rmdir a file", lambda fs: fs.rmdir("/f2"), E.NotADirectoryError_),
    ("utime a directory", utime_then_mtime("/d2/sub", 1_000_000), 1_000_000),
    ("utime a file", utime_then_mtime("/f2", 2_000_000), 2_000_000),
    ("rmdir /d2/sub", lambda fs: fs.rmdir("/d2/sub"), None),
    ("unlink /f2", lambda fs: fs.unlink("/f2"), None),
    ("stat unlinked", lambda fs: fs.stat("/f2"), E.DoesNotExistError),
    ("listdir / at the end", lambda fs: sorted(fs.listdir("/")), ["d2"]),
    ("statfs reports room", lambda fs: fs.statfs().total_bytes >= fs.statfs().free_bytes > 0, True),
]


def run_script(fs, families: set[str]) -> list[str]:
    """Every step whose outcome differs from the table, as a message."""
    mismatches = []
    for step, op, expected, *override in SCRIPT:
        for family, instead in (override[0] if override else {}).items():
            if family in families:
                expected = instead
        try:
            got = op(fs)
        except E.ChirpError as exc:
            got = type(exc)
        if isinstance(expected, type):
            ok = isinstance(got, type) and issubclass(got, expected)
        else:
            ok = got == expected
        if not ok:
            mismatches.append(f"{step}: expected {expected!r}, got {got!r}")
    return mismatches


# ---------------------------------------------------------------------------
# the stacks
# ---------------------------------------------------------------------------


class Stacks:
    """Builds each stack; remembers what to close."""

    def __init__(self, server_factory, pool, tmp_path):
        self.server_factory = server_factory
        self.pool = pool
        self.tmp_path = tmp_path
        self.caches: list[CacheManager] = []

    def addresses(self, n: int) -> list[tuple[str, int]]:
        return [self.server_factory.new().address for _ in range(n)]

    def dsfs(self) -> DSFS:
        dir_address, *data = self.addresses(4)
        return DSFS.create(
            self.pool, *dir_address, "/vol", data, name="vol",
            placement=RoundRobinPlacement(seed=1), policy=FAST,
        )

    def layout(self, cls, **kwargs):
        dsfs = self.dsfs()
        client = self.pool.get(*dsfs.dir_endpoint)
        client.mkdir("/layout")
        tree = CFS(client, "/layout", FAST)
        return cls(tree, self.pool, dsfs.servers, dsfs.data_dir, policy=FAST, **kwargs)

    def cached(self, mode: str, fs):
        cache = CacheManager(CachePolicy(mode=mode, block_size=4096))
        self.caches.append(cache)
        return CachedFilesystem(fs, cache)

    def build(self, name: str):
        root = self.tmp_path / name
        root.mkdir()
        builders = {
            "store-memory": lambda: StoreFilesystem(MemoryStore()),
            "store-local": lambda: StoreFilesystem(LocalDirStore(str(root))),
            "store-cas": lambda: StoreFilesystem(CasStore(str(root))),
            "cfs": lambda: CFS(self.pool.get(*self.addresses(1)[0]), "/", FAST),
            "dpfs": lambda: DPFS.create(
                str(root / "meta"), self.pool, self.addresses(3), name="vol", policy=FAST
            ),
            "dsfs": self.dsfs,
            "replicated": lambda: self.layout(ReplicatedFS, copies=2),
            "striped": lambda: self.layout(StripedFS, stripe_size=16),
            "versioned": lambda: self.layout(VersionedFS),
            "cached-private-dsfs": lambda: self.cached("private", self.dsfs()),
            "cached-ttl-dsfs": lambda: self.cached("ttl", self.dsfs()),
        }
        return builders[name]()

    def close(self):
        for cache in self.caches:
            cache.close()


FAMILIES = {
    "store-memory": set(),
    "store-local": set(),
    "store-cas": set(),
    "cfs": set(),
    "dpfs": {STUB},
    "dsfs": {STUB},
    "replicated": {STUB},
    "striped": {STUB},
    "versioned": {STUB},
    "cached-private-dsfs": {STUB},
    "cached-ttl-dsfs": {STUB},
}


@pytest.fixture()
def stacks(server_factory, pool, tmp_path):
    s = Stacks(server_factory, pool, tmp_path)
    yield s
    s.close()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_the_script_on_every_stack(stacks, name):
    assert run_script(stacks.build(name), FAMILIES[name]) == []


def test_a_socket_free_volume_needs_no_socket_and_no_thread(monkeypatch):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket-free volume opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    before = threading.enumerate()
    assert run_script(memory_volume(3), {STUB}) == []
    assert threading.enumerate() == before
