"""Crash safety of the DSFS 3-step creation protocol, wire faults included.

The paper's claim: "If a client should fail while creating a file, it
may leave a stub file without any corresponding data file.  This has the
harmless effect of a dangling link: the file is visible in the
namespace, but attempting to open it results in a 'file not found'
error."  These tests sever the wire at each step boundary with the
fault proxy and check exactly that -- no half-created file is ever
*openable*, and every crash residue is distinguishable and cleanable.
"""

from __future__ import annotations

import time

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.core.placement import RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.core.stubfs import WCX, StubFilesystem
from repro.core.stubs import Stub, unique_data_name
from repro.transport.faults import FaultyListener
from repro.transport.health import BreakerPolicy, HealthRegistry
from repro.util.errors import DisconnectedError, DoesNotExistError

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)

READ = OpenFlags(read=True)
CREATE = OpenFlags(write=True, create=True)


class CrashRig:
    """A one-data-server stub filesystem with both wires proxied.

    ``meta_proxy`` sits in front of the directory server and
    ``data_proxy`` in front of the data server, so a test can sever
    either leg of the 3-step creation protocol at will.
    """

    def __init__(self, server_factory, credentials):
        self.dir_server = server_factory.new()
        self.data_server = server_factory.new()
        self.meta_proxy = FaultyListener(self.dir_server.address).start()
        self.data_proxy = FaultyListener(self.data_server.address).start()
        # A lenient breaker: these tests repeatedly kill and restore the
        # same endpoints, and quarantine is not what's under test here.
        self.pool = ClientPool(
            credentials,
            timeout=5.0,
            health=HealthRegistry(BreakerPolicy(failure_threshold=1000)),
        )
        dir_client = self.pool.get(*self.dir_server.address)
        dir_client.mkdir("/vol")
        data_client = self.pool.get(*self.data_server.address)
        data_client.mkdir("/tssdata")
        data_client.mkdir("/tssdata/vol")
        self.data_client = data_client
        meta_client = self.pool.get(*self.meta_proxy.address)
        self.fs = StubFilesystem(
            CFS(meta_client, "/vol", FAST),
            self.pool,
            [self.data_proxy.address],
            "/tssdata/vol",
            placement=RoundRobinPlacement(seed=1),
            policy=FAST,
        )

    def data_files(self) -> list[str]:
        """The data server's export, seen directly (no proxy)."""
        return self.data_client.getdir("/tssdata/vol")

    def close(self):
        self.pool.close()
        self.meta_proxy.stop()
        self.data_proxy.stop()


@pytest.fixture()
def rig(server_factory, credentials):
    r = CrashRig(server_factory, credentials)
    yield r
    r.close()


class TestCrashBeforeStub:
    def test_nothing_visible_anywhere(self, rig):
        """Die between step 1 (local) and step 2: zero remote state."""
        rig.meta_proxy.break_now()
        with pytest.raises(DisconnectedError):
            rig.fs.open("/doomed", CREATE)
        rig.meta_proxy.restore()
        assert rig.fs.listdir("/") == []
        with pytest.raises(DoesNotExistError):
            rig.fs.open("/doomed", READ)
        assert rig.data_files() == []


class TestCrashAfterStub:
    """Die between step 2 and step 3: the dangling-stub window."""

    def plant_dangling_stub(self, rig, path="/ghost") -> Stub:
        # Perform step 2 exactly as _create_or_open would, then "crash":
        # the stub names a data file that was never exclusively created.
        host, port = rig.data_proxy.address
        stub = Stub(host, port, rig.fs.data_dir + "/" + unique_data_name())
        rig.fs.meta.put(path, stub.encode(), WCX)
        return stub

    def test_open_says_file_not_found(self, rig):
        self.plant_dangling_stub(rig)
        with pytest.raises(DoesNotExistError, match="dangling stub"):
            rig.fs.open("/ghost", READ)

    def test_stat_says_file_not_found(self, rig):
        self.plant_dangling_stub(rig)
        with pytest.raises(DoesNotExistError, match="dangling stub"):
            rig.fs.stat("/ghost")

    def test_visible_in_namespace_like_a_dangling_link(self, rig):
        stub = self.plant_dangling_stub(rig)
        assert rig.fs.listdir("/") == ["ghost"]
        # lstat sees the stub itself, as lstat on a dangling symlink does.
        assert rig.fs.lstat("/ghost").size == len(stub.encode())

    def test_unlink_cleans_the_residue(self, rig):
        self.plant_dangling_stub(rig)
        rig.fs.unlink("/ghost")
        assert rig.fs.listdir("/") == []
        # The name is fully reusable afterwards.
        handle = rig.fs.open("/ghost", CREATE)
        handle.pwrite(b"reborn", 0)
        handle.close()
        handle = rig.fs.open("/ghost", READ)
        try:
            assert handle.pread(16, 0) == b"reborn"
        finally:
            handle.close()

    def test_overwrite_never_brings_it_back(self, rig):
        """A whole-file write onto a dangling stub replaces data in place
        (``putflags wt``), which never creates a data file."""
        self.plant_dangling_stub(rig)
        with pytest.raises(DoesNotExistError, match="dangling stub"):
            rig.fs.write_file("/ghost", b"never lands")
        assert rig.data_files() == []
        with pytest.raises(DoesNotExistError, match="dangling stub"):
            rig.fs.stat("/ghost")


class TestCrashDuringDataCreate:
    def test_surviving_client_rolls_back_the_stub(self, rig):
        """Step 3 fails on the wire: cleanup must remove the step-2 stub."""
        rig.data_proxy.break_now()
        with pytest.raises(DisconnectedError):
            rig.fs.open("/halfway", CREATE)
        # No half-created file is visible in the namespace or on disk.
        assert rig.fs.listdir("/") == []
        with pytest.raises(DoesNotExistError):
            rig.fs.lstat("/halfway")
        assert rig.data_files() == []
        # Once the wire heals, the same name creates cleanly.
        rig.data_proxy.restore()
        handle = rig.fs.open("/halfway", CREATE)
        handle.pwrite(b"whole", 0)
        handle.close()
        handle = rig.fs.open("/halfway", READ)
        try:
            assert handle.pread(16, 0) == b"whole"
        finally:
            handle.close()
        assert len(rig.data_files()) == 1

    def test_wire_cut_mid_protocol_leaves_no_openable_file(self, rig):
        """Sever the data wire after a few bytes instead of refusing it."""
        from repro.transport.faults import RESET, FaultPlan, FaultScript

        # The first data connection dies mid-auth; the creation protocol
        # must roll back step 2 before surfacing the error.
        rig.data_proxy.plan = FaultPlan(
            default=FaultScript(cut_after_out=8, action=RESET)
        )
        with pytest.raises(DisconnectedError):
            rig.fs.open("/cut", CREATE)
        assert rig.fs.listdir("/") == []
        assert rig.data_files() == []

    def test_write_file_cut_mid_payload_rolls_back_the_stub(self, rig):
        """Step 3 of a whole-file write is one ``putflags wcx``; cut the
        data wire inside its payload on every attempt."""
        from repro.transport.faults import RESET, FaultPlan, FaultScript

        rig.fs.write_file("/warm", b"the data session speaks v4 now")
        before = rig.data_files()
        rig.data_proxy.plan = FaultPlan(
            default=FaultScript(cut_after_in=64 * 1024, action=RESET)
        )
        rig.data_proxy.break_now(refuse_new=False)
        with pytest.raises(DisconnectedError):
            rig.fs.write_file("/cut", b"p" * (256 * 1024))
        assert rig.fs.listdir("/") == ["warm"]
        with pytest.raises(DoesNotExistError):
            rig.fs.lstat("/cut")
        # Each cut exclusive put removed the file it had created.
        assert _wait_for(lambda: rig.data_files() == before)
        assert rig.fs.read_file("/warm") == b"the data session speaks v4 now"


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()
