"""Recursive abstraction in practice: every abstraction mounts in the
adapter, and unmodified application code runs on all of them.

This is the paper's central architectural claim exercised end to end:
because everything implements the same Unix interface, the adapter (and
therefore unmodified applications) cannot tell a CFS from a DSFS from a
replicated, striped, or versioned filesystem.
"""

import os

import pytest

from repro.adapter.adapter import Adapter
from repro.adapter.interpose import interposed
from repro.core.dsfs import DSFS
from repro.core.cfs import CFS
from repro.core.replfs import ReplicatedFS
from repro.transport.recovery import RetryPolicy
from repro.core.stripefs import StripedFS
from repro.core.versionfs import VersionedFS

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


@pytest.fixture()
def mounted(server_factory, pool):
    """One adapter with all four distributed abstractions mounted."""
    data = [server_factory.new() for _ in range(3)]
    dir_server = server_factory.new()
    dir_client = pool.get(*dir_server.address)
    endpoints = [s.address for s in data]
    for s in data:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        for vol in ("r", "s", "v"):
            c.mkdir(f"/tssdata/{vol}")
    for vol in ("r", "s", "v"):
        dir_client.mkdir(f"/{vol}")

    adapter = Adapter(pool=pool, policy=FAST)
    adapter.mount(
        "/shared",
        DSFS.create(pool, *dir_server.address, "/dsfs", endpoints, name="d", policy=FAST),
    )
    adapter.mount(
        "/safe",
        ReplicatedFS(
            CFS(dir_client, "/r", FAST),
            pool, endpoints, "/tssdata/r", copies=2, policy=FAST,
        ),
    )
    adapter.mount(
        "/fast",
        StripedFS(
            CFS(dir_client, "/s", FAST),
            pool, endpoints, "/tssdata/s", stripe_size=1024, policy=FAST,
        ),
    )
    adapter.mount(
        "/history",
        VersionedFS(
            CFS(dir_client, "/v", FAST),
            pool, endpoints, "/tssdata/v", policy=FAST,
        ),
    )
    return adapter


MOUNTS = ["/shared", "/safe", "/fast", "/history"]


class TestUniformSurface:
    @pytest.mark.parametrize("mount", MOUNTS)
    def test_posix_surface_is_identical(self, mounted, mount):
        """The same call sequence works against every abstraction."""
        payload = bytes(i % 251 for i in range(5000))
        with mounted.open(f"{mount}/file.bin", "wb") as f:
            f.write(payload)
        assert mounted.stat(f"{mount}/file.bin").st_size == 5000
        with mounted.open(f"{mount}/file.bin", "rb") as f:
            f.seek(1000)
            assert f.read(100) == payload[1000:1100]
        mounted.mkdir(f"{mount}/sub")
        mounted.rename(f"{mount}/file.bin", f"{mount}/sub/file.bin")
        assert mounted.listdir(f"{mount}/sub") == ["file.bin"]
        mounted.unlink(f"{mount}/sub/file.bin")
        mounted.rmdir(f"{mount}/sub")
        assert mounted.listdir(mount + "/") == []

    @pytest.mark.parametrize("mount", MOUNTS)
    def test_unmodified_code_cannot_tell_them_apart(self, mounted, mount):
        def legacy_app(base):
            os.mkdir(base + "/out")
            with open(base + "/out/result.txt", "w") as f:
                f.write("computed result\n")
            with open(base + "/out/result.txt") as f:
                return f.read()

        with interposed(mounted):
            assert legacy_app(mount) == "computed result\n"

    def test_cross_abstraction_rename_is_exdev(self, mounted):
        mounted.write_bytes("/shared/x", b"1")
        with pytest.raises(OSError):
            mounted.rename("/shared/x", "/safe/x")

    def test_each_mount_keeps_its_special_power(self, mounted, pool):
        # replicated: survives checksum verification with 2 copies
        mounted.write_bytes("/safe/f", b"two copies")
        replfs = mounted.resolve("/safe/f")[0]
        assert set(replfs.verify("/f").values()) == {"ok"}
        # striped: data balanced across 3 servers
        mounted.write_bytes("/fast/f", b"z" * 6 * 1024)
        stripefs = mounted.resolve("/fast/f")[0]
        assert len(stripefs.stub_for("/f").locations) == 3
        # versioned: history accumulates through the adapter
        mounted.write_bytes("/history/f", b"v1")
        mounted.write_bytes("/history/f", b"v2")
        vfs = mounted.resolve("/history/f")[0]
        assert [v.number for v in vfs.versions("/f")] == [1, 2]
        assert vfs.read_version("/f", 1) == b"v1"
