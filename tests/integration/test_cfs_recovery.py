"""Integration tests: CFS semantics and disconnection recovery.

These exercise the paper's failure story end to end: the server frees
everything on disconnect; the adapter-side handle reconnects with
backoff, re-opens, verifies the inode, and either carries on invisibly or
reports a stale handle.
"""

import os

import pytest

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import OpenFlags
from repro.chirp.server import FileServer, ServerConfig
from repro.core.cfs import CFS
from repro.transport.recovery import RetryPolicy
from repro.util import errors as E

FAST = dict(max_attempts=8, initial_delay=0.05, multiplier=1.5, max_delay=0.4)


@pytest.fixture()
def cfs_setup(tmp_path, auth_context, credentials):
    root = tmp_path / "export"
    root.mkdir()
    server = FileServer(
        ServerConfig(root=str(root), owner="unix:root", auth=auth_context)
    ).start()
    client = ChirpClient(*server.address, credentials=credentials)
    cfs = CFS(client, policy=RetryPolicy(**FAST))
    state = {"server": server, "root": root, "auth": auth_context}
    yield cfs, client, state
    client.close()
    state["server"].stop()


def restart_server(state):
    """Stop the server and bring a fresh one up on the same port+root."""
    addr = state["server"].address
    state["server"].stop()
    state["server"] = FileServer(
        ServerConfig(
            root=str(state["root"]),
            owner="unix:root",
            host=addr[0],
            port=addr[1],
            auth=state["auth"],
        )
    ).start()


class TestCfsBasics:
    def test_write_read_via_interface(self, cfs_setup):
        cfs, _, _ = cfs_setup
        cfs.write_file("/f.txt", b"central")
        assert cfs.read_file("/f.txt") == b"central"
        assert cfs.stat("/f.txt").size == 7

    def test_namespace_ops(self, cfs_setup):
        cfs, _, _ = cfs_setup
        cfs.mkdir("/d")
        cfs.write_file("/d/a", b"1")
        assert cfs.listdir("/d") == ["a"]
        cfs.rename("/d/a", "/d/b")
        cfs.unlink("/d/b")
        cfs.rmdir("/d")

    def test_subtree_root_mapping(self, cfs_setup):
        cfs, client, _ = cfs_setup
        cfs.mkdir("/sub")
        sub = CFS(client, root="/sub", policy=RetryPolicy(**FAST))
        sub.write_file("/inner.txt", b"scoped")
        assert cfs.read_file("/sub/inner.txt") == b"scoped"
        assert sub.listdir("/") == ["inner.txt"]

    def test_handles_are_position_free(self, cfs_setup):
        cfs, _, _ = cfs_setup
        cfs.write_file("/f", b"0123456789")
        with cfs.open("/f", OpenFlags(read=True)) as h:
            assert h.pread(3, 7) == b"789"
            assert h.pread(3, 0) == b"012"

    def test_sync_writes_flag_adds_o_sync(self, cfs_setup):
        cfs, client, _ = cfs_setup
        sync_cfs = CFS(client, policy=RetryPolicy(**FAST), sync_writes=True)
        sync_cfs.write_file("/s.txt", b"durable")
        assert sync_cfs.read_file("/s.txt") == b"durable"

    def test_no_client_caching_cross_visibility(self, cfs_setup, credentials):
        """Direct access: a second client sees writes immediately."""
        cfs, _, state = cfs_setup
        other = ChirpClient(*state["server"].address, credentials=credentials)
        cfs.write_file("/shared", b"v1")
        assert other.getfile("/shared") == b"v1"
        other.putfile("/shared", b"v2")
        assert cfs.read_file("/shared") == b"v2"
        other.close()


class TestRecovery:
    def test_path_ops_survive_server_restart(self, cfs_setup):
        cfs, _, state = cfs_setup
        cfs.write_file("/f", b"before")
        restart_server(state)
        assert cfs.read_file("/f") == b"before"  # transparent reconnect

    def test_open_handle_survives_restart(self, cfs_setup):
        cfs, _, state = cfs_setup
        cfs.write_file("/f", b"0123456789")
        handle = cfs.open("/f", OpenFlags(read=True))
        assert handle.pread(3, 0) == b"012"
        restart_server(state)
        # same inode on the re-opened file: the handle recovers invisibly
        assert handle.pread(3, 7) == b"789"
        handle.close()

    def test_replaced_file_yields_stale_handle(self, cfs_setup):
        cfs, _, state = cfs_setup
        cfs.write_file("/f", b"original")
        handle = cfs.open("/f", OpenFlags(read=True))
        assert handle.pread(8, 0) == b"original"
        state["server"].stop()
        # replace the file while the server is down -- built via rename so
        # the imposter is guaranteed a different inode (a bare
        # unlink+create could reuse the freed inode number)
        path = state["root"] / "f"
        imposter = state["root"] / "f.new"
        imposter.write_bytes(b"imposter")
        os.replace(str(imposter), str(path))
        restart_server(state)
        with pytest.raises(E.StaleHandleError):
            handle.pread(8, 0)
        handle.close()

    def test_deleted_file_yields_missing_on_recovery(self, cfs_setup):
        cfs, _, state = cfs_setup
        cfs.write_file("/f", b"data")
        handle = cfs.open("/f", OpenFlags(read=True))
        state["server"].stop()
        os.unlink(str(state["root"] / "f"))
        restart_server(state)
        with pytest.raises((E.DoesNotExistError, E.StaleHandleError)):
            handle.pread(4, 0)
        handle.close()

    def test_reopen_does_not_truncate(self, cfs_setup):
        """Recovery must strip O_TRUNC: a write handle that reconnects
        must never clobber the data it was writing."""
        cfs, _, state = cfs_setup
        flags = OpenFlags(read=True, write=True, create=True, truncate=True)
        handle = cfs.open("/f", flags)
        handle.pwrite(b"precious", 0)
        restart_server(state)
        handle.pwrite(b"X", 8)  # recovers; must not truncate
        assert handle.pread(9, 0) == b"preciousX"
        handle.close()

    def test_two_handles_share_one_reconnect(self, cfs_setup):
        cfs, client, state = cfs_setup
        cfs.write_file("/a", b"aaa")
        cfs.write_file("/b", b"bbb")
        ha = cfs.open("/a", OpenFlags(read=True))
        hb = cfs.open("/b", OpenFlags(read=True))
        restart_server(state)
        gen_before = client.generation
        assert ha.pread(3, 0) == b"aaa"  # triggers the reconnect
        assert hb.pread(3, 0) == b"bbb"  # reuses the new connection
        assert client.generation == gen_before + 1

    def test_server_down_for_good_raises_disconnected(self, cfs_setup):
        cfs, _, state = cfs_setup
        cfs.write_file("/f", b"x")
        state["server"].stop()
        with pytest.raises(E.DisconnectedError):
            cfs.read_file("/f")

    def test_retry_disabled_fails_fast(self, cfs_setup, credentials):
        cfs, _, state = cfs_setup
        cfs.write_file("/f", b"x")
        client2 = ChirpClient(*state["server"].address, credentials=credentials)
        no_retry = CFS(client2, policy=RetryPolicy(max_attempts=1))
        state["server"].stop()
        with pytest.raises(E.DisconnectedError):
            no_retry.read_file("/f")
        client2.close()

    def test_closed_handle_rejects_io(self, cfs_setup):
        cfs, _, _ = cfs_setup
        cfs.write_file("/f", b"x")
        handle = cfs.open("/f", OpenFlags(read=True))
        handle.close()
        with pytest.raises(E.DisconnectedError):
            handle.pread(1, 0)
