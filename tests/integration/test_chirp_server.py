"""Integration tests: the Chirp file server over real TCP."""

import io
import threading
import time

import pytest

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import OpenFlags
from repro.util import errors as E


class TestFileIO:
    def test_open_write_read_close(self, client):
        fd = client.open("/f.txt", "wct")
        assert client.pwrite(fd, b"tactical", 0) == 8
        client.close_fd(fd)
        fd = client.open("/f.txt", "r")
        assert client.pread(fd, 100, 0) == b"tactical"
        client.close_fd(fd)

    def test_pread_beyond_eof_returns_empty(self, client):
        client.putfile("/f", b"abc")
        fd = client.open("/f", "r")
        assert client.pread(fd, 10, 100) == b""
        client.close_fd(fd)

    def test_client_owns_offsets(self, client):
        """pread/pwrite carry explicit offsets; no server-side position."""
        fd = client.open("/f", "wc")
        client.pwrite(fd, b"AA", 4)
        client.pwrite(fd, b"BB", 0)
        client.close_fd(fd)
        assert client.getfile("/f") == b"BB\x00\x00AA"

    def test_append_flag(self, client):
        client.putfile("/log", b"one\n")
        fd = client.open("/log", "wa")
        client.pwrite(fd, b"two\n", 0)
        client.close_fd(fd)
        assert client.getfile("/log") == b"one\ntwo\n"

    def test_large_payload_roundtrip(self, client):
        blob = bytes(range(256)) * 20000  # ~5 MB
        client.putfile("/big.bin", blob)
        assert client.stat("/big.bin").size == len(blob)
        assert client.getfile("/big.bin") == blob

    def test_getfile_streams_to_sink(self, client):
        client.putfile("/f", b"x" * 100000)
        sink = io.BytesIO()
        n = client.getfile("/f", sink)
        assert n == 100000
        assert sink.getvalue() == b"x" * 100000

    def test_putfile_streams_from_file(self, client, tmp_path):
        src = tmp_path / "src.bin"
        src.write_bytes(b"y" * 50000)
        with open(str(src), "rb") as f:
            assert client.putfile("/dst.bin", f) == 50000
        assert client.stat("/dst.bin").size == 50000

    def test_denied_putfile_keeps_stream_in_sync(self, server_factory):
        from repro.auth.methods import ClientCredentials

        server = server_factory.new()
        # a hostname visitor with no rights cannot putfile, but the
        # connection must stay usable afterwards (payload drained)
        c = ChirpClient(
            *server.address, credentials=ClientCredentials(methods=("hostname",))
        )
        with pytest.raises(E.NotAuthorizedError):
            c.putfile("/denied.bin", b"z" * 10000)
        assert c.whoami() == "hostname:localhost"  # stream still in sync
        c.close()

    def test_midwrite_store_failure_keeps_stream_in_sync(
        self, server_factory, credentials
    ):
        """A store fault *partway through* the payload must drain the
        unread tail -- including bytes already sitting in the receive
        buffer -- or the leftover payload reparses as the next request
        line and the connection is lost."""
        import os

        from repro.store import DiskFaultScript
        from repro.store.faulty import ENOSPC

        from repro.util.wire import pack_line

        kind = os.environ.get("TSS_TEST_STORE", "local")
        server = server_factory.new(store=f"faulty+{kind}")
        # max_conns=1: every op below rides the connection we poke raw
        c = ChirpClient(*server.address, credentials=credentials, max_conns=1)
        assert c.whoami()
        server.backend.store.plan.script(
            DiskFaultScript(op="pwrite", action=ENOSPC)
        )
        # One send for line + payload so the server's first recv buffers
        # the payload alongside the request -- the exact shape that used
        # to leak buffered bytes past the error drain.
        payload = b"x" * 256
        stream = c._stream
        stream.write(pack_line("putfile", "/torn.bin", 0o644, len(payload)) + payload)
        status = int(stream.read_tokens()[0])
        assert status == int(E.StatusCode.NO_SPACE)
        assert c.whoami()  # stream still in sync
        server.backend.try_recover(force=True)
        assert c.putfile("/after.bin", b"y" * 100) == 100
        c.close()

    def test_fsync_and_truncate(self, client):
        fd = client.open("/f", "wc")
        client.pwrite(fd, b"0123456789", 0)
        client.fsync(fd)
        client.ftruncate(fd, 5)
        assert client.fstat(fd).size == 5
        client.close_fd(fd)
        client.truncate("/f", 2)
        assert client.stat("/f").size == 2

    def test_exclusive_create_over_wire(self, client):
        fd = client.open("/x", "wcx")
        client.close_fd(fd)
        with pytest.raises(E.AlreadyExistsError):
            client.open("/x", "wcx")


class TestNamespaceOps:
    def test_mkdir_getdir_rmdir(self, client):
        client.mkdir("/d")
        client.putfile("/d/a", b"1")
        assert client.getdir("/") == ["d"]
        assert client.getdir("/d") == ["a"]
        client.unlink("/d/a")
        client.rmdir("/d")
        assert client.getdir("/") == []

    def test_rename(self, client):
        client.putfile("/a", b"1")
        client.rename("/a", "/b")
        assert client.exists("/b") and not client.exists("/a")

    def test_stat_lstat_access(self, client):
        client.putfile("/f", b"abc")
        assert client.stat("/f").size == 3
        assert client.lstat("/f").size == 3
        client.access("/f", "rl")

    def test_utime(self, client):
        client.putfile("/f", b"1")
        client.utime("/f", 111, 222)
        st = client.stat("/f")
        assert (st.atime, st.mtime) == (111, 222)

    def test_checksum_rpc(self, client):
        from repro.util.checksum import data_checksum

        client.putfile("/f", b"check me")
        assert client.checksum("/f") == data_checksum(b"check me")

    def test_statfs(self, client):
        fs = client.statfs()
        assert fs.total_bytes > 0

    def test_whoami(self, client):
        import getpass

        assert client.whoami() == f"unix:{getpass.getuser()}"

    def test_errors_cross_the_wire_typed(self, client):
        with pytest.raises(E.DoesNotExistError):
            client.stat("/missing")
        with pytest.raises(E.DoesNotExistError):
            client.getfile("/missing")
        client.mkdir("/d")
        client.putfile("/d/f", b"1")
        with pytest.raises(E.NotEmptyError):
            client.rmdir("/d")
        with pytest.raises(E.IsADirectoryError_):
            client.open("/d", "r")
        with pytest.raises(E.BadFileDescriptorError):
            client.pwrite(999, b"x", 0)

    def test_unicode_and_space_paths(self, client):
        client.putfile("/häl lo wörld.txt", b"data")
        assert "häl lo wörld.txt" in client.getdir("/")
        assert client.getfile("/häl lo wörld.txt") == b"data"


class TestAclOverWire:
    def test_getacl_setacl(self, client, owner_subject):
        acl = client.getacl("/")
        assert acl.rights_for(owner_subject).flags == frozenset("rwldav")
        client.setacl("/", "hostname:*.nd.edu", "rwl")
        again = client.getacl("/")
        assert again.check("hostname:x.nd.edu", "r")

    def test_acl_removal(self, client):
        client.setacl("/", "unix:guest", "rl")
        client.setacl("/", "unix:guest", "none")
        assert not client.getacl("/").check("unix:guest", "r")

    def test_two_subjects_different_rights(self, server_factory, credentials):
        """Full multi-user flow over the wire: owner grants, visitor uses."""
        server = server_factory.new()
        owner = ChirpClient(*server.address, credentials=credentials)
        owner.setacl("/", "hostname:localhost", "v(rwl)")
        from repro.auth.methods import ClientCredentials

        visitor = ChirpClient(
            *server.address,
            credentials=ClientCredentials(methods=("hostname",)),
        )
        assert visitor.whoami() == "hostname:localhost"
        visitor.mkdir("/visitors")
        visitor.putfile("/visitors/mine.txt", b"private")
        # the reserved directory excludes even other visitors' rights;
        # the owner still sees everything
        assert owner.getfile("/visitors/mine.txt") == b"private"
        with pytest.raises(E.NotAuthorizedError):
            visitor.setacl("/visitors", "unix:other", "rwl")  # no A right
        owner.close()
        visitor.close()


class TestConnectionSemantics:
    def test_disconnect_frees_open_files(self, file_server, credentials):
        """Paper: on disconnect the server closes all the client's files."""
        c1 = ChirpClient(*file_server.address, credentials=credentials)
        fd = c1.open("/f", "wc")
        c1.pwrite(fd, b"x", 0)
        c1.close()
        # The server closes c1's files once it notices the hang-up; a
        # store that publishes writes at close (cas) shows them only then.
        deadline = time.monotonic() + 5.0
        while file_server.snapshot()["connections"] and time.monotonic() < deadline:
            time.sleep(0.01)

        # A second client sees the file intact and the server healthy.
        c2 = ChirpClient(*file_server.address, credentials=credentials)
        assert c2.stat("/f").size == 1
        c2.close()

    def test_fd_invalid_after_reconnect(self, file_server, credentials):
        c = ChirpClient(*file_server.address, credentials=credentials)
        fd = c.open("/f", "wc")
        gen = c.generation
        c.connect()  # new connection: old fd must be gone
        assert c.generation == gen + 1
        with pytest.raises(E.BadFileDescriptorError):
            c.pread(fd, 10, 0)
        c.close()

    def test_concurrent_clients(self, file_server, credentials):
        """Several clients hammering one server stay isolated."""
        errors = []

        def worker(i):
            try:
                c = ChirpClient(*file_server.address, credentials=credentials)
                for j in range(20):
                    c.putfile(f"/w{i}-{j}", bytes([i]) * 100)
                for j in range(20):
                    assert c.getfile(f"/w{i}-{j}") == bytes([i]) * 100
                c.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == []

    def test_per_connection_fd_limit(self, server_factory, credentials):
        server = server_factory.new(max_open_files=4)
        c = ChirpClient(*server.address, credentials=credentials)
        fds = [c.open(f"/f{i}", "wc") for i in range(4)]
        with pytest.raises(E.TooManyOpenError):
            c.open("/f5", "wc")
        for fd in fds:
            c.close_fd(fd)
        c.open("/f5", "wc")  # room again
        c.close()

    def test_unknown_verb_is_rejected_not_fatal(self, client):
        stream = client._stream
        stream.write_line("frobnicate", "/x")
        reply = stream.read_tokens()
        assert int(reply[0]) == int(E.StatusCode.INVALID_REQUEST)
        assert client.whoami()  # connection still fine

    def test_quota_enforced_over_wire(self, server_factory, credentials):
        server = server_factory.new(quota_bytes=5000)
        c = ChirpClient(*server.address, credentials=credentials)
        c.putfile("/ok", b"x" * 1000)
        with pytest.raises(E.NoSpaceError):
            c.putfile("/toobig", b"x" * 10000)
        # connection survives the drained payload
        assert c.statfs().total_bytes == 5000
        c.close()
