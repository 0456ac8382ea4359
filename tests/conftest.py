"""Shared fixtures: live servers on loopback, pools, credentials.

Everything binds to port 0 (ephemeral) so tests parallelize and never
collide with real services.  The ``unix`` auth method is used by default
because it works hermetically on one host (the challenge file lands in a
per-test temp directory).
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading

import pytest

from repro.auth.methods import AuthContext, ClientCredentials
from repro.chirp.client import ChirpClient
from repro.chirp.server import FileServer, ServerConfig
from repro.core.pool import ClientPool

OWNER = "unix:root"  # tests run as root in CI containers


def _current_unix_subject() -> str:
    import getpass

    return f"unix:{getpass.getuser()}"


@pytest.fixture()
def owner_subject() -> str:
    return _current_unix_subject()


@pytest.fixture()
def auth_context(tmp_path) -> AuthContext:
    challenge_dir = tmp_path / "challenges"
    challenge_dir.mkdir()
    return AuthContext(enabled=("unix", "hostname"), unix_challenge_dir=str(challenge_dir))


@pytest.fixture()
def credentials() -> ClientCredentials:
    return ClientCredentials(methods=("unix",))


class ServerFactory:
    """Creates live file servers rooted in per-test temp directories."""

    def __init__(self, tmp_path, auth: AuthContext, owner: str):
        self.tmp_path = tmp_path
        self.auth = auth
        self.owner = owner
        self.servers: list[FileServer] = []
        self._counter = 0

    def new(self, **overrides) -> FileServer:
        self._counter += 1
        root = self.tmp_path / f"export{self._counter}"
        root.mkdir(exist_ok=True)
        config = ServerConfig(
            root=str(root),
            owner=overrides.pop("owner", self.owner),
            auth=overrides.pop("auth", self.auth),
            # The CI backend matrix sets TSS_TEST_STORE to re-run the
            # integration tests over each store kind.
            store=overrides.pop("store", os.environ.get("TSS_TEST_STORE", "local")),
            **overrides,
        )
        server = FileServer(config).start()
        self.servers.append(server)
        return server

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers.clear()


@pytest.fixture()
def server_factory(tmp_path, auth_context, owner_subject):
    factory = ServerFactory(tmp_path, auth_context, owner_subject)
    yield factory
    factory.stop_all()


@pytest.fixture()
def file_server(server_factory) -> FileServer:
    return server_factory.new()


@pytest.fixture()
def pool(credentials):
    p = ClientPool(credentials, timeout=10.0)
    yield p
    p.close()


@pytest.fixture()
def client(file_server, credentials):
    c = ChirpClient(*file_server.address, credentials=credentials, timeout=10.0)
    yield c
    c.close()


@pytest.fixture()
def socket_pair():
    """A connected TCP socket pair on loopback (for wire-level tests)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client_sock.connect(listener.getsockname())
    server_sock, _ = listener.accept()
    listener.close()
    yield client_sock, server_sock
    for s in (client_sock, server_sock):
        try:
            s.close()
        except OSError:
            pass


def _descendants(pid: int) -> list[int]:
    """Live (non-zombie) descendants of ``pid``, from ``/proc/*/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ...": comm may hold spaces and parens
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        found.extend(kids)
        todo.extend(kids)
    return found


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a test left a child process running, and kill it."""
    if not os.path.isdir("/proc"):
        return
    leftovers = [(pid, _cmdline(pid)) for pid in _descendants(os.getpid())]
    if not leftovers:
        return
    for pid, _ in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    lines = "\n".join(f"  pid {pid}: {cmd}" for pid, cmd in leftovers)
    sys.stderr.write(f"\nprocesses left running by the test session (killed):\n{lines}\n")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


def run_in_thread(fn, *args, **kwargs):
    """Run fn in a thread, returning a handle whose .result() joins."""
    box = {}

    def runner():
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - surfaced via result()
            box["error"] = exc

    t = threading.Thread(target=runner, daemon=True)
    t.start()

    class Handle:
        @staticmethod
        def result(timeout=10.0):
            t.join(timeout)
            if t.is_alive():
                raise TimeoutError("thread did not finish")
            if "error" in box:
                raise box["error"]
            return box.get("value")

    return Handle()
