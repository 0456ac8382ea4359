"""Stop signals reach a daemon's main thread whichever thread they land on.

The kernel may deliver SIGTERM to any thread; CPython's C-level handler
then only records it, and the Python handler runs when the *main*
thread next returns to the interpreter loop.  These tests aim the signal
at a helper thread with ``pthread_kill`` -- the unlucky delivery that
used to leave a daemon parked in ``GracefulSignals.wait`` until SIGKILL.
Each scenario runs in a fresh interpreter under a timeout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

_KICK = """
import signal, threading, time

def kick(delay):
    def run():
        time.sleep(delay)
        signal.pthread_kill(threading.get_ident(), signal.SIGTERM)
        time.sleep(30)  # stay alive: the signal must not migrate
    threading.Thread(target=run, daemon=True).start()
"""


def _run(body: str, timeout: float = 6.0) -> subprocess.CompletedProcess:
    script = textwrap.dedent(_KICK) + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        raise AssertionError(f"process wedged past {timeout}s; stderr:\n{err}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_signal_on_a_worker_thread_wakes_the_main_wait():
    done = _run(
        """
        from repro.util.signals import GracefulSignals
        signals = GracefulSignals().install()
        kick(0.2)
        t0 = time.monotonic()
        signals.wait()
        print(f"{time.monotonic() - t0:.2f}")
        """
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 2.0


def test_second_signal_escalates_during_a_drain():
    """The first signal starts a drain held up by an in-flight request;
    the second exits the process at once instead of waiting it out."""
    done = _run(
        """
        import socket
        from repro.util.server import ServerCore, Session
        from repro.util.signals import GracefulSignals
        from repro.util.wire import LineStream

        class Stuck(ServerCore):
            def serve(self, sock, addr):
                self.serve_requests(sock, Session(LineStream(sock), ""))
            def handle(self, session, tokens):
                time.sleep(60)

        server = Stuck("127.0.0.1", 0).start()
        client = socket.create_connection(server.address)
        client.sendall(b"work\\n")
        while not server.snapshot()["in_flight"]:
            time.sleep(0.01)
        signals = GracefulSignals(escalate_status=7).install()
        kick(0.1)
        signals.wait()
        kick(0.2)
        server.drain(timeout=60)
        """
    )
    assert done.returncode == 7, done.stderr
