"""Process-level chaos: a seeded supervisor over real TSS daemons.

Where :mod:`repro.sim.cluster` simulates failures inside one process,
this module kills actual operating-system processes.  A
:class:`ProcSupervisor` launches real servers (``python -m
repro.chirp.main``, the catalog, the database, the keeper CLI) as
subprocesses, and a seeded :func:`build_plan` decides *when* to deliver
*which* signal to *whom* -- SIGKILL (crash), SIGTERM (graceful drain),
SIGSTOP/SIGCONT (stall, the moral equivalent of a wedged machine).

Determinism contract: the plan is a pure function of its seed, computed
up front and replayable -- the same seed always yields the same victim
and signal sequence.  Every action the supervisor takes is appended to
a JSONL event log so a failing CI run uploads exactly what happened and
in what order.

The harness in ``tests/harness`` drives a supervisor-built cluster and
asserts the paper-level invariants: no acknowledged write is lost
across SIGKILL+restart, no corrupt bytes are ever served, the keeper
restores the replication factor, and a draining server never drops an
in-flight acknowledged operation.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.util.jsonlog import RecordLog

__all__ = [
    "ChaosEvent",
    "build_plan",
    "ManagedProc",
    "ProcSupervisor",
    "free_port",
    "wait_for_port",
    "python_module_argv",
]

#: Signals the planner may schedule.  ``sigstop`` implies a later
#: ``sigcont`` issued by the harness; ``sigkill``/``sigterm`` imply a
#: later restart decision by the harness.
ACTIONS = ("sigkill", "sigterm", "sigstop")


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault: after write number ``step``, hit ``victim``
    with ``action``."""

    step: int
    victim: str
    action: str


def build_plan(
    seed: int,
    steps: int,
    victims: tuple[str, ...],
    actions: tuple[str, ...] = ACTIONS,
    events: int = 6,
) -> tuple[ChaosEvent, ...]:
    """Deterministically derive a fault schedule from a seed.

    Pure: no clock, no global RNG -- two calls with equal arguments
    return equal plans, which is what makes a CI failure replayable
    from nothing but the seed.  Steps are drawn without replacement so
    at most one fault lands between consecutive writes.
    """
    import random

    if not victims:
        raise ValueError("chaos plan needs at least one victim")
    rng = random.Random(seed)
    count = min(events, steps)
    chosen_steps = sorted(rng.sample(range(1, steps + 1), count))
    plan = tuple(
        ChaosEvent(step=step, victim=rng.choice(victims), action=rng.choice(actions))
        for step in chosen_steps
    )
    return plan


def free_port() -> int:
    """Pick a currently free TCP port (the daemons use SO_REUSEADDR, so
    the same port survives kill/restart cycles)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_for_port(host: str, port: int, timeout: float = 10.0) -> bool:
    """Poll until a TCP connect succeeds (a daemon finished booting)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return True
        except OSError:
            time.sleep(0.05)
    return False


@dataclass
class ManagedProc:
    """One supervised subprocess and how to respawn it."""

    name: str
    argv: list
    env: dict
    stderr_path: str
    proc: subprocess.Popen
    restarts: int = 0
    stopped: bool = False  # currently SIGSTOPped

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


class ProcSupervisor:
    """Launches, signals, restarts, and logs real TSS processes.

    :param log_path: JSONL event log (a :class:`RecordLog`); every
        spawn/signal/exit/restart is appended with a monotonically
        increasing sequence number.
    :param stderr_dir: directory collecting each process's stderr, one
        file per process name (kept across restarts, opened in append
        mode), for CI artifact upload.
    """

    def __init__(self, *, log_path: str | None = None, stderr_dir: str | None = None):
        self.procs: dict[str, ManagedProc] = {}
        self.events: list[dict] = []
        self._seq = 0
        self._log = RecordLog(log_path) if log_path is not None else None
        self._shut_down = False
        self._stderr_dir = stderr_dir
        if stderr_dir is not None:
            os.makedirs(stderr_dir, exist_ok=True)

    # -- event log ------------------------------------------------------

    def record(self, action: str, name: str, **info) -> None:
        self._seq += 1
        event = {"seq": self._seq, "action": action, "name": name, **info}
        self.events.append(event)
        if self._log is not None:
            self._log.append(event)

    # -- process control ------------------------------------------------

    def spawn(
        self, name: str, argv: list, env: dict | None = None
    ) -> ManagedProc:
        """Launch a process under supervision.

        ``argv`` conventionally starts with ``sys.executable -m
        repro...`` so the child runs the same interpreter and source
        tree as the harness.  The environment always pins
        ``PYTHONHASHSEED=0`` for cross-process determinism.
        """
        if name in self.procs and self.procs[name].alive:
            raise RuntimeError(f"process {name!r} is already running")
        full_env = dict(os.environ)
        full_env["PYTHONHASHSEED"] = "0"
        if env:
            full_env.update(env)
        stderr_path = (
            os.path.join(self._stderr_dir, f"{name}.stderr")
            if self._stderr_dir is not None
            else os.devnull
        )
        stderr_fh = open(stderr_path, "ab")
        try:
            proc = subprocess.Popen(
                [str(a) for a in argv],
                stdout=subprocess.DEVNULL,
                stderr=stderr_fh,
                env=full_env,
            )
        finally:
            stderr_fh.close()  # the child holds its own copy of the fd
        managed = ManagedProc(
            name=name, argv=list(argv), env=dict(env or {}),
            stderr_path=stderr_path, proc=proc,
        )
        prior = self.procs.get(name)
        if prior is not None:
            managed.restarts = prior.restarts
        self.procs[name] = managed
        self.record("spawn", name, pid=proc.pid)
        return managed

    def signal(self, name: str, signum: int) -> bool:
        """Deliver a signal; False when the process is already gone."""
        managed = self.procs[name]
        try:
            managed.proc.send_signal(signum)
        except (ProcessLookupError, OSError):
            self.record("signal_missed", name, signum=int(signum))
            return False
        if signum == signal.SIGSTOP:
            managed.stopped = True
        elif signum == signal.SIGCONT:
            managed.stopped = False
        self.record("signal", name, signum=int(signum),
                    signame=signal.Signals(signum).name)
        return True

    def sigkill(self, name: str) -> bool:
        return self.signal(name, signal.SIGKILL)

    def sigterm(self, name: str) -> bool:
        return self.signal(name, signal.SIGTERM)

    def sigstop(self, name: str) -> bool:
        return self.signal(name, signal.SIGSTOP)

    def sigcont(self, name: str) -> bool:
        return self.signal(name, signal.SIGCONT)

    def wait(self, name: str, timeout: float = 10.0) -> int | None:
        """Wait for exit; returns the return code, or None on timeout."""
        managed = self.procs[name]
        try:
            code = managed.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.record("wait_timeout", name, timeout=timeout)
            return None
        self.record("exit", name, returncode=code)
        return code

    def restart(self, name: str, settle: float = 0.0) -> ManagedProc:
        """Respawn a dead (or killed) process with its original argv.

        The daemons bind with SO_REUSEADDR, so the replacement reclaims
        the same port; durable state (store root, db log, keeper
        journal) lives on disk and carries over -- exactly the
        crash+restart cycle the invariants are about.
        """
        managed = self.procs[name]
        if managed.alive:
            raise RuntimeError(f"process {name!r} is still running")
        if settle:
            time.sleep(settle)
        fresh = self.spawn(name, managed.argv, managed.env)
        fresh.restarts = managed.restarts + 1
        self.record("restart", name, restarts=fresh.restarts)
        return fresh

    def alive(self, name: str) -> bool:
        managed = self.procs.get(name)
        return managed is not None and managed.alive

    def shutdown(self, grace: float = 3.0) -> None:
        """Stop everything: SIGCONT stalled procs, SIGTERM, then SIGKILL.

        The ``shutdown`` event is the event log's last record: the log
        is closed after it, and a repeated call does nothing.
        """
        if self._shut_down:
            return
        for name, managed in self.procs.items():
            if not managed.alive:
                continue
            if managed.stopped:
                self.sigcont(name)
            self.sigterm(name)
        deadline = time.monotonic() + grace
        for name, managed in self.procs.items():
            if not managed.alive:
                continue
            left = max(0.1, deadline - time.monotonic())
            try:
                managed.proc.wait(timeout=left)
            except subprocess.TimeoutExpired:
                try:
                    managed.proc.kill()
                    managed.proc.wait(timeout=5)
                except OSError:
                    pass
                self.record("forced_kill", name)
        self.record("shutdown", "*")
        self._shut_down = True
        if self._log is not None:
            self._log.close()


def python_module_argv(module: str, *args: object) -> list:
    """Argv for running a repro module as a child of this interpreter."""
    return [sys.executable, "-m", module, *[str(a) for a in args]]
