"""Daemon fixture: real TSS servers as subprocesses, observed via /proc.

Every daemon is started with ``--port 0`` and announces its address on
its first stdout line; stderr goes to a log file in the run's scratch
directory.  ``stop()`` is SIGTERM, wait, then SIGKILL, and is also
registered with ``atexit`` so no exit path leaves an orphan.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

__all__ = [
    "Daemons", "ProcSample", "Scratch", "REPO_ROOT", "SRC_DIR",
    "fs_type", "disk_usage", "proc_sample", "counter_delta",
    "steady_allocator", "pin_one_cpu",
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")

_ADDRESS = re.compile(r"(\d+\.\d+\.\d+\.\d+):(\d+)\s*$")
_BOOT_TIMEOUT = 30.0
_STOP_TIMEOUT = 5.0  # a clean drain takes ~0.2 s; a wedged one is killed
_CLK_TCK = os.sysconf("SC_CLK_TCK")

# glibc raises its mmap threshold as large blocks are freed, so whether a
# 16 MiB payload buffer is carved from the heap or mmapped and page-faulted
# in afresh depends on a process's allocation history: identical runs of
# stream_cfs differed by 40 % in CPU per op.  Fixing both thresholds keeps
# every large buffer on the (never trimmed) heap in the daemons and in the
# client alike, on both sides of any comparison.
_MALLOC_THRESHOLD = 1 << 30
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # <malloc.h>


def steady_allocator() -> None:
    """Apply the fixed malloc thresholds to this (the client) process."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to steady


def pin_one_cpu() -> int:
    """Confine this process, and the daemons it spawns (they inherit the
    mask), to one CPU; returns it, or -1 where the OS cannot.

    With one request in flight only one of client and server is runnable
    at a time, so a second core adds nothing but the choice of where the
    woken side runs -- and on a virtual CPU a wake-up across cores costs
    several times one on the same core.  Unpinned, identical runs fell
    into a fast and a slow mode up to 2x apart in RPC latency, depending
    on where the scheduler had left the two processes.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return -1
    return cpu


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (path + "/").startswith(prefix) and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def disk_usage(root: str) -> int:
    """Bytes allocated under ``root`` (what ``du -s`` reports)."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in [""] + files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_blocks * 512
            except OSError:
                pass
    return total


class Scratch:
    """One run's private directory tree, removed on close.

    Lives under ``$TSSBENCH_SCRATCH`` when set, else under the repo
    checkout (the driver's contract: nothing is written outside it).
    """

    def __init__(self):
        base = os.environ.get("TSSBENCH_SCRATCH") or os.path.join(REPO_ROOT, ".tssbench_scratch")
        os.makedirs(base, exist_ok=True)
        self.base = base
        self.path = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)
        self._n = 0
        atexit.register(self.close)

    def subdir(self, label: str) -> str:
        self._n += 1
        path = os.path.join(self.path, f"{self._n:03d}-{label}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(self.base)  # only succeeds when no other run is using it
        except OSError:
            pass


class ProcSample(NamedTuple):
    """Cumulative counters of one process, from /proc/<pid>/{stat,status,io}."""

    cpu_s: float
    syscr: int
    syscw: int
    write_bytes: int
    vol_ctx: int
    rss_peak_kb: int


def _status(path: str) -> dict:
    """``key: value ...`` lines of a /proc file -> {key: first value token}."""
    out = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.partition(":")
            parts = value.split()
            out[key] = parts[0] if parts else ""
    return out


def _threads(pid: int) -> int:
    try:
        return int(_status(f"/proc/{pid}/status").get("Threads") or 0)
    except OSError:
        return 0


def cpu_seconds(pid: int) -> float:
    """utime + stime of every thread the process ever had, 10 ms ticks."""
    with open(f"/proc/{pid}/stat") as f:
        # comm may contain spaces; fields are counted after the last ')'
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_sample(pid: int) -> ProcSample:
    cpu_s = cpu_seconds(pid)
    status = _status(f"/proc/{pid}/status")
    # Context switches are kept per thread, and a thread's count goes
    # with it: this sums the threads alive now, which covers every
    # connection that outlives the window being measured.
    vol_ctx = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            vol_ctx += int(_status(f"/proc/{pid}/task/{tid}/status").get("voluntary_ctxt_switches") or 0)
        except OSError:
            pass  # the thread exited between listdir and open
    try:
        io = _status(f"/proc/{pid}/io")
    except OSError:
        io = {}  # restricted kernels hide io; the derived metrics read 0
    return ProcSample(
        cpu_s=cpu_s,
        syscr=int(io.get("syscr") or 0),
        syscw=int(io.get("syscw") or 0),
        write_bytes=int(io.get("write_bytes") or 0),
        vol_ctx=vol_ctx,
        rss_peak_kb=int(status.get("VmHWM") or 0),
    )


class _Daemon:
    def __init__(self, name: str, kind: str, proc: subprocess.Popen, root: str, log):
        self.name = name
        self.kind = kind  # "chirp" | "db"
        self.proc = proc
        self.root = root
        self.log = log
        self.address: tuple[str, int] = ("", 0)  # known once announced


class Daemons:
    """A set of server subprocesses booted together and stopped together."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.members: list[_Daemon] = []
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + self._env["PYTHONPATH"] if self._env.get("PYTHONPATH") else ""
        )
        # The unix auth challenge is a file in the server's temp dir; keep
        # it inside the scratch tree like everything else.
        tmp = os.path.join(workdir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self._env["TMPDIR"] = tmp
        self._env["MALLOC_MMAP_THRESHOLD_"] = str(_MALLOC_THRESHOLD)
        self._env["MALLOC_TRIM_THRESHOLD_"] = str(_MALLOC_THRESHOLD)
        # str hashes decide dict collision chains: the same in every daemon of every run
        self._env["PYTHONHASHSEED"] = "0"
        atexit.register(self.stop)

    def boot(self, specs: list[tuple[str, str]]) -> None:
        """Start every daemon in ``specs`` -- ``(name, kind)`` with kind
        ``local``/``cas`` (a file server on that store) or ``db`` -- then
        wait for all their addresses, so boots overlap."""
        started = []
        for name, kind in specs:
            root = os.path.join(self.workdir, name)
            os.makedirs(root)
            if kind == "db":
                argv = ["-m", "repro.db.server", "--host", "127.0.0.1", "--port", "0", "--path", root]
            else:
                argv = [
                    "-m", "repro.chirp.main", "--root", root, "--host", "127.0.0.1",
                    "--port", "0", "--auth", "unix", "--store", kind,
                ]  # everything else is the server's default, --sync-meta included
            log = open(os.path.join(self.workdir, name + ".log"), "wb")
            proc = subprocess.Popen(
                [sys.executable] + argv, stdout=subprocess.PIPE, stderr=log,
                env=self._env, cwd=self.workdir,
            )
            # Registered before the address is known: stop() must reach a
            # daemon that never announced itself.
            member = _Daemon(name, "db" if kind == "db" else "chirp", proc, root, log)
            self.members.append(member)
            started.append(member)
        for member in started:
            member.address = self._read_address(member)

    @staticmethod
    def _read_address(member: _Daemon) -> tuple[str, int]:
        deadline = time.monotonic() + _BOOT_TIMEOUT
        fd = member.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError(f"daemon {member.name} did not announce an address")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"daemon {member.name} exited with {member.proc.wait()} before listening"
                )
            buf += chunk
        match = _ADDRESS.search(buf.split(b"\n", 1)[0].decode("utf-8", "replace"))
        if match is None:
            raise RuntimeError(f"daemon {member.name} printed no address: {buf!r}")
        return match.group(1), int(match.group(2))

    def addresses(self, kind: str) -> list[tuple[str, int]]:
        return [m.address for m in self.members if m.kind == kind]

    def roots(self) -> list[str]:
        return [m.root for m in self.members]

    def sample(self) -> dict[str, ProcSample]:
        return {m.name: proc_sample(m.proc.pid) for m in self.members}

    def cpu_s(self) -> float:
        """Cheap enough to read once a slice, inside a measured window."""
        return sum(cpu_seconds(m.proc.pid) for m in self.members)

    def threads(self) -> int:
        """Cheap poll for the thread-peak sampler: chirp daemons only."""
        return sum(_threads(m.proc.pid) for m in self.members if m.kind == "chirp")

    def stop(self) -> None:
        members, self.members = self.members, []
        for m in members:
            if m.proc.poll() is None:
                m.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + _STOP_TIMEOUT
        for m in members:
            try:
                m.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                m.proc.kill()
                m.proc.wait()
            m.proc.stdout.close()
            m.log.close()


def counter_delta(before: dict[str, ProcSample], after: dict[str, ProcSample],
                  field: str, names=None):
    """Summed growth of one ProcSample field over the named daemons (default: all)."""
    return sum(
        getattr(after[n], field) - getattr(before[n], field)
        for n in after
        if names is None or n in names
    )
