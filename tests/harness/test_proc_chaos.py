"""Seeded process-level crash/restart soak over a real TSS cluster.

Unlike the in-process chaos suites (which inject faults into objects),
this harness boots *actual operating-system processes* -- a catalog, a
metadata database, three file servers, and a keeper -- then delivers a
seeded schedule of SIGKILL / SIGTERM / SIGSTOP to them mid-workload via
:class:`repro.sim.procchaos.ProcSupervisor`.

The invariants asserted are the paper-level ones:

- **No acknowledged write is ever lost.**  A write enters the ledger
  only after ``DSDB.ingest`` returns; after the soak (and after every
  victim is restarted) each ledger entry must fetch back verified.
- **No corrupt bytes are ever served.**  Every successful read during
  and after the soak is compared byte-for-byte against the ledger.
- **The keeper restores the replication factor.**  After convergence
  every acked record carries >= 2 ``ok`` replicas on distinct servers.
- **Determinism.**  The fault schedule is a pure function of the seed,
  so any CI failure replays from the seed plus the JSONL event log.

Artifacts (event log, per-process stderr) land in the directory named
by ``PROC_CHAOS_ARTIFACTS`` so a failing CI run uploads exactly what
happened, in order.
"""

from __future__ import annotations

import getpass
import os
import time

import pytest

from repro.auth.methods import ClientCredentials
from repro.core.dsdb import DSDB, live_replicas
from repro.core.pool import ClientPool
from repro.db.client import DatabaseClient
from repro.gems.keeper import CURSOR_NAME
from repro.sim.procchaos import (
    ProcSupervisor,
    build_plan,
    free_port,
    python_module_argv,
    wait_for_port,
)
from repro.util import errors as E

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(os.name != "posix", reason="POSIX signals required"),
]

HOST = "127.0.0.1"
SEED = int(os.environ.get("PROC_CHAOS_SEED", "20260807"))
STEPS = 12  # acked writes attempted during the soak
EVENTS = 5  # faults delivered between writes
VOLUME = "chaosvol"
COPIES = 2


def _artifacts_dir(tmp_path) -> str:
    base = os.environ.get("PROC_CHAOS_ARTIFACTS")
    path = base if base else str(tmp_path / "artifacts")
    os.makedirs(path, exist_ok=True)
    return path


class ChaosCluster:
    """A real multi-process TSS deployment under one supervisor."""

    SERVERS = ("s1", "s2", "s3")

    def __init__(self, tmp_path, artifacts: str):
        self.tmp_path = tmp_path
        self.owner = f"unix:{getpass.getuser()}"
        self.sup = ProcSupervisor(
            log_path=os.path.join(artifacts, "procchaos-events.jsonl"),
            stderr_dir=artifacts,
        )
        self.catalog_port = free_port()
        self.db_port = free_port()
        self.server_ports: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------

    def boot(self) -> None:
        sup = self.sup
        sup.spawn(
            "catalog",
            python_module_argv(
                "repro.catalog.main",
                "--host", HOST, "--port", self.catalog_port, "--lifetime", 5.0,
            ),
        )
        dbdir = self.tmp_path / "dbstate"
        dbdir.mkdir(exist_ok=True)
        sup.spawn(
            "db",
            python_module_argv(
                "repro.db.server",
                "--host", HOST, "--port", self.db_port, "--path", dbdir,
            ),
        )
        for name in self.SERVERS:
            port = free_port()
            self.server_ports[name] = port
            root = self.tmp_path / f"root-{name}"
            root.mkdir(exist_ok=True)
            sup.spawn(name, self._server_argv(name, port, root))
        assert wait_for_port(HOST, self.catalog_port), "catalog never came up"
        assert wait_for_port(HOST, self.db_port), "database never came up"
        for name, port in self.server_ports.items():
            assert wait_for_port(HOST, port), f"server {name} never came up"
        state = self.tmp_path / "keeper-state"
        server_flags = []
        for name in self.SERVERS:
            server_flags += ["--server", f"{HOST}:{self.server_ports[name]}"]
        sup.spawn(
            "keeper",
            python_module_argv(
                "repro.cli", "keeper",
                "--db", f"{HOST}:{self.db_port}",
                *server_flags,
                "--catalog", f"{HOST}:{self.catalog_port}",
                "--volume", VOLUME,
                "--state-dir", state,
                "--copies", COPIES,
                "--tick-interval", 0.2,
                "--catalog-lifetime", 2.0,
                "--verbose",
            ),
        )
        # The first tick writes the cursor, and the keeper installs its
        # SIGTERM handler before that tick: from here a stop is graceful.
        cursor = state / CURSOR_NAME
        deadline = time.monotonic() + 10.0
        while not cursor.exists():
            assert sup.alive("keeper"), "keeper died at boot"
            assert time.monotonic() < deadline, "keeper never ticked"
            time.sleep(0.02)

    def _server_argv(self, name: str, port: int, root) -> list:
        return python_module_argv(
            "repro.chirp.main",
            "--root", root,
            "--host", HOST, "--port", port,
            "--owner", self.owner,
            "--auth", "unix",
            "--name", f"chaos-{name}",
            "--catalog", f"{HOST}:{self.catalog_port}",
            "--report-interval", 0.3,
            "--drain-timeout", 5.0,
        )

    def endpoints(self) -> list[tuple[str, int]]:
        return [(HOST, self.server_ports[n]) for n in self.SERVERS]

    def revive_all(self) -> None:
        """Bring every victim back: SIGCONT the stalled, restart the dead."""
        for name in ("keeper", *self.SERVERS):
            managed = self.sup.procs[name]
            if managed.stopped:
                self.sup.sigcont(name)
            elif not managed.alive:
                self.sup.wait(name, timeout=10.0)
                self.sup.restart(name, settle=0.1)
                if name in self.server_ports:
                    assert wait_for_port(HOST, self.server_ports[name]), (
                        f"server {name} did not reclaim its port"
                    )

    def shutdown(self) -> None:
        self.sup.shutdown()


@pytest.fixture()
def cluster(tmp_path):
    artifacts = _artifacts_dir(tmp_path)
    c = ChaosCluster(tmp_path, artifacts)
    c.boot()
    try:
        yield c
    finally:
        c.shutdown()


def _payload(seed: int, step: int) -> bytes:
    # Deterministic per-write payload; varies in size to cross the
    # streaming threshold on some writes.
    import random

    rng = random.Random((seed << 8) | step)
    return rng.randbytes(1024 + rng.randrange(8192))


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        victims = ("s1", "s2", "s3", "keeper")
        a = build_plan(SEED, STEPS, victims, events=EVENTS)
        b = build_plan(SEED, STEPS, victims, events=EVENTS)
        assert a == b
        assert len(a) == EVENTS
        assert all(1 <= e.step <= STEPS for e in a)

    def test_different_seed_usually_differs(self):
        victims = ("s1", "s2", "s3")
        plans = {build_plan(s, STEPS, victims, events=EVENTS) for s in range(8)}
        assert len(plans) > 1


class TestProcChaosSoak:
    """The end-to-end soak: kill real processes, lose no acked write."""

    def test_seeded_kill_restart_soak(self, cluster):
        sup = cluster.sup
        victims = ("s1", "s2", "s3", "keeper")
        plan = build_plan(SEED, STEPS, victims, events=EVENTS)
        faults = {event.step: event for event in plan}

        credentials = ClientCredentials(methods=("unix",))
        pool = ClientPool(credentials, timeout=5.0)
        db = DatabaseClient(HOST, cluster.db_port, credentials=credentials)
        dsdb = DSDB(db, pool, cluster.endpoints(), volume=VOLUME)

        ledger: list[tuple[str, bytes]] = []  # (record id, exact bytes)
        unacked = 0
        try:
            for step in range(1, STEPS + 1):
                data = _payload(SEED, step)
                rid = self._ingest_with_retry(sup, dsdb, f"obj-{step}", data)
                if rid is None:
                    unacked += 1
                else:
                    ledger.append((rid, data))
                # Reads during faults must never return corrupt bytes.
                if ledger:
                    self._spot_read(sup, dsdb, ledger[(step - 1) % len(ledger)])
                event = faults.get(step)
                if event is not None:
                    self._deliver(cluster, event)

            # The soak must have produced real coverage despite faults.
            assert len(ledger) >= STEPS // 2, (
                f"only {len(ledger)} acked writes out of {STEPS} "
                f"({unacked} unacked)"
            )

            cluster.revive_all()
            self._await_convergence(dsdb, ledger)
        finally:
            pool.close()
            db.close()

    # -- workload helpers ----------------------------------------------

    def _ingest_with_retry(self, sup, dsdb, name: str, data: bytes):
        """Attempt one acked write; returns the record id or None.

        Placement is round-robin over a cluster where a victim may be
        dead or stalled, so individual attempts can fail -- the retry
        rotates onto live servers.  Only a *returned* ingest is acked.
        """
        for attempt in range(8):
            try:
                record = dsdb.ingest(name, data, replicas=COPIES)
                sup.record("ingest_acked", name, rid=record["id"])
                return record["id"]
            except (E.ChirpError, OSError) as exc:
                sup.record(
                    "ingest_retry", name,
                    attempt=attempt, error=type(exc).__name__,
                )
                time.sleep(0.25)
        sup.record("ingest_unacked", name)
        return None

    def _spot_read(self, sup, dsdb, entry) -> None:
        """A read may fail during faults (availability), but bytes that
        do come back must match the ledger (integrity)."""
        rid, expected = entry
        try:
            got = dsdb.fetch(rid, verify=True)
        except (E.ChirpError, OSError) as exc:
            sup.record("read_unavailable", rid, error=type(exc).__name__)
            return
        assert got == expected, f"corrupt bytes served for record {rid}"

    def _deliver(self, cluster, event) -> None:
        """Carry out one planned fault and its follow-through."""
        sup = cluster.sup
        name = event.victim
        sup.record("chaos", name, step=event.step, planned=event.action)
        if event.action == "sigstop":
            if sup.sigstop(name):
                time.sleep(0.5)  # a wedged machine, briefly
                sup.sigcont(name)
            return
        if event.action == "sigterm":
            sup.sigterm(name)  # graceful: drain, then exit
        else:
            sup.sigkill(name)  # crash: no goodbye
        sup.wait(name, timeout=10.0)
        sup.restart(name, settle=0.1)
        if name in cluster.server_ports:
            assert wait_for_port(HOST, cluster.server_ports[name]), (
                f"{name} did not come back after {event.action}"
            )

    def _await_convergence(self, dsdb, ledger, timeout: float = 45.0) -> None:
        """All acked data readable+verified and back at full RF."""
        assert ledger, "nothing to converge on"
        deadline = time.monotonic() + timeout
        pending = {rid for rid, _ in ledger}
        while pending and time.monotonic() < deadline:
            for rid in sorted(pending):
                record = dsdb.get(rid)
                assert record is not None, f"acked record {rid} vanished"
                ok = live_replicas(record)
                if len({(r["host"], r["port"]) for r in ok}) >= COPIES:
                    pending.discard(rid)
            if pending:
                time.sleep(0.5)
        if pending:
            states = {
                rid: [
                    (r["host"], r["port"], r.get("state"))
                    for r in (dsdb.get(rid) or {}).get("replicas", [])
                ]
                for rid in sorted(pending)
            }
            raise AssertionError(
                f"keeper never restored RF>={COPIES} for "
                f"{len(pending)} records: {states}"
            )
        # Every acked byte must read back verified, byte-for-byte.
        for rid, expected in ledger:
            got = dsdb.fetch(rid, verify=True)
            assert got == expected, f"record {rid} corrupt after soak"


class TestKeeperBoot:
    def test_sigterm_right_after_boot_is_graceful(self, cluster):
        cluster.sup.sigterm("keeper")
        assert cluster.sup.wait("keeper") == 0


class TestSupervisorBasics:
    """Supervisor mechanics exercised on a trivial child process."""

    def test_spawn_kill_restart_cycle(self, tmp_path):
        artifacts = _artifacts_dir(tmp_path)
        sup = ProcSupervisor(
            log_path=os.path.join(artifacts, "basics.jsonl"),
            stderr_dir=artifacts,
        )
        argv = python_module_argv("http.server", "0", "--bind", HOST)
        sup.spawn("child", argv)
        assert sup.alive("child")
        sup.sigkill("child")
        assert sup.wait("child", timeout=10.0) is not None
        assert not sup.alive("child")
        fresh = sup.restart("child")
        assert fresh.restarts == 1
        assert sup.alive("child")
        sup.shutdown()
        assert not sup.alive("child")
        actions = [e["action"] for e in sup.events]
        for expected in ("spawn", "signal", "exit", "restart", "shutdown"):
            assert expected in actions
        # The JSONL log replays the same sequence numbers.
        import json

        with open(os.path.join(artifacts, "basics.jsonl")) as fh:
            logged = [json.loads(line) for line in fh]
        assert [e["seq"] for e in logged] == sorted(e["seq"] for e in logged)

    def test_shutdown_closes_the_event_log(self, tmp_path):
        import json

        path = str(tmp_path / "events.jsonl")
        sup = ProcSupervisor(log_path=path)
        sup.spawn("child", python_module_argv("http.server", "0", "--bind", HOST))
        sup.shutdown()
        with open(path, "rb") as fh:
            logged = fh.read()
        # The log is closed: it refuses another append, and a second
        # shutdown (a finally-block teardown) is harmless ...
        with pytest.raises(ValueError):
            sup._log.append({"seq": 0, "action": "late", "name": "*"})
        sup.shutdown()
        with open(path, "rb") as fh:
            assert fh.read() == logged
        # ... and holds every event, the shutdown last.
        records = [json.loads(line) for line in logged.splitlines()]
        assert records == sup.events
        assert records[-1]["action"] == "shutdown"

    def test_sigstop_tracking_and_shutdown_unwedges(self, tmp_path):
        sup = ProcSupervisor()
        sup.spawn("child", python_module_argv("http.server", "0", "--bind", HOST))
        sup.sigstop("child")
        assert sup.procs["child"].stopped
        # shutdown() must SIGCONT a stalled process so SIGTERM can land.
        sup.shutdown(grace=5.0)
        assert not sup.alive("child")

    def test_restart_refuses_live_process(self, tmp_path):
        sup = ProcSupervisor()
        sup.spawn("child", python_module_argv("http.server", "0", "--bind", HOST))
        try:
            with pytest.raises(RuntimeError):
                sup.restart("child")
        finally:
            sup.shutdown()
