"""Disk-fault injection: plan semantics, replay, and graceful degradation.

Three layers under test:

- :class:`~repro.store.faulty.DiskFaultPlan` /
  :class:`~repro.store.faulty.FaultyStore` -- scripted and seeded
  chaos faults fire as specified, and the event log is a replayable
  witness (same seed + same workload = identical log).
- :meth:`~repro.store.interface.BlobStore.reconcile_usage` -- usage
  accounting stays honest (or repairable) when a write dies partway.
- :class:`~repro.chirp.backend.Backend` degraded read-only mode --
  store failures flip the volume to read-only with the right refusal
  statuses, policy refusals never do, and the recovery probe brings a
  healed volume back.
"""

from __future__ import annotations

import errno
import getpass
import os

import pytest

from repro.chirp.backend import Backend
from repro.chirp.protocol import OpenFlags
from repro.store import (
    DiskFaultPlan,
    DiskFaultScript,
    FaultyStore,
    HandleWriter,
    make_store,
)
from repro.store.faulty import (
    BITROT,
    DELAY,
    EIO,
    ENOSPC,
    FSYNC_FAIL,
    SHORT_WRITE,
    TORN_WRITE,
)
from repro.util import errors as E
from repro.util.checksum import data_checksum
from repro.util.clock import ManualClock

OWNER = f"unix:{getpass.getuser()}"

STORE_KINDS = ("local", "memory", "cas")


def faulty(tmp_path, kind="memory", plan=None, clock=None) -> FaultyStore:
    root = tmp_path / f"faulty-{kind}"
    root.mkdir(exist_ok=True)
    return FaultyStore(make_store(kind, str(root)), plan=plan, clock=clock)


class TestDiskFaultScript:
    def test_rejects_unknown_action_and_op(self):
        with pytest.raises(ValueError):
            DiskFaultScript(action="explode")
        with pytest.raises(ValueError):
            DiskFaultScript(op="read")

    def test_path_and_op_matching(self):
        fault = DiskFaultScript(op="pwrite", action=ENOSPC, path="/data/")
        assert fault.matches("pwrite", "/data/f")
        assert not fault.matches("pwrite", "/tmp/f")
        assert not fault.matches("pread", "/data/f")
        # wildcard op still respects action validity per operation
        rot = DiskFaultScript(op="*", action=BITROT)
        assert rot.matches("pread", "/f")
        assert not rot.matches("pwrite", "/f")


class TestScriptedFaults:
    def test_eio_on_pread_then_clean(self, tmp_path):
        store = faulty(tmp_path)
        store.write_blob("/f", b"payload")
        store.plan.script(DiskFaultScript(op="pread", action=EIO))
        with pytest.raises(E.UnknownError):
            store.read_blob("/f")
        # the script was consumed: the next read succeeds
        assert store.read_blob("/f") == b"payload"

    def test_enospc_lands_a_prefix_then_raises(self, tmp_path):
        store = faulty(tmp_path)
        store.plan.script(DiskFaultScript(op="pwrite", action=ENOSPC))
        with pytest.raises(E.NoSpaceError):
            store.write_blob("/f", b"0123456789")
        # the disk filled mid-write: half the data is on disk
        assert store.read_blob("/f") == b"01234"

    def test_fsync_failure_raises_after_write(self, tmp_path):
        store = faulty(tmp_path)
        store.plan.script(DiskFaultScript(op="fsync", action=FSYNC_FAIL))
        h = store.open("/f", OpenFlags(write=True, create=True), 0o644)
        h.pwrite(b"data", 0)
        with pytest.raises(E.UnknownError):
            h.fsync()
        h.close()

    def test_short_write_returns_honest_count(self, tmp_path):
        store = faulty(tmp_path)
        store.plan.script(DiskFaultScript(op="pwrite", action=SHORT_WRITE))
        h = store.open("/f", OpenFlags(write=True, create=True), 0o644)
        assert h.pwrite(b"0123456789", 0) == 5
        h.close()
        assert store.read_blob("/f") == b"01234"

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_cursor_writers_finish_a_short_write(self, tmp_path, kind):
        # HandleWriter (puts) and write_blob (backend bookkeeping) both
        # keep writing after an honest short count instead of dropping
        # the tail of the chunk.
        store = faulty(tmp_path, kind)
        store.plan.script(DiskFaultScript(op="pwrite", action=SHORT_WRITE))
        h = store.open("/f", OpenFlags(write=True, create=True), 0o644)
        assert HandleWriter(h).write(b"0123456789") == 10
        h.close()
        assert store.read_blob("/f") == b"0123456789"
        store.plan.script(DiskFaultScript(op="pwrite", action=SHORT_WRITE))
        store.write_blob("/g", b"abcdefgh" * 1000)
        assert store.plan.injected == 2
        assert store.read_blob("/g") == b"abcdefgh" * 1000

    def test_cursor_writer_refuses_a_store_that_makes_no_progress(self):
        class Stuck:
            def pwrite(self, data, offset):
                return 0

        with pytest.raises(E.UnknownError):
            HandleWriter(Stuck()).write(b"data")

    def test_torn_write_lies_about_the_count(self, tmp_path):
        store = faulty(tmp_path)
        store.plan.script(DiskFaultScript(op="pwrite", action=TORN_WRITE))
        h = store.open("/f", OpenFlags(write=True, create=True), 0o644)
        assert h.pwrite(b"0123456789", 0) == 10  # the lie
        h.close()
        assert store.read_blob("/f") == b"01234"  # the truth

    def test_bitrot_flips_exactly_one_byte_silently(self, tmp_path):
        store = faulty(tmp_path, plan=DiskFaultPlan(seed=5))
        payload = b"x" * 256
        store.write_blob("/f", payload)
        store.plan.script(DiskFaultScript(op="pread", action=BITROT))
        rotted = store.read_blob("/f")
        assert rotted != payload
        assert len(rotted) == len(payload)
        assert sum(a != b for a, b in zip(rotted, payload)) == 1
        # silent: no error was raised, and the rot was in flight only
        assert store.read_blob("/f") == payload

    def test_latency_sleeps_on_the_injected_clock(self, tmp_path):
        clock = ManualClock()
        store = faulty(tmp_path, clock=clock)
        store.write_blob("/f", b"x")
        store.plan.script(
            DiskFaultScript(op="pread", action=DELAY, latency=2.5)
        )
        assert store.read_blob("/f") == b"x"
        assert clock.now() == pytest.approx(2.5)


class TestEventLogReplay:
    @staticmethod
    def _run(tmp_path, seed: int, tag: str):
        plan = DiskFaultPlan.chaos(
            seed,
            eio_rate=0.15,
            enospc_rate=0.05,
            bitrot_rate=0.15,
            short_write_rate=0.1,
        )
        root = tmp_path / f"chaos-{tag}"
        root.mkdir()
        store = FaultyStore(make_store("memory", str(root)), plan=plan)
        for i in range(40):
            try:
                store.write_blob(f"/f{i}", bytes([i % 251]) * 64)
            except E.ChirpError:
                pass
            try:
                store.try_read_blob(f"/f{i}")
            except E.ChirpError:
                pass
        return plan

    def test_same_seed_same_workload_identical_log(self, tmp_path):
        a = self._run(tmp_path, 1234, "a")
        b = self._run(tmp_path, 1234, "b")
        assert a.injected > 0
        assert a.event_log() == b.event_log()
        assert a.injected == len(a.event_log())

    def test_different_seed_diverges(self, tmp_path):
        a = self._run(tmp_path, 1234, "a")
        b = self._run(tmp_path, 4321, "b")
        assert a.event_log() != b.event_log()


class TestTransparency:
    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_empty_plan_is_invisible(self, tmp_path, kind):
        store = faulty(tmp_path, kind)
        store.write_blob("/f", b"untouched")
        assert store.read_blob("/f") == b"untouched"
        assert store.kind == store.inner.kind
        assert store.supports_cas == store.inner.supports_cas
        snap = store.snapshot()
        assert snap["kind"] == store.inner.kind
        assert snap["faults_injected"] == 0


class TestRotAtRest:
    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_rot_flips_stored_bytes(self, tmp_path, kind):
        store = faulty(tmp_path, kind, plan=DiskFaultPlan(seed=9))
        payload = b"precious bytes" * 10
        store.write_blob("/f", payload)
        digest = store.rot_at_rest("/f")
        assert digest == data_checksum(payload)
        rotted = store.read_blob("/f")
        assert rotted != payload
        assert sum(a != b for a, b in zip(rotted, payload)) == 1
        # logged by content digest, not path: replayable across runs
        assert any(
            event.startswith(f"rot {digest} byte ")
            for event in store.plan.event_log()
        )

    def test_cas_scrub_catches_the_rot(self, tmp_path):
        store = faulty(tmp_path, "cas", plan=DiskFaultPlan(seed=9))
        store.write_blob("/f", b"sealed object payload")
        digest = store.rot_at_rest("/f")
        # the O(1) checksum RPC is blind to at-rest rot...
        assert store.checksum("/f") == digest
        # ...but the byte-level scrub is not
        report = store.scrub()
        assert report["corrupt"] == [digest]

    def test_rot_refuses_empty_files(self, tmp_path):
        store = faulty(tmp_path, "local")
        store.write_blob("/f", b"")
        with pytest.raises(E.InvalidRequestError):
            store.rot_at_rest("/f")

    def test_rot_refuses_the_implicit_empty_blob(self, tmp_path):
        # no object file backs an empty CAS file, so there is nothing to flip
        store = faulty(tmp_path, "cas")
        store.write_blob("/f", b"")
        with pytest.raises(E.InvalidRequestError):
            store.rot_at_rest("/f")


class TestReconcileUsage:
    def test_partial_pwrite_failure_keeps_accounting_honest(
        self, tmp_path, monkeypatch
    ):
        store = make_store("local", str(tmp_path))
        store.used_bytes()  # prime the incremental counter
        h = store.open("/f", OpenFlags(write=True, create=True), 0o644)
        real_pwrite = os.pwrite

        def dying_disk(fd, data, offset):
            # half the data lands before the device errors out
            real_pwrite(fd, data[: len(data) // 2], offset)
            raise OSError(errno.EIO, "injected device error")

        monkeypatch.setattr(os, "pwrite", dying_disk)
        with pytest.raises(E.UnknownError):
            h.pwrite(b"x" * 100, 0)
        monkeypatch.undo()
        h.close()
        # the counter charged what actually landed, not what was asked
        assert store.used_bytes() == 50
        assert store.reconcile_usage() == 50

    def test_invalidated_counter_recovers_by_rewalk(self, tmp_path):
        store = make_store("local", str(tmp_path))
        store.write_blob("/f", b"y" * 300)
        store._invalidate_usage()
        assert store.reconcile_usage() == 300

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_reconcile_matches_used_bytes(self, tmp_path, kind):
        root = tmp_path / kind
        root.mkdir()
        store = make_store(kind, str(root))
        store.write_blob("/a", b"a" * 100)
        store.write_blob("/b", b"b" * 50)
        assert store.reconcile_usage() == store.used_bytes()


class TestDegradedReadOnlyMode:
    @staticmethod
    def _backend(tmp_path, **kwargs) -> Backend:
        store = faulty(tmp_path)
        return Backend(store, OWNER, **kwargs)

    @staticmethod
    def _write(backend, path, data):
        h = backend.open(
            OWNER, path, OpenFlags(write=True, create=True, truncate=True), 0o644
        )
        backend.pwrite(h, data, 0)
        backend.close(h)

    @staticmethod
    def _read(backend, path):
        h = backend.open(OWNER, path, OpenFlags(read=True), 0)
        data = backend.pread(h, 1 << 16, 0)
        backend.close(h)
        return data

    def test_enospc_degrades_immediately(self, tmp_path):
        backend = self._backend(tmp_path)
        self._write(backend, "/keep", b"already here")
        backend.store.plan.script(DiskFaultScript(op="pwrite", action=ENOSPC))
        with pytest.raises(E.NoSpaceError):
            self._write(backend, "/f", b"does not fit")
        assert backend.read_only
        assert backend.read_only_reason == "enospc"
        # writes are refused with NO_SPACE before touching the store
        with pytest.raises(E.NoSpaceError):
            self._write(backend, "/g", b"refused")
        # reads still serve, and deletions (the way out) are allowed
        assert self._read(backend, "/keep") == b"already here"
        backend.unlink(OWNER, "/keep")
        # the store is healthy again (the fault was one-shot): recover
        assert backend.try_recover(force=True)
        assert not backend.read_only
        self._write(backend, "/g", b"accepted again")
        assert self._read(backend, "/g") == b"accepted again"

    def test_eio_degrades_after_consecutive_threshold(self, tmp_path):
        backend = self._backend(tmp_path, eio_degrade_threshold=3)
        h = backend.open(
            OWNER, "/f", OpenFlags(write=True, create=True), 0o644
        )
        for _ in range(3):
            backend.store.plan.script(
                DiskFaultScript(op="pwrite", action=EIO)
            )
        for _ in range(3):
            assert not backend.read_only
            with pytest.raises(E.UnknownError):
                backend.pwrite(h, b"dying disk", 0)
        backend.close(h)
        assert backend.read_only
        assert backend.read_only_reason == "eio"
        # EIO degradation refuses with TRY_AGAIN (the disk may return)
        with pytest.raises(E.TryAgainError):
            self._write(backend, "/g", b"refused")

    def test_successful_write_resets_the_eio_streak(self, tmp_path):
        backend = self._backend(tmp_path, eio_degrade_threshold=3)
        h = backend.open(
            OWNER, "/f", OpenFlags(write=True, create=True), 0o644
        )
        for _ in range(2):
            backend.store.plan.script(
                DiskFaultScript(op="pwrite", action=EIO)
            )
        for _ in range(2):
            with pytest.raises(E.UnknownError):
                backend.pwrite(h, b"x", 0)
        backend.pwrite(h, b"fine", 0)  # streak broken
        for _ in range(2):
            backend.store.plan.script(
                DiskFaultScript(op="pwrite", action=EIO)
            )
        for _ in range(2):
            with pytest.raises(E.UnknownError):
                backend.pwrite(h, b"x", 0)
        backend.close(h)
        assert not backend.read_only

    def test_quota_refusal_never_degrades(self, tmp_path):
        backend = self._backend(tmp_path, quota_bytes=100)
        h = backend.open(
            OWNER, "/big", OpenFlags(write=True, create=True), 0o644
        )
        with pytest.raises(E.NoSpaceError):
            backend.pwrite(h, b"x" * 200, 0)
        backend.close(h)
        # a policy refusal is the abstraction working, not the disk dying
        assert not backend.read_only

    def test_recovery_probe_is_throttled(self, tmp_path):
        backend = self._backend(tmp_path, recovery_probe_interval=3600.0)
        backend.store.plan.script(DiskFaultScript(op="pwrite", action=ENOSPC))
        with pytest.raises(E.NoSpaceError):
            self._write(backend, "/f", b"boom")
        assert backend.read_only
        # keep the store broken so probes fail
        backend.store.plan = DiskFaultPlan.chaos(1, eio_rate=1.0)
        assert not backend.try_recover()  # probe runs, store still sick
        probes = backend.snapshot()["recovery_probes"]
        assert not backend.try_recover()  # inside the interval: no probe
        assert backend.snapshot()["recovery_probes"] == probes
        assert not backend.try_recover(force=True)  # force bypasses it
        assert backend.snapshot()["recovery_probes"] == probes + 1

    def test_snapshot_reports_degraded_state(self, tmp_path):
        backend = self._backend(tmp_path)
        backend.store.plan.script(DiskFaultScript(op="pwrite", action=ENOSPC))
        with pytest.raises(E.NoSpaceError):
            self._write(backend, "/f", b"boom")
        with pytest.raises(E.NoSpaceError):
            self._write(backend, "/g", b"refused")
        snap = backend.snapshot()
        assert snap["read_only"] is True
        assert snap["read_only_reason"] == "enospc"
        assert snap["degraded_entered"] == 1
        assert snap["writes_refused"] >= 1
        assert snap["write_errors"] >= 1
