"""Seeded chaos soak: degraded-mode reads under injected transport faults.

The acceptance scenario for the robustness work: a 3-replica
``ReplicatedFS`` whose replicas all sit behind fault proxies -- one
replica hard-down (every connection reset), one jittery (seeded mix of
resets, truncations and latency), one healthy.  Every read must still
complete, within its deadline budget, by failing over; the dead
replica's circuit breaker must be observably open in the metrics
snapshot; and re-running the same workload with the same seed must
replay the *identical* fault sequence (the proxies' event logs are the
witness).
"""

from __future__ import annotations

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.core.placement import RoundRobinPlacement
from repro.core.pool import ClientPool
from repro.core.replfs import ReplicatedFS
from repro.transport.recovery import RetryPolicy
from repro.transport.deadline import Deadline
from repro.transport.faults import FaultPlan, FaultyListener
from repro.transport.health import STATE_OPEN
from repro.transport.metrics import MetricsRegistry

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)

CHAOS_SEED = 20260805
READ_BUDGET = 15.0  # generous wall-clock ceiling per read, CI-safe

# The workload: fixed names, fixed sizes, so byte offsets on the wire --
# and therefore the proxies' fault trigger points -- are reproducible.
PAYLOADS = {f"/f{i}": bytes([65 + i]) * (512 * (i + 1)) for i in range(4)}


def _jitter_plan(seed: int) -> FaultPlan:
    """The seeded mix required by the acceptance scenario."""
    return FaultPlan.chaos(
        seed,
        reset_rate=0.2,
        truncate_rate=0.3,
        latency=(0.0, 0.004),
        cut_range=(64, 2048),
    )


def chaos_run(seed: int, server_factory, credentials) -> dict:
    """One full populate-then-read cycle against freshly faulted proxies.

    Returns everything a caller needs to judge the run: what each read
    produced, the health section of the metrics snapshot, each proxy's
    event log, and the dead proxy's breaker label.
    """
    servers = [server_factory.new() for _ in range(3)]
    dir_server = server_factory.new()
    proxies = [FaultyListener(s.address).start() for s in servers]
    proxy_addrs = [p.address for p in proxies]

    # Phase 1: populate through the (still pass-through) proxies, so the
    # replica stubs point at the proxy addresses.
    setup_pool = ClientPool(credentials, timeout=10.0, metrics=MetricsRegistry())
    try:
        dir_client = setup_pool.get(*dir_server.address)
        dir_client.mkdir("/cvol")
        for s in servers:
            c = setup_pool.get(*s.address)
            c.mkdir("/tssdata")
            c.mkdir("/tssdata/cvol")
        fs = ReplicatedFS(
            CFS(dir_client, "/cvol", FAST),
            setup_pool,
            proxy_addrs,
            "/tssdata/cvol",
            copies=3,
            placement=RoundRobinPlacement(seed=11),
            policy=FAST,
        )
        for path, data in PAYLOADS.items():
            handle = fs.open(path, OpenFlags(write=True, create=True))
            try:
                handle.pwrite(data, 0)
            finally:
                handle.close()
    finally:
        setup_pool.close()

    # Phase 2: inject the faults -- replica 0 hard-down, replica 1
    # jittery, replica 2 healthy -- and read everything back through a
    # fresh pool (fresh connections, fresh breakers).
    proxies[0].break_now(refuse_new=True)
    proxies[1].plan = _jitter_plan(seed)
    read_pool = ClientPool(credentials, timeout=5.0, metrics=MetricsRegistry())
    try:
        fs = ReplicatedFS(
            CFS(read_pool.get(*dir_server.address), "/cvol", FAST),
            read_pool,
            proxy_addrs,
            "/tssdata/cvol",
            copies=3,
            placement=RoundRobinPlacement(seed=11),
            policy=FAST,
        )
        reads = {}
        degraded = 0
        for path, data in PAYLOADS.items():
            deadline = Deadline(READ_BUDGET)
            handle = fs.open(path, OpenFlags(read=True))
            try:
                reads[path] = handle.pread(len(data), 0, deadline=deadline)
                degraded += int(handle.degraded or handle.suspects)
            finally:
                handle.close()
            assert not deadline.expired, f"{path}: read blew its budget"
        health = read_pool.metrics.snapshot()["health"]
    finally:
        read_pool.close()

    logs = []
    for p in proxies:
        p.stop()
        logs.append(p.event_log())
    return {
        "reads": reads,
        "degraded": degraded,
        "health": health,
        "logs": logs,
        "dead_label": "%s:%d" % proxies[0].address,
    }


@pytest.mark.chaos
class TestSeededChaosSoak:
    def test_failover_breaker_and_reproducibility(self, server_factory, credentials):
        first = chaos_run(CHAOS_SEED, server_factory, credentials)

        # Every read completed, correctly, despite one dead and one
        # jittery replica.
        assert first["reads"] == PAYLOADS
        # At least one handle actually exercised the degraded path
        # (dropped a replica at open or failed over mid-read).
        assert first["degraded"] >= 1

        # The dead replica's breaker is open in the metrics snapshot,
        # and tripped because of consecutive transport failures.
        dead = first["health"][first["dead_label"]]
        assert dead["state"] == STATE_OPEN
        assert dead["consecutive_failures"] >= 1

        # Same seed, same workload: the identical fault sequence, per
        # proxy, down to the byte offsets of every cut.
        second = chaos_run(CHAOS_SEED, server_factory, credentials)
        assert second["reads"] == PAYLOADS
        for index, (a, b) in enumerate(zip(first["logs"], second["logs"])):
            assert a == b, f"proxy {index} fault sequence diverged"

    def test_jitter_plan_is_deterministic(self):
        plan_a = _jitter_plan(CHAOS_SEED)
        plan_b = _jitter_plan(CHAOS_SEED)
        a = [plan_a.next_script().describe() for _ in range(16)]
        b = [plan_b.next_script().describe() for _ in range(16)]
        assert a == b
