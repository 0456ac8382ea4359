"""Ablation: the cost of stub indirection, model and live.

Figure 4 shows DSFS paying ~2x on metadata for its stub lookups.  This
ablation (a) sweeps the number of extra stub round trips in the model --
deeper indirection chains (e.g. stubs pointing at stubs for future
striping/replication layers) scale latency linearly -- and (b) measures
the real CFS-vs-DSFS stat gap over loopback.
"""

import dataclasses

import getpass

import pytest

from repro.core.dsfs import DSFS
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.auth.methods import AuthContext, ClientCredentials
from repro.chirp.client import ChirpClient
from repro.chirp.server import FileServer, ServerConfig
from repro.core.cfs import CFS
from repro.sim.params import PAPER_PARAMS
from repro.sim.stacks import CfsStack, DsfsStack

DEPTHS = [0, 1, 2, 4]


@pytest.fixture(scope="module")
def live_fs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stub")
    challenge = tmp / "challenge"
    challenge.mkdir()
    auth = AuthContext(enabled=("unix",), unix_challenge_dir=str(challenge))
    servers = []
    for i in range(3):
        root = tmp / f"export{i}"
        root.mkdir()
        servers.append(
            FileServer(
                ServerConfig(root=str(root), owner=f"unix:{getpass.getuser()}", auth=auth)
            ).start()
        )
    pool = ClientPool(ClientCredentials(methods=("unix",)))
    policy = RetryPolicy(max_attempts=2, initial_delay=0.05)
    cfs = CFS(pool.get(*servers[0].address), policy=policy)
    cfs.write_file("/f.bin", b"x" * 1000)
    dsfs = DSFS.create(
        pool, *servers[0].address, "/vol",
        [s.address for s in servers[1:]], name="vol", policy=policy,
    )
    dsfs.write_file("/f.bin", b"x" * 1000)
    yield cfs, dsfs
    pool.close()
    for s in servers:
        s.stop()


def model_sweep():
    cfs_stat = CfsStack().op("stat")
    rows = {}
    for depth in DEPTHS:
        params = dataclasses.replace(PAPER_PARAMS, dsfs_stub_rpcs=depth)
        rows[depth] = DsfsStack(params).op("stat")
    return cfs_stat, rows


def test_ablation_stub_indirection(benchmark, live_fs, figure):
    cfs_stat, rows = benchmark.pedantic(model_sweep, rounds=1, iterations=1)

    report = figure(
        "Ablation stub indirection", "stat latency vs stub chain depth"
    )
    report.header(f"{'extra stub RPCs':>16} {'model stat (us)':>16}")
    report.row(f"{'(CFS: 0)':>16} {cfs_stat*1e6:16.1f}")
    for depth, latency in rows.items():
        report.row(f"{depth:>16} {latency*1e6:16.1f}")
    report.series("model_stat_us", {d: t * 1e6 for d, t in rows.items()})

    # linear growth in indirection depth
    rtt = PAPER_PARAMS.lan_rtt + PAPER_PARAMS.server_op_overhead
    for depth in DEPTHS:
        assert rows[depth] == pytest.approx(rows[0] + depth * rtt, rel=1e-9)

    # and the live system shows the same ordering: DSFS stat > CFS stat
    import time

    cfs, dsfs = live_fs

    def measure(fn, n=200):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - start) / n

    cfs_live = measure(lambda: cfs.stat("/f.bin"))
    dsfs_live = measure(lambda: dsfs.stat("/f.bin"))
    report.row(f"live: cfs stat {cfs_live*1e6:9.1f} us, dsfs stat {dsfs_live*1e6:9.1f} us")
    report.series("live_stat_us", {"cfs": cfs_live * 1e6, "dsfs": dsfs_live * 1e6})
    assert dsfs_live > 1.3 * cfs_live
