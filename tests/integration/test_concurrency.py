"""Concurrency: the exclusive-create protocol and shared state under racing.

The paper's DSFS creation protocol leans entirely on "the 'exclusive
open' feature of the Unix interface ... so that in the event of a name
collision between two processes, file creation can be aborted."  These
tests race real threads through real servers to check the arbitration.
"""

import threading

import pytest

from repro.auth.methods import ClientCredentials
from repro.chirp.client import ChirpClient
from repro.chirp.protocol import OpenFlags
from repro.core.dsfs import DSFS
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.util import errors as E

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


def race(n_threads, fn):
    """Start n threads behind a barrier; returns their results/errors."""
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def runner(i):
        barrier.wait()
        try:
            results[i] = ("ok", fn(i))
        except Exception as exc:  # noqa: BLE001 - collected for assertions
            results[i] = ("err", exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    return results


class TestExclusiveCreateRaces:
    def test_chirp_exclusive_open_has_one_winner(self, file_server, credentials):
        clients = [
            ChirpClient(*file_server.address, credentials=credentials)
            for _ in range(6)
        ]

        def attempt(i):
            return clients[i].open("/contested", "wcx")

        results = race(6, attempt)
        winners = [r for r in results if r[0] == "ok"]
        losers = [r for r in results if r[0] == "err"]
        assert len(winners) == 1
        assert all(isinstance(r[1], E.AlreadyExistsError) for r in losers)
        for c in clients:
            c.close()

    def test_dsfs_create_race_has_one_winner(self, server_factory, credentials):
        servers = [server_factory.new() for _ in range(2)]
        dir_server = server_factory.new()
        pools = [ClientPool(credentials) for _ in range(4)]
        DSFS.create(
            pools[0], *dir_server.address, "/vol",
            [s.address for s in servers], name="vol", policy=FAST,
        )
        views = [
            DSFS.open_volume(p, *dir_server.address, "/vol", policy=FAST)
            for p in pools
        ]
        flags = OpenFlags(write=True, create=True, exclusive=True)

        def attempt(i):
            handle = views[i].open("/contested", flags)
            handle.pwrite(f"winner-{i}".encode(), 0)
            handle.close()
            return i

        results = race(4, attempt)
        winners = [r for r in results if r[0] == "ok"]
        assert len(winners) == 1
        winner_id = winners[0][1]
        assert views[0].read_file("/contested") == f"winner-{winner_id}".encode()
        # exactly one data file exists: losers left no garbage behind
        from repro.core.fsck import fsck_volume

        assert fsck_volume(views[0]).clean
        for p in pools:
            p.close()

    def test_non_exclusive_concurrent_creates_converge(self, server_factory, credentials):
        """Plain (non-exclusive) create: every writer succeeds; the file
        ends with one writer's content and fsck stays clean."""
        servers = [server_factory.new() for _ in range(2)]
        dir_server = server_factory.new()
        pool = ClientPool(credentials)
        fs = DSFS.create(
            pool, *dir_server.address, "/vol",
            [s.address for s in servers], name="vol", policy=FAST,
        )

        def attempt(i):
            fs.write_file("/shared", f"writer-{i}".encode())
            return i

        results = race(4, attempt)
        assert all(r[0] == "ok" for r in results)
        content = fs.read_file("/shared")
        assert content in {f"writer-{i}".encode() for i in range(4)}
        from repro.core.fsck import fsck_volume

        report = fsck_volume(fs, remove_orphans=True)
        assert not report.dangling_stubs
        pool.close()


class TestSharedClientThreadSafety:
    def test_one_client_many_threads(self, file_server, credentials):
        """RPCs through one shared connection are serialized correctly."""
        client = ChirpClient(*file_server.address, credentials=credentials)

        def attempt(i):
            for j in range(25):
                client.putfile(f"/t{i}-{j}", bytes([i]) * 64)
            return sum(
                len(client.getfile(f"/t{i}-{j}")) for j in range(25)
            )

        results = race(8, attempt)
        assert all(r == ("ok", 25 * 64) for r in results)
        client.close()

    def test_pool_concurrent_get(self, file_server, credentials):
        pool = ClientPool(credentials)

        def attempt(i):
            return id(pool.get(*file_server.address))

        results = race(8, attempt)
        ids = {r[1] for r in results if r[0] == "ok"}
        assert len(ids) == 1  # one shared connection, no duplicates
        pool.close()


class TestGemsConcurrency:
    def test_parallel_ingest(self, server_factory, credentials):
        from repro.core.dsdb import DSDB
        from repro.db.engine import MetadataDB
        from repro.db.query import Query

        servers = [server_factory.new() for _ in range(3)]
        pool = ClientPool(credentials)
        db = MetadataDB(None, indexes=("tss_kind",))
        dsdb = DSDB(db, pool, [s.address for s in servers])

        def attempt(i):
            recs = [
                dsdb.ingest(f"w{i}/f{j}", bytes([i]) * 500, {"w": i})
                for j in range(5)
            ]
            return len(recs)

        results = race(6, attempt)
        assert all(r == ("ok", 5) for r in results)
        assert db.count(Query.where(tss_kind="file")) == 30
        # every record fetches intact
        for rec in db.query(Query.where(tss_kind="file")):
            assert dsdb.fetch(rec["id"], verify=True) == bytes([rec["w"]]) * 500
        pool.close()
