"""In-process probes: time one layer's public functions directly.

Each probe builds the layer on a scratch directory (or a socketpair),
calls its public surface in a tight loop and reports the median, so a
per-layer cost is visible without the layers above it.  Nothing here
reaches into private state; nothing here is a workload.
"""

from __future__ import annotations

import io
import os
import socket
import threading
import time

from repro import ChirpClient
from repro.cache.block import BlockCache
from repro.chirp.backend import Backend
from repro.chirp.protocol import OpenFlags
from repro.db import MetadataDB, Query
from repro.store import CasStore, LocalDirStore
from repro.store.interface import HandleReader, HandleWriter
from repro.util.wire import LineStream

__all__ = ["run_probes", "probe_auth"]

MIB = 1 << 20
_SUBJECT = "unix:bench"


def _median_us(fn, n: int) -> float:
    """Median wall time of ``fn(i)`` over ``n`` calls, in microseconds."""
    clock = time.perf_counter_ns
    samples = []
    for i in range(n):
        t0 = clock()
        fn(i)
        samples.append(clock() - t0)
    samples.sort()
    return samples[n // 2] / 1e3


def _wire(out: dict) -> None:
    # Both ends share the run's one CPU (``pin_one_cpu``): the probe
    # times the codec and the socket calls, not how long this sandbox
    # takes to wake an idle sibling core (which moves the round trip
    # fivefold).
    a, b = socket.socketpair()
    client, server = LineStream(a), LineStream(b)
    payload = os.urandom(16 * MIB)
    rounds = 2000
    copies = 3

    def echo():
        for _ in range(rounds):
            server.write_line(0, *server.read_tokens())
        for _ in range(copies):
            n = int(server.read_tokens()[1])
            server.read_into_file(io.BytesIO(), n)
            server.write_line(n)

    peer = threading.Thread(target=echo)
    peer.start()
    try:
        def ping(i):
            client.write_line("stat", f"/some/dir/file{i}")
            client.read_tokens()

        out["wire.line_rtt_us"] = _median_us(ping, rounds)

        def copy(_i):
            client.write_line("putfile", len(payload))
            client.write(payload)
            client.read_tokens()

        out["wire.payload_copy_MBps"] = len(payload) / 1e6 / (_median_us(copy, copies) / 1e6)
    finally:
        peer.join()
        client.close()
        server.close()


def probe_auth(address, creds) -> float:
    """Connect-and-authenticate time minus a bare loopback TCP dial.

    The bare dial goes to a listener of the probe's own: a connection
    that closes before authenticating wedges the file server's graceful
    shutdown (its drain then waits out its full timeout), so the
    benchmark never sends one to a daemon.
    """
    def session(_i):
        ChirpClient(*address, credentials=creds).close()

    with socket.create_server(("127.0.0.1", 0), backlog=64) as listener:
        def dial(_i):
            socket.create_connection(listener.getsockname(), timeout=30).close()

        bare = _median_us(dial, 30)
    return max(0.0, _median_us(session, 30) - bare)


def _local_store(root: str, out: dict) -> None:
    os.mkdir(os.path.join(root, "local"))
    store = LocalDirStore(os.path.join(root, "local"))  # sync_meta on: the server default
    backend = Backend(store, _SUBJECT)
    store.mkdir("/d", 0o755)
    create = OpenFlags(read=True, write=True, create=True)
    with store.open("/d/f", create, 0o644) as h:
        h.pwrite(os.urandom(MIB), 0)
    out["store.local.stat_us"] = _median_us(lambda i: store.stat("/d/f"), 2000)
    out["backend.stat_us"] = _median_us(lambda i: backend.stat(_SUBJECT, "/d/f"), 2000)
    out["backend.acl_self_us"] = out["backend.stat_us"] - out["store.local.stat_us"]

    def open_close(_i):
        backend.close(backend.open(_SUBJECT, "/d/f", OpenFlags(read=True), 0o644))

    out["backend.open_close_us"] = _median_us(open_close, 1000)

    def create_unlink(i):
        store.open(f"/d/n{i}", OpenFlags(write=True, create=True, exclusive=True), 0o644).close()
        store.unlink(f"/d/n{i}")

    out["store.local.create_unlink_us"] = _median_us(create_unlink, 200)
    page = os.urandom(4096)
    with store.open("/d/f", OpenFlags(read=True, write=True), 0o644) as h:
        out["store.local.pread_4k_us"] = _median_us(lambda i: h.pread(4096, (i % 256) * 4096), 2000)
        out["store.local.pwrite_4k_us"] = _median_us(lambda i: h.pwrite(page, (i % 256) * 4096), 2000)

    chunk = os.urandom(MIB)

    def stream(i):
        with store.open(f"/d/s{i}", create, 0o644) as h:
            writer = HandleWriter(h)
            for _ in range(16):
                writer.write(chunk)
            reader = HandleReader(h)
            while reader.read(MIB):
                pass

    out["store.local.stream_MBps"] = 32 * MIB / 1e6 / (_median_us(stream, 3) / 1e6)


def _cas_store(root: str, out: dict) -> None:
    os.mkdir(os.path.join(root, "cas"))
    store = CasStore(os.path.join(root, "cas"))
    store.mkdir("/d", 0o755)
    flags = OpenFlags(write=True, create=True, truncate=True)

    def put(path: str, data: bytes) -> None:
        with store.open(path, flags, 0o644) as h:
            h.pwrite(data, 0)

    blobs = [os.urandom(16 * 1024) for _ in range(100)]
    out["store.cas.put_new_us"] = _median_us(lambda i: put(f"/d/new{i}", blobs[i]), 100)
    out["store.cas.put_dup_us"] = _median_us(lambda i: put(f"/d/dup{i}", blobs[0]), 100)


def _db_engine(root: str, out: dict) -> None:
    def record(i: int) -> dict:
        return {
            "tss_kind": "file", "name": f"rec-{i}", "size": 16384, "checksum": "0" * 40,
            "molecule": f"mol-{i % 50}", "step": i,
            "replicas": [
                {"host": "127.0.0.1", "port": 9094 + r, "path": f"/tssdata/gems/file-{i}-{r}", "state": "ok"}
                for r in range(2)
            ],
        }

    path = os.path.join(root, "db")
    with MetadataDB(path) as durable:
        ids: list[str] = []
        out["db.engine.insert_us"] = _median_us(lambda i: ids.append(durable.insert(record(i))), 200)
        out["db.engine.log_bytes_per_insert"] = os.path.getsize(os.path.join(path, "db.log")) / len(ids)
        out["db.engine.update_us"] = _median_us(lambda i: durable.update(ids[i], {"step": -i}), 200)
    for label, indexes in (("scan", ()), ("indexed", ("molecule",))):
        with MetadataDB(None, indexes=indexes) as db:
            for i in range(2000):
                db.insert(record(i))
            out[f"db.engine.query_{label}_us"] = _median_us(
                lambda i: db.query(Query.where(tss_kind="file", molecule=f"mol-{i % 50}"), 10), 200
            )


def _block_cache(out: dict) -> None:
    cache = BlockCache(32 * MIB, 64 * 1024)
    block = bytes(64 * 1024)
    for i in range(256):
        cache.put("127.0.0.1:9094:/f", i, block)
    out["cache.hit_path_us"] = _median_us(lambda i: cache.get("127.0.0.1:9094:/f", i % 256), 20000)


def run_probes(root: str) -> dict:
    """Every daemon-free probe; ``root`` is a scratch directory."""
    out: dict = {}
    _wire(out)
    _local_store(root, out)
    _cas_store(root, out)
    _db_engine(root, out)
    _block_cache(out)
    return out
