"""Ablation: striping a single file across servers (live, loopback).

"One may imagine filesystems that transparently stripe ... data" -- this
measures the realized extension: one logical file read through one
server (CFS) vs striped across four, on real sockets.  On loopback all
"servers" share one machine's CPU, so the paper-scale aggregate-bandwidth
win cannot show here; the bench reports the measured ratio and asserts
only correctness plus a sanity band (striping overhead must not be
catastrophic).  The aggregate-bandwidth *mechanism* (multiple NICs in
parallel) is asserted in the Figure 6 simulation instead.

The second ablation isolates the transport layer's contribution: the same
striped file read with stripe fetches forced serial (one connection per
endpoint, one fan-out worker) vs the default parallel fan-out.  Raw
loopback on one core is CPU-bound (every byte is a memcpy on the same
core), which hides the win, so the stripe traffic goes through loopback
proxies that add a small per-chunk link latency.  Sleeping releases the
GIL, so the parallel path genuinely overlaps the simulated turnarounds --
the same mechanism that pays off across real links.
"""

import getpass
import socket
import threading
import time

import pytest

from repro.auth.methods import AuthContext, ClientCredentials
from repro.chirp.server import FileServer, ServerConfig
from repro.core.cfs import CFS
from repro.core.pool import ClientPool
from repro.transport.recovery import RetryPolicy
from repro.core.stripefs import StripedFS

FILE_BYTES = 8 * 1024 * 1024
STRIPE = 256 * 1024


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("striping")
    challenge = tmp / "challenge"
    challenge.mkdir()
    auth = AuthContext(enabled=("unix",), unix_challenge_dir=str(challenge))
    owner = f"unix:{getpass.getuser()}"
    servers = []
    for i in range(5):
        root = tmp / f"export{i}"
        root.mkdir()
        servers.append(
            FileServer(ServerConfig(root=str(root), owner=owner, auth=auth)).start()
        )
    pool = ClientPool(ClientCredentials(methods=("unix",)))
    policy = RetryPolicy(max_attempts=2, initial_delay=0.05)

    payload = bytes(i % 251 for i in range(FILE_BYTES))
    cfs = CFS(pool.get(*servers[0].address), policy=policy)
    cfs.write_file("/flat.bin", payload)

    dir_client = pool.get(*servers[0].address)
    dir_client.mkdir("/svol")
    for s in servers[1:]:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        c.mkdir("/tssdata/svol")
    striped = StripedFS(
        CFS(dir_client, "/svol", policy),
        pool,
        [s.address for s in servers[1:]],
        "/tssdata/svol",
        stripe_size=STRIPE,
        policy=policy,
    )
    striped.write_file("/striped.bin", payload)
    yield cfs, striped, payload, servers, policy
    pool.close()
    for s in servers:
        s.stop()


def _reader(dir_addr, data_addrs, policy, **kwargs):
    """A fresh StripedFS view of the already-written volume."""
    pool = ClientPool(
        ClientCredentials(methods=("unix",)),
        max_conns_per_endpoint=kwargs.pop("max_conns_per_endpoint", None) or 4,
    )
    fs = StripedFS(
        CFS(pool.get(*dir_addr), "/svol", policy),
        pool,
        data_addrs,
        "/tssdata/svol",
        stripe_size=STRIPE,
        policy=policy,
        **kwargs,
    )
    return pool, fs


class _LatencyProxy:
    """Loopback TCP relay adding a fixed delay per forwarded chunk.

    Stands in for a real link's turnaround time: the sleep releases the
    GIL, so concurrent streams overlap their waits just as concurrent
    RPCs overlap wire latency.
    """

    def __init__(self, target: tuple, delay: float):
        self._target = target
        self._delay = delay
        self._srv = socket.socket()
        self._srv.bind(("127.0.0.1", 0))
        self._srv.listen(32)
        self.address = self._srv.getsockname()
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._srv.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self._target)
            except OSError:
                client.close()
                continue
            for src, dst in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump, args=(src, dst), daemon=True
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        while True:
            try:
                data = src.recv(65536)
            except OSError:
                data = b""
            if not data:
                for s in (src, dst):
                    try:
                        s.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                return
            time.sleep(self._delay)
            try:
                dst.sendall(data)
            except OSError:
                return

    def close(self) -> None:
        self._srv.close()


def test_ablation_striping(benchmark, setup, figure):
    cfs, striped, payload, _servers, _policy = setup

    def read_flat():
        return cfs.read_file("/flat.bin")

    def read_striped():
        return striped.read_file("/striped.bin")

    # correctness first: both paths return identical bytes
    assert read_flat() == payload
    assert read_striped() == payload

    flat_s = benchmark.pedantic(
        lambda: min(_timed(read_flat) for _ in range(3)), rounds=1, iterations=1
    )
    striped_s = min(_timed(read_striped) for _ in range(3))

    flat_bw = FILE_BYTES / flat_s / 1e6
    striped_bw = FILE_BYTES / striped_s / 1e6
    report = figure(
        "Ablation striping", "8 MB read: one server vs 4-way striping (loopback)"
    )
    report.header("path                    MB/s")
    report.row(f"CFS (one server)   {flat_bw:9.1f}")
    report.row(f"StripedFS (4-way)  {striped_bw:9.1f}")
    report.row(f"ratio              {striped_bw/flat_bw:8.2f}x")
    report.series("bw_mb_s", {"cfs": flat_bw, "striped": striped_bw})

    # loopback shares one CPU among all servers, so no aggregate win is
    # promised here -- only that striping is not pathologically slower
    assert striped_bw > 0.3 * flat_bw


def test_ablation_serial_vs_parallel_stripe_fetch(setup, figure):
    """Same 4-way striped file; only the fan-out discipline changes."""
    _cfs, _striped, payload, servers, policy = setup

    # 1 ms per forwarded chunk stands in for link turnaround; both
    # disciplines pay it, only one can overlap it.  Stripe locations are
    # recorded in the stub at write time, so the file is written through
    # the proxies to put them on the read path too.
    proxies = [_LatencyProxy(s.address, delay=0.001) for s in servers[1:]]
    data_addrs = [p.address for p in proxies]
    writer_pool, writer_fs = _reader(servers[0].address, data_addrs, policy)
    serial_pool, serial_fs = _reader(
        servers[0].address,
        data_addrs,
        policy,
        max_conns_per_endpoint=1,
        fanout_workers=1,
    )
    parallel_pool, parallel_fs = _reader(servers[0].address, data_addrs, policy)
    try:
        writer_fs.write_file("/striped-lat.bin", payload)
        assert serial_fs.read_file("/striped-lat.bin") == payload
        assert parallel_fs.read_file("/striped-lat.bin") == payload

        serial_s = min(
            _timed(lambda: serial_fs.read_file("/striped-lat.bin")) for _ in range(3)
        )
        parallel_s = min(
            _timed(lambda: parallel_fs.read_file("/striped-lat.bin")) for _ in range(3)
        )
    finally:
        writer_pool.close()
        serial_pool.close()
        parallel_pool.close()
        for proxy in proxies:
            proxy.close()

    serial_bw = FILE_BYTES / serial_s / 1e6
    parallel_bw = FILE_BYTES / parallel_s / 1e6
    report = figure(
        "Ablation stripe fanout",
        "8 MB striped read, 4 servers behind 1 ms links: serial vs parallel",
    )
    report.header("fetch discipline          MB/s")
    report.row(f"serial (1 worker)    {serial_bw:9.1f}")
    report.row(f"parallel (default)   {parallel_bw:9.1f}")
    report.row(f"speedup              {parallel_bw/serial_bw:8.2f}x")
    report.series("bw_mb_s", {"serial": serial_bw, "parallel": parallel_bw})

    # Four independent streams must overlap their turnarounds; anything
    # under a 1.5x win means the fan-out serialized somewhere.
    assert parallel_s < serial_s / 1.5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
