"""A booted workload and the closed loop that drives it.

``Bench`` is set-up: boot the daemons, create the volume, populate it.
``drive`` is the measurement: the one client issues its next op only
after the previous one returned (callers of a filesystem wait for each
reply), for a fixed time (untraced windows) or a fixed op count (the
traced replay).

A timed window is cut into one-second slices and every gated number is
the better quartile of its per-slice values.  This sandbox is a few
cores of a shared host and loses a quarter of its speed for seconds at
a time; the better quartile ignores such patches while a quarter of the
window escapes them, where a pooled figure absorbs all of them.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from typing import Optional

from daemons import Daemons, Scratch, counter_delta
from tracing import RecordingRegistry, SpanBuffer
from workloads import CLIENTS, Env

from repro.auth.methods import ClientCredentials
from repro.transport.metrics import MetricsRegistry

__all__ = ["Bench", "Window", "drive", "percentile", "client_threads"]

SLICE_NS = 1_000_000_000
_MAX_REPORTED_FAILURES = 5


def client_threads() -> int:
    """One closed-loop client.  A second Python thread in this process
    would time the GIL hand-off, not the system (a 5 us cache hit moved
    by a third between identical runs), and with the daemons it would
    want more cores than the sandbox has.  Claims about connection scale
    are therefore out of this benchmark's scope."""
    return 1


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = max(1, min(n, int(p / 100.0 * n + 0.999999)))
    return float(sorted_values[rank - 1])


class Bench:
    """One workload, booted and populated; ``close()`` tears it all down."""

    def __init__(self, workload: str, seed: int, scratch: Scratch, traced: bool = False):
        cls = CLIENTS[workload]
        self.client = None
        started = time.perf_counter()
        self.daemons = Daemons(scratch.subdir(workload))
        try:
            self.daemons.boot(cls.daemons)
            db = self.daemons.addresses("db")
            self.env = Env(
                seed=seed,
                nthreads=client_threads(),
                chirp=self.daemons.addresses("chirp"),
                db=db[0] if db else None,
                creds=ClientCredentials(methods=("unix",)),
            )
            cls.prepare(self.env)
            # Untraced runs carry the stock registry: the metering cost
            # every user of the stack pays, and nothing more.
            metrics = RecordingRegistry() if traced else MetricsRegistry()
            self.client = cls(self.env, 0, metrics)
            self.client.populate()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def close(self) -> None:
        client, self.client = self.client, None
        if client is not None:
            try:
                client.close()
            except Exception as exc:  # teardown must reach the daemons
                print(f"tssbench: closing the client failed: {exc!r}", file=sys.stderr)
        self.daemons.stop()


class _Slice:
    """About one second of a timed window."""

    __slots__ = ("ops", "elapsed_s", "client_cpu_s", "server_cpu_s", "marks")

    def __init__(self, ops, elapsed_s, client_cpu_s, server_cpu_s, marks):
        self.ops = ops
        self.elapsed_s = elapsed_s
        self.client_cpu_s = client_cpu_s
        self.server_cpu_s = server_cpu_s
        #: class -> (lo, hi): this slice's samples in ``Window.latency_ns[class]``
        self.marks = marks


class Window:
    """What one drive of the closed loop observed."""

    def __init__(self):
        self.latency_ns: dict[str, array] = {}  # class -> op latencies, in issue order
        self.user_bytes: dict[str, int] = {}  # class -> bytes the caller moved
        self.slices: list[_Slice] = []  # timed windows only
        self.attempted = 0
        self.failed = 0
        self.elapsed_s = 0.0
        self.client_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.proc_before: dict = {}  # daemon name -> ProcSample, around the drive
        self.proc_after: dict = {}
        self._sorted: dict[str, list] = {}

    @property
    def ops(self) -> int:
        return self.attempted - self.failed

    def _over_slices(self, per_slice, whole: float, best=min) -> float:
        """The quiet quartile of a per-slice value (None where a slice
        has none): the first quartile of a cost, the third of a rate.
        Interference from the host only ever adds time, so the better
        quartile is the closer estimate of the program's own cost, and it
        holds while a quarter of the window is undisturbed.  The whole
        drive's value when it was counted or under four slices long."""
        values = [v for v in map(per_slice, self.slices) if v is not None]
        if len(values) < 4:
            return whole
        q1, _, q3 = statistics.quantiles(values, n=4)
        return best(q1, q3)

    def ops_per_s(self) -> float:
        return self._over_slices(
            lambda s: s.ops / s.elapsed_s,
            self.ops / self.elapsed_s if self.elapsed_s else 0.0,
            best=max,
        )

    def server_cpu_ms_per_op(self) -> float:
        return self._over_slices(
            lambda s: s.server_cpu_s * 1e3 / s.ops if s.ops else None,
            self.server_cpu_s * 1e3 / max(1, self.ops),
        )

    def client_cpu_ms_per_op(self) -> float:
        return self._over_slices(
            lambda s: s.client_cpu_s * 1e3 / s.ops if s.ops else None,
            self.client_cpu_s * 1e3 / max(1, self.ops),
        )

    def p50_us(self, cls: str) -> float:
        """The quiet quartile, over slices, of each slice's own median."""
        values = self.latency_ns.get(cls, ())

        def slice_p50(s: _Slice):
            lo, hi = s.marks.get(cls, (0, 0))
            return percentile(sorted(values[lo:hi]), 50) / 1e3 if hi > lo else None

        return self._over_slices(slice_p50, self.percentile_us(cls, 50))

    def sorted_ns(self, cls: str) -> list:
        """The class's latencies, ascending; sorted once, after the drive."""
        if cls not in self._sorted:
            self._sorted[cls] = sorted(self.latency_ns.get(cls, ()))
        return self._sorted[cls]

    def percentile_us(self, cls: str, p: float) -> float:
        """Pooled over the whole drive."""
        return percentile(self.sorted_ns(cls), p) / 1e3

    def samples(self, cls: str) -> int:
        return len(self.latency_ns.get(cls, ()))

    def mb_per_s(self, cls: str) -> float:
        """User bytes over the summed time of the class's ops."""
        busy_ns = sum(self.latency_ns.get(cls, ()))
        return self.user_bytes.get(cls, 0) / 1e6 / (busy_ns / 1e9) if busy_ns else 0.0


def _loop(bench: Bench, window: Window, stop_ns: Optional[int], count: Optional[int],
          spans: Optional[SpanBuffer]) -> None:
    client = bench.client
    classes = client.classes
    layer = client.layer
    registry = client.metrics
    latency_ns = window.latency_ns
    clock = time.perf_counter_ns
    cpu = time.process_time
    server_cpu = bench.daemons.cpu_s
    done = 0
    # the open slice: what it started from
    ops0, marks0 = 0, {}
    server0, cpu0, t0_slice = server_cpu(), cpu(), clock()
    while True:
        if count is not None:
            if done == count:
                break
        elif clock() >= stop_ns:
            break
        op = client.next_op()
        kind = op[0]
        if spans is not None:
            trace, span = spans.next_id(), spans.next_id()
            registry.op = (trace, span)
        failure = None
        result = None
        t0 = clock()
        try:
            result = client.run(op)
        except Exception as exc:  # a failed or refused op is a counted outcome
            failure = exc
        t1 = clock()
        done += 1
        window.attempted += 1
        nbytes = 0
        if failure is None:
            try:
                nbytes = client.verify(op, result)
            except Exception as exc:  # Mismatch, or a result too broken to inspect
                failure = exc
        if spans is not None:
            spans.rows.append((trace, span, None, layer, kind, t0, t1, nbytes))
        if failure is not None:
            window.failed += 1
            if window.failed <= _MAX_REPORTED_FAILURES:
                print(f"tssbench: {client.name} op {kind} failed: {failure!r}", file=sys.stderr)
        else:
            cls = classes[kind]
            latency_ns.setdefault(cls, array("q")).append(t1 - t0)
            if nbytes:
                window.user_bytes[cls] = window.user_bytes.get(cls, 0) + nbytes
        if stop_ns is not None and t1 - t0_slice >= SLICE_NS:
            # Close the slice at this op's end; the next opens after the
            # bookkeeping, which therefore sits in no slice.
            client_cpu_s = cpu() - cpu0
            server1 = server_cpu()
            marks1 = {c: len(v) for c, v in latency_ns.items()}
            window.slices.append(_Slice(
                window.ops - ops0, (t1 - t0_slice) / 1e9, client_cpu_s, server1 - server0,
                {c: (marks0.get(c, 0), hi) for c, hi in marks1.items()},
            ))
            ops0, marks0 = window.ops, marks1
            server0, cpu0, t0_slice = server1, cpu(), clock()


def drive(bench: Bench, *, seconds: Optional[float] = None, count: Optional[int] = None,
          spans: Optional[SpanBuffer] = None) -> Window:
    """Run the client's closed loop for ``seconds`` or for ``count`` ops."""
    window = Window()
    if spans is not None:
        bench.client.metrics.spans = spans
    window.proc_before = bench.daemons.sample()
    client_cpu = time.process_time()
    start_ns = time.perf_counter_ns()
    stop_ns = start_ns + int(seconds * 1e9) if seconds is not None else None
    _loop(bench, window, stop_ns, count, spans)
    window.elapsed_s = (time.perf_counter_ns() - start_ns) / 1e9
    window.client_cpu_s = time.process_time() - client_cpu
    window.proc_after = bench.daemons.sample()
    window.server_cpu_s = counter_delta(window.proc_before, window.proc_after, "cpu_s")
    if spans is not None:
        # Only now: readahead helpers finishing RPCs after their op ended
        # must still find its ids.
        bench.client.metrics.op = None
    return window
