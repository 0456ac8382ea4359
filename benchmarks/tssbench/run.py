#!/usr/bin/env python3
"""tssbench: end-to-end and per-layer benchmark of the tactical storage system.

::

    python3 benchmarks/tssbench/run.py --workload <name|all> --seed N
        [--seconds S] [--trace [0|1]] [--repeat N] [--quick] [--out DIR]

Boots real daemons as subprocesses, drives them over loopback from this
one process with one closed-loop client (client and daemons confined to
one CPU), checks every result against the generator's model, and prints
every metric by name with its unit.

Without ``--trace``: set-up (three times; the median is ``setup_s``),
warm-up, then a ``--seconds`` window with tracing off, giving the
end-to-end metrics.  With ``--trace``: one set-up, a fixed-count
warm-up, a fixed-count traced replay of the seeded op sequence (so its
counts repeat exactly), a short untraced reference window, then the
in-process probes, giving the per-layer metrics and ``spans.jsonl``.

The last stdout line is JSON.  For one run of one workload it is
``{"correct", "attempted", "failed", "metrics"}``; for ``--workload all``
or ``--repeat`` it is the summary also written to ``<out>/summary.json``,
which ends with ``"claim": null`` -- this benchmark measures, it claims
no gain.  Exit status is non-zero when any op failed or mismatched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"tssbench: the program under test is missing: no {_SRC}/repro")
sys.path.insert(0, _SRC)

import spec  # noqa: E402
from bench import Bench, Window, client_threads, drive  # noqa: E402
from daemons import REPO_ROOT, Scratch, disk_usage, fs_type, pin_one_cpu, steady_allocator  # noqa: E402
from probes import probe_auth, run_probes  # noqa: E402
from report import end_to_end, latency_table, per_layer, quartiles  # noqa: E402
from tracing import SpanBuffer  # noqa: E402
from workloads import CLIENTS  # noqa: E402

SETUP_REPEATS = 3
WARMUP_S = 2.0
REFERENCE_S = 3.0
DEFAULT_SECONDS = 12.0
# --quick: the smoke test's shape check, not a measurement.
QUICK_SECONDS = 2.0
QUICK_WARMUP_S = 0.5
QUICK_REFERENCE_S = 1.0
QUICK_TRACE_DIVISOR = 4


def header(scratch: Scratch, cpu: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "benchmark": "tssbench",
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "client_threads": client_threads(),
        "pinned_cpu": cpu if cpu >= 0 else "none",
        "scratch": scratch.path,
        "scratch_fs": fs_type(scratch.path),
        "transport": "loopback TCP, OS page cache: latencies are this sandbox's, not a device's",
    }


def run_untraced(workload: str, seed: int, seconds: float, quick: bool, scratch: Scratch):
    """Set-up (repeated) -> warm-up -> one measured window, tracing off."""
    setups = []
    bench = None
    try:
        for _ in range(1 if quick else SETUP_REPEATS):
            if bench is not None:
                bench.close()
            bench = Bench(workload, seed, scratch)
            setups.append(bench.setup_s)
        warm = drive(bench, seconds=QUICK_WARMUP_S if quick else WARMUP_S)
        window = drive(bench, seconds=seconds)
    finally:
        if bench is not None:
            bench.close()
    metrics = end_to_end(window)
    metrics["setup_s"] = sorted(setups)[len(setups) // 2]
    window.attempted += warm.attempted
    window.failed += warm.failed
    return metrics, window


class _ThreadPeak:
    """Polls the file servers' thread counts while the replay runs."""

    def __init__(self, daemons):
        self.daemons = daemons
        self.peak = daemons.threads()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.wait(0.1):
            self.peak = max(self.peak, self.daemons.threads())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def run_traced(workload: str, seed: int, quick: bool, scratch: Scratch, spans_path: str):
    """Set-up -> fixed-count warm-up -> fixed-count traced replay ->
    untraced reference window -> probes.  Everything before the replay
    is counted, not timed, so one seed always replays the same ops from
    the same state.  Returns the per-layer metrics."""
    cls = CLIENTS[workload]
    count = cls.trace_ops // QUICK_TRACE_DIVISOR if quick else cls.trace_ops
    spans = SpanBuffer(workload)
    bench = Bench(workload, seed, scratch, traced=True)
    try:
        warm = drive(bench, count=count // 2)
        client = bench.client
        snap_before = client.metrics.snapshot()
        dials_before = client.live_connections()
        with _ThreadPeak(bench.daemons) as sampler:
            replay = drive(bench, count=count, spans=spans)
        snap_after = client.metrics.snapshot()
        dials = client.live_connections() - dials_before
        reference = drive(bench, seconds=QUICK_REFERENCE_S if quick else REFERENCE_S)
        disk_bytes = sum(disk_usage(root) for root in bench.daemons.roots())
        live_bytes = client.live_user_bytes()
        probes = {"auth.handshake_us": probe_auth(bench.env.chirp[0], bench.env.creds)}
    finally:
        bench.close()
    probes.update(run_probes(scratch.subdir("probes")))
    metrics = per_layer(
        layer=cls.layer, spans=spans, replay=replay, reference=reference,
        snap_before=snap_before, snap_after=snap_after, dials=dials,
        threads_peak=sampler.peak, kinds=cls.classes, disk_bytes=disk_bytes,
        live_user_bytes=live_bytes,
        audit_replicas=getattr(cls, "AUDIT_BATCH", 0) * getattr(cls, "REPLICAS", 0),
        probes=probes,
    )
    spans.write(spans_path)
    replay.attempted += warm.attempted + reference.attempted
    replay.failed += warm.failed + reference.failed
    return metrics, replay


def show(workload: str, metrics: dict, window: Window, traced: bool) -> None:
    print(f"== {workload} ({'traced replay' if traced else 'untraced window'}) "
          f"attempted={window.attempted} failed={window.failed}")
    for name, value in metrics.items():
        unit = "ratio" if name == "fail_ratio" else spec.by_name(name).unit
        print(f"  {workload}.{name} = {value:.6g} {unit}")
    if not traced:
        for line in latency_table(window):
            print(line)
    sys.stdout.flush()


def contract_line(metrics: dict, window: Window, traced: bool) -> str:
    """The driver's result object: gated metrics untraced, the rest traced."""
    wanted = spec.UNGATED if traced else spec.GATED
    return json.dumps({
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in wanted},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {DEFAULT_SECONDS:g}; {QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="traced replay and per-layer metrics instead of the untraced window")
    parser.add_argument("--repeat", type=int, default=1, help="whole runs per workload")
    parser.add_argument("--quick", action="store_true", help="short windows, one set-up (smoke test)")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT, ".tssbench_out"),
                        help="directory for summary.json and spans.jsonl")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    traced = bool(args.trace)
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]

    steady_allocator()
    cpu = pin_one_cpu()
    # SIGTERM must unwind through the finally blocks that stop the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(args.out, exist_ok=True)
    spans_path = os.path.join(args.out, "spans.jsonl")
    if traced:
        open(spans_path, "w").close()
    scratch = Scratch()
    head = header(scratch, cpu)
    for key, value in head.items():
        print(f"# {key}: {value}")
    runs = []
    last = None
    try:
        for workload in workloads:
            for _ in range(args.repeat):
                if traced:
                    metrics, window = run_traced(workload, args.seed, args.quick, scratch, spans_path)
                else:
                    metrics, window = run_untraced(workload, args.seed, seconds, args.quick, scratch)
                show(workload, metrics, window, traced)
                runs.append({
                    "workload": workload, "seed": args.seed, "traced": traced,
                    "attempted": window.attempted, "failed": window.failed, "metrics": metrics,
                })
                last = (metrics, window)
    finally:
        scratch.close()

    summary = {
        "header": head,
        "seconds": seconds,
        "runs": runs,
        "quartiles": {
            workload: {
                name: quartiles([r["metrics"][name] for r in runs if r["workload"] == workload])
                for name in runs[0]["metrics"]
            }
            for workload in workloads
        },
        "claim": None,
    }
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    if len(runs) == 1:
        print(contract_line(*last, traced))
    else:
        print(json.dumps(summary))
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    raise SystemExit(main())
