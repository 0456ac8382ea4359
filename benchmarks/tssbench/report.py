"""Turn windows, spans, /proc deltas and probe results into named metrics."""

from __future__ import annotations

import statistics

from bench import Window, percentile
from daemons import counter_delta
from spec import METRICS, VERBS
from tracing import SpanBuffer, self_time_ns

__all__ = ["end_to_end", "per_layer", "latency_table", "quartiles"]

_CLASSES = ("meta", "read", "write", "bg", "connect")


def end_to_end(window: Window) -> dict:
    """Every end-to-end metric one untraced window supports.  A class
    the workload never issues reads 0 (e.g. ``meta`` on ``stream_cfs``)."""
    out = {"ops_per_s": window.ops_per_s()}
    for cls in ("read", "write", "meta"):
        out[f"{cls}_p50_us"] = window.p50_us(cls)
        out[f"{cls}_p95_us"] = window.percentile_us(cls, 95)
    out["connect_p50_us"] = window.p50_us("connect")
    out["read_MBps"] = window.mb_per_s("read")
    out["write_MBps"] = window.mb_per_s("write")
    out["server_cpu_ms_per_op"] = window.server_cpu_ms_per_op()
    out["client_cpu_ms_per_op"] = window.client_cpu_ms_per_op()
    out["fail_ratio"] = window.failed / max(1, window.attempted)
    return out


def latency_table(window: Window) -> list[str]:
    """Human-readable percentiles per class; p99/p999 are shown, not gated."""
    lines = []
    for cls in _CLASSES:
        n = window.samples(cls)
        if n:
            values = window.sorted_ns(cls)
            cells = " ".join(
                f"p{label}={percentile(values, p) / 1e3:.1f}"
                for label, p in (("50", 50), ("95", 95), ("99", 99), ("999", 99.9))
            )
            lines.append(f"  {cls:<8} n={n:<8} {cells} us")
    return lines


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_delta(before: dict, after: dict) -> dict:
    """Growth of the public ``cache`` snapshot section's counters."""
    total: dict = {}
    for section in ("block", "readahead"):
        for key, value in after.get("cache", {}).get(section, {}).items():
            total[f"{section}.{key}"] = value - before.get("cache", {}).get(section, {}).get(key, 0)
    return total


def _errors(snap: dict) -> int:
    return sum(v["errors"] for v in snap["verbs"].values())


def per_layer(
    *,
    layer: str,
    spans: SpanBuffer,
    replay: Window,
    reference: Window,
    snap_before: dict,
    snap_after: dict,
    dials: int,
    threads_peak: int,
    kinds: dict[str, str],
    disk_bytes: int,
    live_user_bytes: int,
    audit_replicas: int,
    probes: dict,
) -> dict:
    """The per-layer list, from the traced replay and its surroundings."""
    ops = spans.ops()
    kids = spans.children()
    rpcs = [r for r in spans.rows if r[2] is not None]
    db_rpcs = [r for r in rpcs if r[4].startswith("db.")]
    chirp_rpcs = len(rpcs) - len(db_rpcs)
    n_ops = max(1, len(ops))
    out = dict(probes)

    # transport
    out["transport.rpcs_per_op"] = len(rpcs) / n_ops
    out["transport.dials"] = dials
    out["transport.rpc_errors"] = _errors(snap_after) - _errors(snap_before)
    out["transport.wire_bytes_per_user_byte"] = _ratio(
        sum(r[7] for r in rpcs), sum(r[7] for r in ops)
    )
    by_verb: dict[str, list[int]] = {}
    for r in rpcs:
        by_verb.setdefault("dbcmd" if r[4].startswith("db.") else r[4], []).append(r[6] - r[5])
    for verb in VERBS:
        out[f"transport.{verb}_rpc_p50_us"] = percentile(sorted(by_verb.get(verb, ())), 50) / 1e3

    # core / adapter: op span minus the union of its RPC child spans
    self_us = sum(self_time_ns(r[5], r[6], kids.get(r[1], ())) for r in ops) / 1e3 / n_ops
    out["core.self_us_per_op"] = self_us if layer == "core" else 0.0
    out["adapter.self_us_per_op"] = self_us if layer == "adapter" else 0.0

    def rpcs_of(workload: str, kind: str) -> float:
        if spans.workload != workload:
            return 0.0
        counts = [len(kids.get(r[1], ())) for r in ops if r[4] == kind]
        return statistics.fmean(counts) if counts else 0.0

    out["core.dsfs.create_rpcs"] = rpcs_of("smallfile_dsfs", "create")
    out["core.dsfs.stat_rpcs"] = rpcs_of("smallfile_dsfs", "stat")
    out["core.dsdb.ingest_rpcs"] = rpcs_of("dsdb_gems", "ingest")
    out["core.dsdb.fetch_rpcs"] = rpcs_of("dsdb_gems", "fetch")

    # cache: the public snapshot section, grown over the replay
    cache = _cache_delta(snap_before, snap_after)
    lookups = cache.get("block.hits", 0) + cache.get("block.misses", 0)
    writes = sum(1 for r in ops if kinds.get(r[4]) == "write")
    windows = cache.get("readahead.windows", 0) + cache.get("readahead.dropped", 0)
    out["cache.block_hit_ratio"] = _ratio(cache.get("block.hits", 0), lookups)
    out["cache.block_evictions_per_kop"] = cache.get("block.evictions", 0) * 1000 / n_ops
    out["cache.invalidated_blocks_per_write"] = _ratio(cache.get("block.invalidated_blocks", 0), writes)
    out["cache.readahead_kept_ratio"] = (
        1 - cache.get("readahead.dropped", 0) / windows if windows else 0.0
    )
    out["cache.readahead_foreground_waits_per_kop"] = (
        cache.get("readahead.foreground_waits", 0) * 1000 / n_ops
    )

    # chirp.server / db.server: /proc deltas over the replay
    before, after = replay.proc_before, replay.proc_after
    chirp = {n for n in after if n != "db"}
    out["server.cpu_us_per_rpc"] = _ratio(counter_delta(before, after, "cpu_s", chirp) * 1e6, chirp_rpcs)
    out["server.read_syscalls_per_rpc"] = _ratio(counter_delta(before, after, "syscr", chirp), chirp_rpcs)
    out["server.write_syscalls_per_rpc"] = _ratio(counter_delta(before, after, "syscw", chirp), chirp_rpcs)
    out["server.vol_ctx_switches_per_rpc"] = _ratio(counter_delta(before, after, "vol_ctx", chirp), chirp_rpcs)
    out["server.threads_peak"] = threads_peak
    out["server.rss_mb_peak"] = max(after[n].rss_peak_kb for n in chirp) / 1024
    out["db.server.cpu_us_per_cmd"] = _ratio(counter_delta(before, after, "cpu_s", {"db"}) * 1e6, len(db_rpcs))

    # store: device-ward bytes and space, beside the read/write costs above
    out["store.disk_write_bytes_per_user_byte"] = _ratio(
        counter_delta(before, after, "write_bytes"), replay.user_bytes.get("write", 0)
    )
    out["store.bytes_on_disk_per_user_byte"] = _ratio(disk_bytes, live_user_bytes)

    # gems: the audit ops of dsdb_gems
    audits = [r for r in ops if r[4] == "audit"]
    audited = len(audits) * audit_replicas
    out["gems.audit_replicas_per_s"] = _ratio(audited, sum(r[6] - r[5] for r in audits) / 1e9)
    out["gems.audit_rpcs_per_replica"] = _ratio(
        sum(1 for r in audits for c in kids.get(r[1], ()) if c[4] == "checksum"), audited
    )

    out["trace_overhead_ratio"] = _ratio(replay.ops_per_s(), reference.ops_per_s())

    # End-to-end numbers that carry no bound ride along, measured on the
    # untraced reference window of the same process.
    e2e = end_to_end(reference)
    for metric in METRICS:
        if metric.scope == "e2e":
            out[metric.name] = e2e[metric.name]
    return out


def quartiles(values: list[float]) -> dict:
    """Per-run values with the quartiles ``compare.py`` reads."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"values": values, "q1": q1, "median": median, "q3": q3}
