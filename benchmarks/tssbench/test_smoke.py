"""Shape check of tssbench itself (``--quick``: 2 s windows, one set-up).

Not in the tier-1 ``testpaths``; run it by name::

    python -m pytest benchmarks/tssbench/test_smoke.py -q

It measures nothing.  It checks that every workload emits exactly the
metrics ``spec.py`` names, that no op fails, that every RPC span hangs
off an op span of its own trace, and that the traced replay's counts
repeat for one seed.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import compare
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: counts that must repeat exactly for one seed
COUNTS = (
    "transport.rpcs_per_op",
    "core.dsfs.create_rpcs", "core.dsfs.stat_rpcs",
    "core.dsdb.ingest_rpcs", "core.dsdb.fetch_rpcs",
)
#: the block workloads prefetch on helper threads, so which reads find a
#: block already installed -- and with it the RPC count -- varies a little
ASYNC_READAHEAD = ("block_fit", "block_spill")


def run(out, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "7", "--out", str(out), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_restates_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["paths"] == ["benchmarks/tssbench"]
    assert doc["command"][-1] == "benchmarks/tssbench/run.py"
    assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.UNGATED
    ]
    assert any(m.name == "setup_s" and m.bound == max(g.bound for g in spec.GATED) for m in spec.GATED)
    for name in [m.name for m in spec.METRICS] + list(spec.WORKLOADS):
        assert NAME.match(name), name


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_window(workload, tmp_path):
    result, stdout = run(tmp_path, "--workload", workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m.name for m in spec.GATED]
    for metric in spec.GATED:
        got = result["metrics"][metric.name]
        assert got["unit"] == metric.unit and got["value"] > 0, metric.name
    # every end-to-end metric is printed by name with its unit
    for metric in spec.E2E:
        assert f"{workload}.{metric.name} = " in stdout, metric.name
    assert f"{workload}.fail_ratio = 0 ratio" in stdout
    with open(tmp_path / "summary.json", encoding="utf-8") as f:
        text = f.read()
    assert text.rstrip().endswith('"claim": null\n}')


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_replay(workload, tmp_path):
    first, _ = run(tmp_path / "a", "--workload", workload, "--trace")
    second, _ = run(tmp_path / "b", "--workload", workload, "--trace", "1")
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m.name for m in spec.UNGATED]
        for metric in spec.UNGATED:
            assert result["metrics"][metric.name]["unit"] == metric.unit

    ops, rpcs = {}, []
    with open(tmp_path / "a" / "spans.jsonl", encoding="utf-8") as f:
        for line in f:
            row = json.loads(line)
            assert set(row) == {
                "workload", "trace", "span", "parent", "layer", "name", "start_ns", "end_ns", "bytes"
            }
            assert row["workload"] == workload and row["end_ns"] >= row["start_ns"]
            if row["parent"] is None:
                ops[row["span"]] = row["trace"]
            else:
                rpcs.append(row)
    assert ops and rpcs
    for row in rpcs:
        assert ops.get(row["parent"]) == row["trace"], row

    for name in COUNTS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if workload in ASYNC_READAHEAD and name == "transport.rpcs_per_op":
            assert a == pytest.approx(b, rel=0.10), name
        else:
            assert a == b, name


def test_repeat_feeds_compare(tmp_path, capsys):
    for side in ("a", "b"):
        summary, _ = run(tmp_path / side, "--workload", "block_fit", "--repeat", "2")
        assert summary["claim"] is None and len(summary["runs"]) == 2
        q = summary["quartiles"]["block_fit"]["ops_per_s"]
        assert len(q["values"]) == 2 and q["q1"] <= q["median"] <= q["q3"]
    compare.main([str(tmp_path / "a"), str(tmp_path / "b")])
    table = capsys.readouterr().out
    row = next(line for line in table.splitlines() if "ops_per_s" in line)
    assert " of A=" in row  # the ratio names its base
    assert row.split()[-1] in {"same", "worse", "better", "unresolved"}
