"""Smoke-size self-test of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs briefly, untraced and traced. Every declared metric
must be present, finite, named in ``[A-Za-z0-9_.-]+`` and carry its
declared unit. A tampered served histogram must fail the correctness
gate, and a directory without the program must exit non-zero.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import gate  # noqa: E402

common.import_repro()

SMOKE_SECONDS = {"kernel-mix": "3", "ingest-served": "8", "cluster-readmostly": "6"}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", SMOKE_SECONDS[workload], "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["kernel-mix", "ingest-served", "cluster-readmostly"])
def test_every_metric_present_finite_and_named(workload, trace):
    declared = _declared()
    assert workload in [w["name"] for w in declared["workloads"]]
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for entry in wanted:
        reported = result["metrics"][entry["name"]]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", entry["name"])
        assert reported["unit"] == entry["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, entry["name"]


def test_declared_per_layer_set_matches_the_code():
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert declared == common.per_layer_units()


def _ledger_and_served():
    from repro.api import summarize

    rng = np.random.default_rng(3)
    batches = [rng.integers(0, 4096, size=250) for _ in range(6)]
    batches[0][0] = 4095  # summarize() infers the universe from the values
    ledger = gate.StreamLedger("s00", "min-increment")
    for batch in batches:
        ledger.ack(batch)
    served = summarize(np.concatenate(batches).tolist(), 16, method="min-increment")
    return ledger, served


def test_gate_accepts_the_oracle_and_rejects_a_tampered_histogram():
    from repro.core.histogram import Histogram

    ledger, served = _ledger_and_served()
    items = {"s00": ledger.items}
    ratio = gate.verify_served(
        {"s00": ledger}, {"s00": served}, items, buckets=16, epsilon=0.1
    )
    assert 0 < ratio <= 1.1 + 1e-9
    data = served.to_dict()
    data["segments"][0][2] += 1.0
    tampered = Histogram.from_dict(data)
    with pytest.raises(common.GateError):
        gate.verify_served(
            {"s00": ledger}, {"s00": tampered}, items, buckets=16, epsilon=0.1
        )


def test_gate_rejects_lost_acknowledged_items():
    ledger, served = _ledger_and_served()
    with pytest.raises(common.GateError):
        gate.verify_served(
            {"s00": ledger}, {"s00": served}, {"s00": ledger.items - 1},
            buckets=16, epsilon=0.1,
        )


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("kernel-mix", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
