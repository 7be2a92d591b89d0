"""Tests of the benchmark itself (not collected by the main suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest simbench -q
"""

from __future__ import annotations

import io
import os
import re
import shutil
import subprocess
import sys

import pytest

import repro.bench.harness as harness
from simbench import bench
from simbench.checks import (Checks, check_digests, check_rank_report,
                             check_sweep_records)
from simbench.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def printed(kind: str, key: str, unit: str, text: str) -> bool:
    pattern = rf"^  {kind} {re.escape(key)} = \S+ {re.escape(unit)}$"
    return re.search(pattern, text, re.MULTILINE) is not None


def tiny_run(name: str, trace: bool, tmp_path) -> tuple:
    out = io.StringIO()
    result = bench.run(name, seed=5, seconds=0, trace=trace,
                       workdir=str(tmp_path), size="tiny", out=out)
    return result, out.getvalue()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path):
    result, text = tiny_run(name, trace, tmp_path)
    assert result["correct"], text
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {key: metric["unit"] for key, metric
            in result["metrics"].items()} == expected
    for key, unit in bench.END_TO_END.items():
        assert printed("e2e", key, unit, text), key
    assert "e2e failed_frac = 0 frac" in text
    assert "caches start empty" in text and "unvalidated" in text
    if not trace:
        for key, metric in result["metrics"].items():
            assert metric["value"] > 0, key
        return
    for key, unit in bench.PER_LAYER.items():
        if not key.startswith("sweep.") or name == "scenario_sweep":
            assert printed("layer", key, unit, text), key
    values = {key: metric["value"]
              for key, metric in result["metrics"].items()}
    assert values["sim.steps"] > 0 and values["mem.self_s"] > 0
    assert values["trace_overhead"] > 0
    if name == "dirlookup_thread":
        assert all(values[key] == 0 for key in values
                   if key.startswith("core."))
    if name == "coretime_explain":
        assert values["core.ct_ops"] > 0 and values["core.migrations"] > 0
        assert values["obs.events"] > 0 and values["obs.write_s"] > 0
    if name == "scenario_sweep":
        assert values["sweep.cells"] == 4
        assert values["sched.preemptions"] >= 0
    else:
        assert values["sweep.cells"] == 0


def test_failed_sweep_cell_fails_the_run(tmp_path, monkeypatch):
    original = harness.run_point

    def broken(machine, factory, workload, **kwargs):
        point = original(machine, factory, workload, **kwargs)
        if point.scheduler == "thread":
            raise RuntimeError("injected cell failure")
        return point

    monkeypatch.setattr(harness, "run_point", broken)
    result, text = tiny_run("scenario_sweep", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "FAILED" in text and "injected cell failure" in text


def test_digest_mismatch_between_repeats_is_a_failure():
    checks = Checks()
    check_digests(checks, ["aa", "aa", "ab"])
    assert checks.attempted == 2 and checks.failed == 1


def sweep_record(status: str = "ok", ops: int = 10) -> dict:
    return {"status": status, "error": None if status == "ok" else "boom",
            "case": {"scheduler": "thread", "workload_label": "zipf_kv"},
            "point": {"ops": ops} if status == "ok" else None}


@pytest.mark.parametrize("records", [
    [sweep_record(), sweep_record("failed")],
    [sweep_record(), None],
    [sweep_record(), sweep_record(ops=0)],
    [sweep_record()],
])
def test_corrupted_sweep_records_are_failures(records):
    checks = Checks()
    check_sweep_records(checks, records, n_cases=2)
    assert checks.failed > 0


RANK = """tournament rank: scenarios (pivot: coretime)

 #  scheduler  pipeline  zipf_kv  geomean
--  ---------  --------  -------  -------
 1     thread    1.02x*   1.14x*    1.08x
 2   coretime     1.00x    1.00x    1.00x
speedup vs coretime (seed-paired mean; * = same winner on every seed)"""


def test_rank_report_checks():
    checks = Checks()
    check_rank_report(checks, RANK, ["thread", "coretime"],
                      ["zipf_kv", "pipeline"])
    assert checks.failed == 0
    for corrupt, schedulers, scenarios in [
            (RANK.replace("1.14x*", "-"), ["thread", "coretime"],
             ["zipf_kv", "pipeline"]),
            (RANK, ["thread", "coretime", "rr"], ["zipf_kv", "pipeline"]),
            (RANK, ["thread", "coretime"], ["zipf_kv", "pipeline", "x"]),
            (RANK + "\n\n1 failed cell(s):\n  tiny/rr/x/s0: boom",
             ["thread", "coretime"], ["zipf_kv", "pipeline"])]:
        checks = Checks()
        check_rank_report(checks, corrupt, schedulers, scenarios)
        assert checks.failed > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "scenario_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no simulator sources" in proc.stderr
