"""Output checks and the simulated-statistics digest.

Every check counts towards ``attempted``; a check that does not hold is
recorded with its detail and makes the run fail (``correct: false`` and
a non-zero exit).  The check functions take plain outputs (records, a
rendered report, digests) so the benchmark's tests can feed them
corrupted copies.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.mem.counters import COUNTER_FIELDS
from repro.sim import Simulator


class Checks:
    """Tally of attempted and failed output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def core_counters(sim: Simulator) -> List[List[int]]:
    """Per-core ``COUNTER_FIELDS`` values, in core order."""
    return [[getattr(core.counters, field) for field in COUNTER_FIELDS]
            for core in sim.machine.cores]


def run_summary(sim: Simulator, result, before: Optional[dict] = None) \
        -> dict:
    """Deterministic statistics of one ``Simulator.run`` call.

    ``before`` is the summary-shaped state at the start of the call
    (see :func:`sim_state`); counts are reported as deltas over the call
    so a warm-up call and a measured call of one simulator add up.
    """
    counters = core_counters(sim)
    ops, steps, migrations = result.ops, result.steps, result.migrations
    if before is not None:
        ops -= before["ops"]
        steps -= before["steps"]
        migrations -= before["migrations"]
        counters = [[now - then for now, then in zip(row, old)]
                    for row, old in zip(counters, before["counters"])]
    return {"scheduler": result.scheduler,
            "horizon": result.horizon_cycles,
            "ops": ops, "steps": steps, "migrations": migrations,
            "counters": counters,
            "sched_stats": sim.scheduler.stats()}


def sim_state(sim: Simulator) -> dict:
    return {"ops": sim.total_ops, "steps": sim.total_steps,
            "migrations": sim.total_migrations,
            "counters": core_counters(sim)}


@contextmanager
def captured_runs(sink: List[dict]) -> Iterator[List[dict]]:
    """Append a :func:`run_summary` for every ``Simulator.run`` call.

    Reaches simulators the benchmark does not build itself (the sweep
    runner's cells) by wrapping the public entry point for the duration
    of the block.
    """
    original = Simulator.run

    def run(self, *args, **kwargs):
        before = sim_state(self)
        result = original(self, *args, **kwargs)
        sink.append(run_summary(self, result, before))
        return result

    Simulator.run = run
    try:
        yield sink
    finally:
        Simulator.run = original


def digest(summaries: Iterable[dict], extra: object = None) -> str:
    """Short hash of the simulated statistics (and any ``extra`` data)."""
    canonical = json.dumps({"runs": list(summaries), "extra": extra},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def totals(summaries: Sequence[dict]) -> Dict[str, int]:
    """Ops, steps, migrations and every counter summed over ``summaries``."""
    out = {"ops": 0, "steps": 0, "migrations": 0}
    out.update({field: 0 for field in COUNTER_FIELDS})
    for summary in summaries:
        for key in ("ops", "steps", "migrations"):
            out[key] += summary[key]
        for row in summary["counters"]:
            for field, value in zip(COUNTER_FIELDS, row):
                out[field] += value
    return out


def check_digests(checks: Checks, digests: Sequence[str]) -> None:
    """Every repeat of one seed must simulate exactly the same thing."""
    for index, value in enumerate(digests[1:], start=2):
        checks.expect(f"digest of repeat {index}", value == digests[0],
                      f"{value} != {digests[0]}")


def check_sweep_records(checks: Checks, records: Sequence[Optional[dict]],
                        n_cases: int) -> None:
    """Every cell of the grid is persisted, ``ok`` and did work."""
    checks.expect("sweep records persisted", len(records) == n_cases,
                  f"{len(records)} of {n_cases}")
    for index, record in enumerate(records):
        if not checks.expect(f"sweep cell {index} persisted",
                             record is not None, "missing"):
            continue
        case = record.get("case", {})
        where = (f"sweep cell {index} ({case.get('scheduler')}/"
                 f"{case.get('workload_label')})")
        if checks.expect(f"{where} ok", record.get("status") == "ok",
                         str(record.get("error"))):
            checks.expect(f"{where} ops > 0",
                          record["point"]["ops"] > 0, "no operations")


def check_rank_report(checks: Checks, text: str,
                      schedulers: Sequence[str],
                      scenarios: Sequence[str]) -> None:
    """The rank matrix has a row per scheduler and a filled cell per
    scenario column."""
    lines = text.splitlines()
    header = next((line for line in lines
                   if line.split()[:2] == ["#", "scheduler"]), None)
    if not checks.expect("rank report header", header is not None,
                         "no '# scheduler' header row"):
        return
    columns = header.split()[2:-1]
    checks.expect("rank report covers every scenario",
                  sorted(columns) == sorted(scenarios),
                  f"columns {columns}")
    rows = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 2 and fields[0].isdigit():
            rows[fields[1]] = fields[2:]
    for name in schedulers:
        cells = rows.get(name)
        checks.expect(f"rank row {name}",
                      cells is not None and len(cells) == len(columns) + 1
                      and "-" not in cells,
                      f"cells {cells}")
    checks.expect("rank report lists no failed cells",
                  "failed cell(s)" not in text, "failed cells listed")
