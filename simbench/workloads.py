"""The benchmark's three workloads.

Each workload builds its simulated input from the seed, runs it and
checks the output; :meth:`Workload.repeat` does this once from scratch
(the modelled caches start empty every time) and returns a
:class:`Repeat`.  The simulator is driven only through its public
calls: ``Machine``, ``Simulator.run``, ``DirectoryLookupWorkload``,
``run_sweep``/``ResultStore``, ``write_jsonl`` and ``StreamProfiler``.

Why these three (see README.md for the layer each one stresses):

* ``dirlookup_thread`` makes no migrations and never calls CoreTime, so
  the memory system's scan path dominates host time;
* ``coretime_explain`` is the record-then-analyze loop of a migration
  heavy CoreTime run, whose trace write is slower than its simulation;
* ``scenario_sweep`` runs sixty short object-ops cells that load, store
  and spin rather than scan, under every registered scheduler, and
  persists each one.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro import (CoreTimeConfig, CoreTimeScheduler, DirectoryLookupWorkload,
                   DirWorkloadSpec, Machine, MachineSpec, Observability,
                   Simulator, ThreadScheduler)
from repro.fs.check import fsck
from repro.obs.export import write_jsonl
from repro.obs.stream import StreamProfiler
from repro.sweep import presets
from repro.sweep.aggregate import render_rank_report
from repro.sweep.runner import RunnerOptions, run_sweep
from repro.sweep.spec import code_fingerprint
from repro.sweep.store import ResultStore

from simbench.checks import (Checks, captured_runs, check_rank_report,
                             check_sweep_records, digest, run_summary)
from simbench.trace import Spans

#: Simulated horizon, in cycles, of each workload at each size.  "tiny"
#: exists for the benchmark's own tests.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {"dirlookup_cycles": 2_000_000, "explain_cycles": 1_500_000},
    "tiny": {"dirlookup_cycles": 40_000, "explain_cycles": 150_000},
}

#: The paper's 4x4 16-core machine with caches scaled down 8x, and the
#: directory tree scaled to match (160 directories of 125 entries).
SCALE = 8
N_DIRS = 160
#: CoreTime monitor window: short enough that packing and the
#: rebalancer act several times inside the run.
EXPLAIN_MONITOR_INTERVAL = 50_000
#: Scheduler the sweep's rank report measures speedups against.
RANK_PIVOT = "coretime"


@dataclass
class Repeat:
    """Timings and outputs of one repeat of a workload."""

    wall_s: float
    setup_s: float
    #: Host seconds of the simulation proper and the simulated cycles
    #: it covered (for the sweep: the runner's run time, all cells).
    sim_s: float
    sim_cycles: int
    #: Simulated thousand operations per simulated second.
    sim_kops: float
    digest: str
    spans: Spans
    summaries: List[dict]
    #: Final scheduler ``stats()`` of every simulator.
    sched_stats: List[dict]
    #: Workload-specific counts (events, bytes, cells, ...).
    counts: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: One line on the simulated load, printed with every result.
    load = ""

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.tiny = size == "tiny"
        self.workdir = workdir

    def repeat(self, index: int, checks: Checks, spans: Spans) -> Repeat:
        raise NotImplementedError


class _DirLookup(Workload):
    load = ("closed loop: 64 simulated threads (4 per core x 16 cores), "
            "each resolves its next file name only after the previous "
            "lookup completes")

    def _build(self, scheduler, obs=None):
        machine = Machine(MachineSpec.scaled(SCALE))
        sim = Simulator(machine, scheduler, obs=obs)
        workload = DirectoryLookupWorkload(
            machine, DirWorkloadSpec.scaled(SCALE, n_dirs=N_DIRS,
                                            seed=self.seed))
        workload.spawn_all(sim)
        return sim, workload

    def _check_run(self, checks: Checks, index: int, result,
                   workload) -> None:
        checks.expect(f"repeat {index}: ops > 0", result.ops > 0,
                      "no lookups completed")
        report = fsck(workload.efsl.fs)
        checks.expect(f"repeat {index}: fsck clean", report.clean,
                      "; ".join(report.errors[:3]))


class DirlookupThread(_DirLookup):
    name = "dirlookup_thread"
    why = ("thread scheduler, no migrations and no CoreTime: the memory "
           "system's scan path dominates host time")

    def repeat(self, index: int, checks: Checks, spans: Spans) -> Repeat:
        start = time.perf_counter()
        with spans.span("setup"):
            sim, workload = self._build(ThreadScheduler())
        with spans.span("simulate"):
            result = sim.run(until=self.size["dirlookup_cycles"])
        with spans.span("check"):
            self._check_run(checks, index, result, workload)
            summary = run_summary(sim, result)
        wall = time.perf_counter() - start
        return Repeat(
            wall_s=wall, setup_s=spans.seconds["setup"],
            sim_s=spans.seconds["simulate"],
            sim_cycles=result.horizon_cycles, sim_kops=result.kops_per_sec,
            digest=digest([summary]), spans=spans, summaries=[summary],
            sched_stats=[summary["sched_stats"]],
            counts={"image_bytes": len(workload.efsl.fs.image.data)})


class CoretimeExplain(_DirLookup):
    name = "coretime_explain"
    why = ("CoreTime run recorded in full, written as .jsonl.gz, streamed "
           "through the analyzer and rendered: migration heavy, obs bound")

    def repeat(self, index: int, checks: Checks, spans: Spans) -> Repeat:
        path = os.path.join(self.workdir, f"explain-{index}.jsonl.gz")
        start = time.perf_counter()
        with spans.span("setup"):
            # The event log is sized so nothing is ever dropped.
            obs = Observability(max_events=1 << 62)
            scheduler = CoreTimeScheduler(CoreTimeConfig(
                monitor_interval=EXPLAIN_MONITOR_INTERVAL))
            sim, workload = self._build(scheduler, obs)
        with spans.span("simulate"):
            result = sim.run(until=self.size["explain_cycles"])
        with spans.span("write"):
            events = obs.events()
            write_jsonl(path, events)
        with spans.span("analyze"):
            profiler = StreamProfiler().feed_path(path)
        with spans.span("render"):
            # What ``repro-analyze report --stream`` prints.
            text = "\n\n".join(section.render()
                               for section in profiler.profile.sections)
        with spans.span("check"):
            self._check_run(checks, index, result, workload)
            checks.expect(f"repeat {index}: no events dropped",
                          obs.log.dropped == 0,
                          f"{obs.log.dropped} dropped")
            checks.expect(f"repeat {index}: every event analyzed",
                          profiler.events_seen == len(events),
                          f"{profiler.events_seen} of {len(events)}")
            sections = profiler.profile.sections
            ops = sum(cost.ops for section in sections
                      for cost in section.objects.result())
            migrations = sum(sum(section.matrix.result().values())
                             for section in sections)
            checks.expect(f"repeat {index}: analyzer ops == run ops",
                          ops == result.ops, f"{ops} != {result.ops}")
            checks.expect(f"repeat {index}: analyzer migrations == run "
                          "migrations", migrations == result.migrations,
                          f"{migrations} != {result.migrations}")
            checks.expect(f"repeat {index}: report rendered",
                          text.startswith("=== run: coretime"),
                          text[:40])
            summary = run_summary(sim, result)
        wall = time.perf_counter() - start
        size = os.path.getsize(path)
        os.remove(path)
        return Repeat(
            wall_s=wall, setup_s=spans.seconds["setup"],
            sim_s=spans.seconds["simulate"],
            sim_cycles=result.horizon_cycles, sim_kops=result.kops_per_sec,
            digest=digest([summary], extra=text), spans=spans,
            summaries=[summary], sched_stats=[summary["sched_stats"]],
            counts={"events": len(events), "bytes": size,
                    "image_bytes": len(workload.efsl.fs.image.data)})


class ScenarioSweep(Workload):
    name = "scenario_sweep"
    why = ("six object-ops scenarios x ten schedulers run serially into a "
           "fresh result store, then ranked: load/store/spin, not scans")
    load = ("closed loop: every cell's simulated threads issue their next "
            "object operation only after the previous one completes")

    def _spec(self):
        spec = presets.scenarios(n_seeds=1, root_seed=self.seed)
        if self.tiny:
            spec = replace(spec, schedulers=spec.schedulers[:2],
                           workloads=spec.workloads[:2],
                           warmup_cycles=10_000, measure_cycles=20_000)
        return spec

    def repeat(self, index: int, checks: Checks, spans: Spans) -> Repeat:
        start = time.perf_counter()
        with spans.span("setup"):
            spec = self._spec()
            cases = spec.expand()
            fingerprint = code_fingerprint()
            store = ResultStore(
                os.path.join(self.workdir, f"sweep-{index}")).create(spec)
        summaries: List[dict] = []
        try:
            with spans.span("sweep"), captured_runs(summaries):
                outcome = run_sweep(spec, store=store,
                                    options=RunnerOptions(workers=0),
                                    fingerprint=fingerprint)
            with spans.span("report"):
                records = [store.get(case.key(), fingerprint)
                           for case in cases]
                text = render_rank_report(spec.name, records, RANK_PIVOT)
            with spans.span("check"):
                check_sweep_records(checks, records, len(cases))
                check_rank_report(
                    checks, text, spec.schedulers,
                    [axis.label for axis in spec.workloads])
                points = [record["point"] if record is not None else None
                          for record in records]
            retries = sum(1 for entry in store.journal_entries()
                          if entry.get("attempt", 1) > 1)
        finally:
            store.close()
            shutil.rmtree(store.root, ignore_errors=True)
        wall = time.perf_counter() - start
        kops = [point["kops_per_sec"] for point in points
                if point is not None and point["kops_per_sec"] > 0]
        geomean = (math.exp(sum(math.log(k) for k in kops) / len(kops))
                   if kops else 0.0)
        return Repeat(
            wall_s=wall, setup_s=spans.seconds["setup"],
            sim_s=outcome.elapsed_s,
            sim_cycles=len(cases) * (spec.warmup_cycles
                                     + spec.measure_cycles),
            sim_kops=geomean, digest=digest(summaries, extra=points),
            spans=spans, summaries=summaries,
            sched_stats=[point["scheduler_stats"] for point in points
                         if point is not None],
            counts={"cells": outcome.computed, "failed": outcome.failed,
                    "retries": retries})


WORKLOADS = {cls.name: cls
             for cls in (DirlookupThread, CoretimeExplain, ScenarioSweep)}
