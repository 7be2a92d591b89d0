"""Repeat loop, metrics and output of one benchmark run.

A run repeats one workload from scratch for up to ``seconds`` (and at
least :data:`MIN_REPEATS` times) and reports medians over the repeats.
With ``trace`` it then runs one more repeat under the profiler and
reports the per-layer metrics instead.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from statistics import median
from typing import Dict, List, TextIO

from repro import Machine
from repro.bench.harness import run_point
from repro.core.coretime import CoreTimeScheduler
from repro.fs.efsl import EfslFat
from repro.fs.image import FatFilesystem
from repro.mem.system import MemorySystem
from repro.obs.bus import EventBus
from repro.sim import Simulator
from repro.sweep.store import ResultStore

from simbench.checks import Checks, check_digests, totals
from simbench.trace import (Spans, calls, counted_scan_lines,
                            cumulative_seconds, layer_calls, module_of,
                            summed_self_seconds)
from simbench.workloads import WORKLOADS, Repeat

#: Repeats per run at least: the digest check compares repeats, and the
#: set-up time is a median over them.
MIN_REPEATS = 3

#: End-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "peak_rss_mb": "MB",
    "sim_kops": "kops/s",
}

#: Per-layer metrics every traced run reports, with their units.
PER_LAYER = {
    "sim.steps": "count", "sim.self_s": "s", "sim.ns_per_step": "ns",
    "mem.load.calls": "count", "mem.store.calls": "count",
    "mem.scan.calls": "count", "mem.scan.lines": "count",
    "mem.self_s": "s", "mem.share": "frac", "mem.l1_hit_frac": "frac",
    "mem.dram_loads": "count", "mem.invalidations": "count",
    "core.ct_ops": "count", "core.self_s": "s",
    "core.migrations": "count", "core.migrations_per_op": "1/op",
    "core.assignments": "count", "core.rebalance_moves": "count",
    "sched.hook.calls": "count", "sched.self_s": "s",
    "sched.preemptions": "count",
    "threads.self_s": "s", "workloads.self_s": "s",
    "obs.events": "count", "obs.publish.self_s": "s",
    "obs.write_s": "s", "obs.bytes_per_event": "B/event",
    "obs.decode_s": "s", "obs.reduce_s": "s", "obs.render_s": "s",
    "sweep.cells": "count", "sweep.build_s": "s",
    "sweep.simulate_s": "s", "sweep.persist_s": "s",
    "sweep.failed": "count", "sweep.retries": "count",
    "fs.build_s": "s", "fs.image_bytes": "B", "cpu.build_s": "s",
    "trace_overhead": "ratio",
}

#: Phases that run the simulation (the base of ``mem.share`` and
#: ``obs.publish.self_s``).
RUN_SPANS = ("simulate", "sweep")

NOTES = ("modelled caches start empty in every repeat (no warm-up is "
         "excluded); simulated figures come from a model unvalidated "
         "against hardware, so no error figure is given")


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(repeats: List[Repeat]) -> Dict[str, float]:
    return {
        "setup_s": median([r.setup_s for r in repeats]),
        "wall_s": median([r.wall_s for r in repeats]),
        "sim_mcycles_per_s": median([r.sim_cycles / r.sim_s / 1e6
                                      for r in repeats]),
        "peak_rss_mb": peak_rss_mb(),
        "sim_kops": median([r.sim_kops for r in repeats]),
    }


def workload_specific(repeats: List[Repeat]) -> Dict[str, tuple]:
    """End-to-end figures that exist on one workload only (printed, not
    gated: the result line carries only metrics every workload has)."""
    out = {}
    counts = repeats[0].counts
    if "cells" in counts:
        out["sweep_cells_per_s"] = (median(
            [r.counts["cells"] / r.sim_s for r in repeats]), "1/s")
    if "events" in counts:
        out["record_events_per_s"] = (median(
            [r.counts["events"] / r.spans.seconds["write"]
             for r in repeats]), "1/s")
        out["analyze_events_per_s"] = (median(
            [r.counts["events"] / (r.spans.seconds["analyze"]
                                   + r.spans.seconds["render"])
             for r in repeats]), "1/s")
    return out


def per_layer(traced: Repeat, untraced_wall_s: float,
              scan_lines: int) -> Dict[str, float]:
    spans = traced.spans
    every = spans.raw()
    running = spans.raw(RUN_SPANS)
    # Set-up has its own metrics (setup_s, fs.build_s, cpu.build_s).
    layers = summed_self_seconds(
        spans.raw(tuple(name for name in spans.stats if name != "setup")))
    run_layers = summed_self_seconds(running)
    analyze = summed_self_seconds(spans.raw(("analyze",)), module_of)
    sums = totals(traced.summaries)
    loads = sum(sums[f] for f in ("l1_hits", "l2_hits", "l3_hits",
                                  "remote_hits", "dram_loads"))
    counts = traced.counts
    events = calls(every, EventBus.publish)

    def stat(name: str) -> int:
        return sum(stats.get(name, 0) for stats in traced.sched_stats)

    is_sweep = "cells" in counts
    simulate_s = cumulative_seconds(running, Simulator.run)
    return {
        "sim.steps": sums["steps"],
        "sim.self_s": layers.get("sim", 0.0),
        "sim.ns_per_step": (layers.get("sim", 0.0) / sums["steps"] * 1e9
                            if sums["steps"] else 0.0),
        "mem.load.calls": calls(every, MemorySystem.load),
        "mem.store.calls": calls(every, MemorySystem.store),
        "mem.scan.calls": calls(every, MemorySystem.scan),
        "mem.scan.lines": scan_lines,
        "mem.self_s": layers.get("mem", 0.0),
        "mem.share": (run_layers.get("mem", 0.0)
                      / sum(run_layers.values()) if run_layers else 0.0),
        "mem.l1_hit_frac": sums["l1_hits"] / loads if loads else 0.0,
        "mem.dram_loads": sums["dram_loads"],
        "mem.invalidations": sums["invalidations"],
        "core.ct_ops": calls(every, CoreTimeScheduler.on_ct_start),
        "core.self_s": layers.get("core", 0.0),
        "core.migrations": sums["migrations"],
        "core.migrations_per_op": (sums["migrations"] / sums["ops"]
                                   if sums["ops"] else 0.0),
        "core.assignments": stat("assignments"),
        "core.rebalance_moves": stat("rebalance_moves"),
        "sched.hook.calls": layer_calls(every, "sched"),
        "sched.self_s": layers.get("sched", 0.0),
        "sched.preemptions": stat("preemptions"),
        "threads.self_s": layers.get("threads", 0.0),
        "workloads.self_s": layers.get("workloads", 0.0),
        "obs.events": events,
        "obs.publish.self_s": run_layers.get("obs", 0.0),
        "obs.write_s": spans.seconds.get("write", 0.0),
        "obs.bytes_per_event": (counts["bytes"] / counts["events"]
                                if counts.get("events") else 0.0),
        "obs.decode_s": analyze.get("obs/profile.py", 0.0),
        "obs.reduce_s": analyze.get("obs/stream.py", 0.0),
        "obs.render_s": spans.seconds.get("render", 0.0),
        "sweep.cells": counts.get("cells", 0),
        "sweep.build_s": (cumulative_seconds(running, run_point)
                          - simulate_s if is_sweep else 0.0),
        "sweep.simulate_s": simulate_s if is_sweep else 0.0,
        "sweep.persist_s": (cumulative_seconds(running, ResultStore.put)
                            + cumulative_seconds(running,
                                                 ResultStore.journal)
                            if is_sweep else 0.0),
        "sweep.failed": counts.get("failed", 0),
        "sweep.retries": counts.get("retries", 0),
        "fs.build_s": (cumulative_seconds(every,
                                          FatFilesystem.build_benchmark_image)
                       + cumulative_seconds(every, EfslFat.__init__)),
        "fs.image_bytes": counts.get("image_bytes", 0),
        "cpu.build_s": cumulative_seconds(every, Machine.__init__),
        "trace_overhead": traced.wall_s / untraced_wall_s,
    }


def _say(out: TextIO, text: str) -> None:
    print(text, file=out, flush=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: str, size: str = "full", out: TextIO = sys.stdout) -> dict:
    """Run one workload and return the result object (also printed)."""
    workload = WORKLOADS[workload_name](seed, size, workdir)
    checks = Checks()
    _say(out, f"simbench {workload.name} seed={seed} seconds={seconds} "
              f"trace={int(trace)} size={size}")
    _say(out, f"  why:  {workload.why}")
    _say(out, f"  load: {workload.load}")
    _say(out, f"  note: {NOTES}")
    repeats: List[Repeat] = []
    started = time.perf_counter()
    while True:
        # Stop before a repeat that would likely end past ``seconds``,
        # so a run's length does not depend on how long a repeat takes.
        elapsed = time.perf_counter() - started
        if len(repeats) >= MIN_REPEATS and elapsed + median(
                [r.wall_s for r in repeats]) > seconds:
            break
        # The last repeat's garbage must neither count towards this
        # one's peak memory nor be collected inside its timed phases.
        gc.collect()
        repeat = workload.repeat(len(repeats) + 1, checks, Spans())
        repeats.append(repeat)
        phases = "  ".join(f"{name} {value:.3f}s" for name, value
                           in repeat.spans.seconds.items())
        _say(out, f"  repeat {len(repeats)}: wall {repeat.wall_s:.3f}s  "
                  f"{phases}")
    check_digests(checks, [r.digest for r in repeats])
    _say(out, f"  digest {workload.name} seed={seed} {repeats[0].digest}")

    e2e = end_to_end(repeats)
    walls = [r.wall_s for r in repeats]
    _say(out, f"  {len(repeats)} repeats; wall_s min {min(walls):.4f} "
              f"median {e2e['wall_s']:.4f} max {max(walls):.4f}")
    shown = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
    shown.update(workload_specific(repeats))
    for name, (value, unit) in shown.items():
        _say(out, f"  e2e {name} = {value:.6g} {unit}")

    if trace:
        scan_lines = [0]
        gc.collect()
        with counted_scan_lines(scan_lines):
            traced = workload.repeat(len(repeats) + 1, checks,
                                     Spans(profile=True))
        checks.expect("traced repeat simulates the same",
                      traced.digest == repeats[0].digest,
                      f"{traced.digest} != {repeats[0].digest}")
        values = per_layer(traced, e2e["wall_s"], scan_lines[0])
        units = PER_LAYER
        for name, value in values.items():
            # The result line needs every metric; sweep.* reads 0
            # outside the sweep and is not worth a line there.
            if name.startswith("sweep.") and not values["sweep.cells"]:
                continue
            _say(out, f"  layer {name} = {value:.6g} {units[name]}")
    else:
        values, units = e2e, END_TO_END
    for failure in checks.failures:
        _say(out, f"  FAILED {failure}")
    _say(out, f"  e2e failed_frac = {checks.failed / checks.attempted:.6g} "
              "frac")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
