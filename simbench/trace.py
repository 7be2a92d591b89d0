"""Host-time tracing: phase spans and per-layer self time.

A workload repeat is a sequence of flat, named phases (``setup``,
``simulate``, ``write``, ...).  :class:`Spans` times each phase; in a
traced repeat it also runs each phase under its own deterministic
profiler (``cProfile``).  Self time is then grouped by ``repro``
subpackage — the layer — and the self time of builtins and standard
library functions is charged to the ``repro`` function that called them
(split by the time each caller spent in them), so ``json.dumps`` inside
the exporter counts as ``obs`` and dict probes inside the cache model
count as ``mem``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro.mem.system import MemorySystem

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

FuncKey = Tuple[str, int, str]
RawStats = Dict[FuncKey, tuple]


class Spans:
    """Wall time of named phases, optionally profiled phase by phase."""

    def __init__(self, profile: bool = False) -> None:
        self.profile = profile
        self.seconds: Dict[str, float] = {}
        self.stats: Dict[str, List[RawStats]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        profiler = cProfile.Profile() if self.profile else None
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield
        finally:
            if profiler is not None:
                profiler.disable()
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - start)
            if profiler is not None:
                self.stats.setdefault(name, []).append(
                    pstats.Stats(profiler).stats)

    def raw(self, names: Optional[Tuple[str, ...]] = None) \
            -> List[RawStats]:
        """Profiles of the named phases (all phases when None)."""
        return [stats for name, runs in self.stats.items()
                if names is None or name in names for stats in runs]


def layer_of(filename: str) -> Optional[str]:
    """``repro`` subpackage a source file belongs to, else None."""
    if not filename.startswith(REPRO_DIR):
        return None
    head, sep, _ = filename[len(REPRO_DIR):].partition(os.sep)
    return head if sep else "repro"


def module_of(filename: str) -> Optional[str]:
    """Path of a ``repro`` source file relative to the package."""
    if not filename.startswith(REPRO_DIR):
        return None
    return filename[len(REPRO_DIR):].replace(os.sep, "/")


def self_seconds(stats: RawStats,
                 bucket_of: Callable[[str], Optional[str]] = layer_of) \
        -> Dict[str, float]:
    """Self time per bucket; non-``repro`` code is charged to its callers."""
    memo: Dict[FuncKey, Dict[str, float]] = {}

    def shares(func: FuncKey, visiting: set) -> Dict[str, float]:
        bucket = bucket_of(func[0])
        if bucket is not None:
            return {bucket: 1.0}
        if func in memo:
            return memo[func]
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {caller: timing[2] for caller, timing in callers.items()
                   if caller not in visiting}
        if sum(weights.values()) <= 0:
            weights = {caller: timing[0]
                       for caller, timing in callers.items()
                       if caller not in visiting}
        total = sum(weights.values())
        if total <= 0:
            result = {"other": 1.0}
        else:
            result = {}
            visiting.add(func)
            for caller, weight in weights.items():
                for name, share in shares(caller, visiting).items():
                    result[name] = result.get(name, 0.0) \
                        + share * weight / total
            visiting.discard(func)
        memo[func] = result
        return result

    out: Dict[str, float] = {}
    for func, entry in stats.items():
        for name, share in shares(func, set()).items():
            out[name] = out.get(name, 0.0) + entry[2] * share
    return out


def summed_self_seconds(runs: List[RawStats],
                        bucket_of: Callable[[str], Optional[str]]
                        = layer_of) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for stats in runs:
        for name, seconds in self_seconds(stats, bucket_of).items():
            out[name] = out.get(name, 0.0) + seconds
    return out


def code_key(function) -> FuncKey:
    code = getattr(function, "__func__", function).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def calls(runs: List[RawStats], function) -> int:
    """Number of calls of ``function`` over the profiled phases."""
    key = code_key(function)
    return sum(stats[key][1] for stats in runs if key in stats)


def cumulative_seconds(runs: List[RawStats], function) -> float:
    """Time inside ``function`` and its callees over the phases."""
    key = code_key(function)
    return sum(stats[key][3] for stats in runs if key in stats)


def layer_calls(runs: List[RawStats], layer: str) -> int:
    """Calls of every function defined in ``layer``."""
    return sum(entry[1] for stats in runs for func, entry in stats.items()
               if layer_of(func[0]) == layer)


@contextmanager
def counted_scan_lines(counter: List[int]) -> Iterator[List[int]]:
    """Add the number of cache lines each ``MemorySystem.scan`` covers to
    ``counter[0]`` for the duration of the block.

    Install before the machine is built: the engine binds the memory
    system's ``scan`` when a simulator is constructed.
    """
    original = MemorySystem.scan

    def scan(self, core_id, addr, nbytes, now, per_line_compute=0):
        if nbytes > 0:
            line_size = self.line_size
            counter[0] += ((addr + nbytes - 1) // line_size
                           - addr // line_size + 1)
        return original(self, core_id, addr, nbytes, now, per_line_compute)

    MemorySystem.scan = scan
    try:
        yield counter
    finally:
        MemorySystem.scan = original
