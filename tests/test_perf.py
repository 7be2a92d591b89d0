"""Tests for the perf kernels and the benchmark-regression gate
(``python -m repro.bench perf``), plus the engine-determinism and
dispatch-table guarantees the hot-path optimization relies on.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import (KERNELS, _percentile, _stats_dict, compare,
                              format_report)
from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.errors import SimulationError
from repro.mem.cache import LRUCache
from repro.mem.counters import COUNTER_FIELDS
from repro.obs import Observability
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.threads.program import ITEM_TYPES, Compute
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import tiny_spec


# ---------------------------------------------------------------------------
# dispatch table
# ---------------------------------------------------------------------------

def _simulator(machine=None):
    machine = machine or Machine(tiny_spec())
    return Simulator(machine, ThreadScheduler())


def test_dispatch_table_covers_every_item_type():
    simulator = _simulator()
    assert set(simulator._dispatch) == set(ITEM_TYPES)


def test_dispatch_handlers_are_callable_and_distinct():
    simulator = _simulator()
    handlers = list(simulator._dispatch.values())
    assert all(callable(h) for h in handlers)
    # Every item class gets its own handler (no accidental aliasing
    # beyond the ct_start/ct_end pair wrapping shared logic).
    assert len({h.__name__ for h in handlers}) == len(handlers)


def test_unknown_item_raises_simulation_error():
    simulator = _simulator()

    def rogue():
        yield Compute(5)
        yield object()  # not an instruction item

    simulator.spawn(rogue(), "rogue", core_id=0)
    with pytest.raises(SimulationError, match="unknown item"):
        simulator.run(max_steps=10)


# ---------------------------------------------------------------------------
# determinism: same seed -> byte-identical event stream, and the
# flattened fast path must match the generic path exactly
# ---------------------------------------------------------------------------

class PlainLRU(LRUCache):  # subclass -> disables the fast path
    pass


def _run_events(tmp_path, tag, cache_factory=None):
    machine = (Machine(tiny_spec(), cache_factory=cache_factory)
               if cache_factory is not None else Machine(tiny_spec()))
    obs = Observability(events=True)
    simulator = Simulator(machine, ThreadScheduler(), obs=obs)
    spec = DirWorkloadSpec(n_dirs=6, files_per_dir=32, cluster_bytes=512,
                           think_cycles=10, threads_per_core=2, seed=7)
    DirectoryLookupWorkload(machine, spec).spawn_all(simulator)
    simulator.run(until=150_000)
    path = tmp_path / f"{tag}.events.jsonl"
    obs.write_jsonl(str(path))
    return path.read_bytes(), simulator


def test_same_seed_event_streams_byte_identical(tmp_path):
    first, _ = _run_events(tmp_path, "a")
    second, _ = _run_events(tmp_path, "b")
    assert first == second


def test_fast_path_matches_generic_path_byte_for_byte(tmp_path):
    """The flattened all-LRU fast path and the generic cache path must
    produce identical event streams and counters for the same run."""

    fast, fast_sim = _run_events(tmp_path, "fast")
    generic, generic_sim = _run_events(
        tmp_path, "generic", cache_factory=lambda cap, cid: PlainLRU(cap, cid))
    assert not generic_sim.memory._fast and fast_sim.memory._fast
    assert fast == generic
    fast_counters = [c.as_dict() for c in fast_sim.memory.counters]
    generic_counters = [c.as_dict() for c in generic_sim.memory.counters]
    assert fast_counters == generic_counters


# The paper's 4x4 geometry: on a square of four chips each chip has two
# equidistant neighbours, so the nearest-holder tie-break is exercised
# (tiny_spec() has two chips and no ties).

#: Recorded before the directory stored holder bitmasks (the nearest
#: holder was then the first in set-iteration order among the
#: closest chips): per-core COUNTER_FIELDS rows, then ops, steps,
#: migrations and cross-chip messages.
DIRLOOKUP_4X4_PINS = {
    "thread": (
        [
            [2741, 1007, 351, 1447, 182, 182, 109, 91, 2523, 0, 0, 0, 300010,
             235831, 91],
            [2296, 1116, 468, 1475, 151, 209, 130, 105, 2045, 0, 0, 0, 300435,
             248050, 104],
            [1998, 1162, 401, 1531, 252, 203, 116, 102, 1795, 0, 0, 0, 301479,
             255380, 101],
            [1915, 1337, 383, 1466, 282, 215, 131, 108, 1681, 0, 0, 0, 300304,
             256983, 107],
            [2443, 1051, 416, 1358, 262, 187, 113, 94, 2178, 0, 0, 0, 301944,
             246366, 93],
            [3204, 1051, 364, 1522, 7, 176, 111, 88, 3065, 0, 0, 0, 300016,
             222323, 88],
            [1715, 1275, 392, 1606, 231, 199, 121, 100, 1621, 0, 0, 0, 301034,
             259309, 99],
            [2479, 717, 483, 1543, 147, 171, 117, 86, 2270, 0, 0, 0, 300022,
             242240, 85],
            [2569, 1125, 439, 1404, 156, 191, 130, 96, 2312, 0, 0, 0, 300334,
             241382, 95],
            [2293, 1220, 565, 1318, 217, 202, 119, 101, 2049, 0, 0, 0, 300015,
             247566, 101],
            [2256, 916, 368, 1556, 221, 190, 112, 95, 2042, 0, 0, 0, 300022,
             247820, 95],
            [1507, 917, 572, 1429, 302, 195, 122, 98, 1305, 0, 0, 0, 300176,
             266375, 97],
            [2488, 864, 505, 1467, 150, 197, 115, 99, 2271, 0, 0, 0, 300669,
             242706, 98],
            [1898, 1398, 520, 1601, 73, 219, 142, 110, 1667, 0, 0, 0, 300887,
             257892, 109],
            [1683, 1580, 418, 1495, 185, 231, 137, 116, 1508, 0, 0, 0, 300257,
             261165, 115],
            [1838, 1337, 615, 1358, 199, 189, 120, 95, 1710, 0, 0, 0, 300311,
             256421, 94],
        ],
        1572, 41530, 0, 3373),
    "coretime": (
        [
            [3312, 2464, 0, 1297, 255, 390, 81, 195, 491, 288, 291, 38106,
             261906, 244959, 195],
            [4050, 1331, 0, 717, 218, 341, 27, 171, 108, 312, 314, 132573,
             167819, 159167, 170],
            [3832, 1446, 0, 439, 248, 342, 20, 171, 199, 300, 304, 156447,
             143553, 132914, 171],
            [4616, 1881, 0, 439, 244, 397, 16, 199, 173, 331, 333, 141565,
             158882, 148701, 198],
            [3376, 2325, 0, 610, 193, 362, 33, 181, 361, 273, 277, 125174,
             174826, 160937, 181],
            [3771, 1750, 0, 278, 48, 315, 12, 158, 469, 310, 311, 179501,
             120914, 102533, 157],
            [4280, 1755, 0, 460, 334, 406, 22, 203, 69, 339, 342, 128170,
             171841, 164068, 203],
            [3663, 3092, 0, 386, 113, 381, 12, 191, 243, 300, 290, 144354,
             156429, 146002, 190],
            [3801, 1712, 0, 466, 264, 339, 37, 170, 424, 290, 293, 135659,
             164566, 148718, 169],
            [3094, 1097, 0, 963, 174, 302, 37, 151, 116, 269, 273, 124433,
             175567, 167355, 151],
            [3593, 2019, 0, 239, 261, 375, 17, 188, 177, 343, 344, 160117,
             139895, 128910, 187],
            [2112, 783, 0, 470, 203, 199, 23, 100, 30, 255, 256, 182036,
             118161, 111043, 99],
            [3912, 2444, 0, 413, 124, 385, 19, 193, 475, 301, 299, 142433,
             157764, 141249, 192],
            [3787, 2621, 0, 498, 82, 387, 15, 194, 190, 306, 309, 144907,
             155418, 145548, 193],
            [2391, 864, 0, 431, 134, 191, 18, 96, 476, 233, 227, 185469,
             114632, 97292, 95],
            [3785, 1219, 0, 384, 153, 306, 16, 153, 444, 278, 282, 170303,
             129697, 113253, 153],
        ],
        2704, 20787, 4745, 15913),
}


def _run_4x4(tmp_path, sched, generic):
    spec = MachineSpec.scaled(8)
    machine = (Machine(spec, cache_factory=PlainLRU) if generic
               else Machine(spec))
    scheduler = (CoreTimeScheduler(CoreTimeConfig(monitor_interval=20_000))
                 if sched == "coretime" else ThreadScheduler())
    obs = Observability(events=True, capture_memory=True)
    simulator = Simulator(machine, scheduler, obs=obs)
    DirectoryLookupWorkload(machine, DirWorkloadSpec.scaled(
        8, n_dirs=48, seed=3)).spawn_all(simulator)
    result = simulator.run(until=300_000)
    path = tmp_path / f"{sched}-{generic}.events.jsonl"
    obs.write_jsonl(str(path))
    return path.read_bytes(), simulator, result


@pytest.mark.parametrize("sched", ["thread", "coretime"])
def test_4x4_fast_path_matches_generic_and_pins(tmp_path, sched):
    fast, fast_sim, fast_result = _run_4x4(tmp_path, sched, False)
    generic, generic_sim, generic_result = _run_4x4(tmp_path, sched, True)
    assert fast_sim.memory._fast and not generic_sim.memory._fast
    assert fast == generic
    rows = [[getattr(bank, name) for name in COUNTER_FIELDS]
            for bank in fast_sim.memory.counters]
    assert rows == [[getattr(bank, name) for name in COUNTER_FIELDS]
                    for bank in generic_sim.memory.counters]
    assert (fast_sim.memory.interconnect.transfers
            == generic_sim.memory.interconnect.transfers)
    pinned_rows, ops, steps, migrations, cross = DIRLOOKUP_4X4_PINS[sched]
    for result in (fast_result, generic_result):
        assert (result.ops, result.steps, result.migrations,
                result.cross_chip_messages) == (ops, steps, migrations, cross)
    assert rows == pinned_rows


# ---------------------------------------------------------------------------
# perf reporting + gate
# ---------------------------------------------------------------------------

def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 1.0) == 4.0
    assert _percentile(values, 0.5) == 2.5
    assert _percentile([42.0], 0.95) == 42.0


def test_stats_dict_fields():
    stats = _stats_dict([1.0, 2.0, 3.0])
    assert stats["n"] == 3
    assert stats["min"] == 1.0 and stats["max"] == 3.0
    assert stats["p50"] == 2.0
    assert stats["mean"] == pytest.approx(2.0)


def _report(**norms):
    return {"kernels": {name: {"normalized_throughput": value}
                        for name, value in norms.items()}}


def test_gate_passes_within_tolerance():
    regressions, improvements = compare(
        _report(fig2=0.95), _report(fig2=1.0), tolerance=0.20)
    assert not regressions and not improvements


def test_gate_fails_on_regression():
    regressions, improvements = compare(
        _report(fig2=0.70), _report(fig2=1.0), tolerance=0.20)
    assert regressions and not improvements


def test_gate_warns_on_improvement():
    regressions, improvements = compare(
        _report(fig2=1.30), _report(fig2=1.0), tolerance=0.20)
    assert improvements and not regressions


def test_gate_flags_missing_kernel_as_regression():
    regressions, _ = compare(_report(), _report(fig2=1.0))
    assert regressions and "missing" in regressions[0]


def test_perf_kernel_registry_and_report_format():
    assert set(KERNELS) == {"fig2", "fig4a", "migration"}
    report = {
        "python": "3.11.0", "repeats": 2, "calibration_score": 1e6,
        "kernels": {"fig2": {
            "steps_per_sec": {"p50": 1000.0, "p95": 1100.0, "mean": 1050.0},
            "normalized_throughput": 0.001}},
    }
    text = format_report(report)
    assert "fig2" in text and "normalized 0.001" in text
