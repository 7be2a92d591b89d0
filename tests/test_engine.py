"""Tests for repro.sim.engine (the discrete-event executor)."""

import pytest

from repro.cpu.machine import Machine
from repro.errors import SimulationError
from repro.obs import (MigrationStarted, Observability, ThreadArrived,
                       ThreadFinished, ThreadSpawned)
from repro.obs.export import events_to_jsonl
from repro.sched.thread_sched import ThreadScheduler
from repro.sim.engine import Simulator
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart, Load,
                                   OpDone, Release, Scan, Store, YieldCore)
from repro.threads.sync import SpinLock
from repro.verify import InvariantChecker
from repro.verify.fuzz import _generic_cache_factory
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

from tests.helpers import tiny_spec


def make_sim(**spec_overrides):
    machine = Machine(tiny_spec(**spec_overrides))
    return Simulator(machine, ThreadScheduler())


class TestBasics:
    def test_compute_advances_core_clock(self):
        sim = make_sim()
        def program():
            yield Compute(100)
            yield Compute(50)
        sim.spawn(program(), core_id=0)
        sim.run(max_steps=10)
        assert sim.machine.cores[0].time == 150
        assert sim.machine.cores[0].counters.busy_cycles == 150

    def test_thread_completes(self):
        sim = make_sim()
        def program():
            yield Compute(1)
        thread = sim.spawn(program(), core_id=0)
        sim.run(until=1000)
        assert thread.done
        assert thread.finished_at == 1

    def test_run_needs_stop_condition(self):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.run()

    def test_load_and_store_charge_memory_latency(self):
        sim = make_sim()
        def program():
            yield Load(0)
            yield Store(0)
        sim.spawn(program(), core_id=0)
        sim.run(until=100_000)
        core = sim.machine.cores[0]
        assert core.time >= sim.machine.spec.latency.dram_base
        assert core.counters.stores == 1

    def test_scan_executes_in_one_step(self):
        sim = make_sim()
        def program():
            yield Scan(0, 64 * 6)
        sim.spawn(program(), core_id=0)
        result = sim.run(until=1_000_000)
        assert sim.machine.memory.counters[0].loads == 6
        assert result.steps == 1

    def test_round_robin_placement(self):
        sim = make_sim()
        def program():
            yield Compute(1)
        threads = [sim.spawn(program()) for _ in range(6)]
        homes = [t.home_core for t in threads]
        assert homes == [0, 1, 2, 3, 0, 1]

    def test_spawn_rejects_bad_core(self):
        sim = make_sim()
        def program():
            yield Compute(1)
        with pytest.raises(SimulationError):
            sim.spawn(program(), core_id=99)

    def test_until_pauses_and_resumes(self):
        sim = make_sim()
        def program():
            while True:
                yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.run(until=1000)
        t_mid = sim.machine.cores[0].time
        assert t_mid <= 1100
        sim.run(until=2000)
        assert sim.machine.cores[0].time > t_mid

    def test_max_ops_counts_this_call(self):
        sim = make_sim()
        def program():
            while True:
                yield CtStart(_obj())
                yield CtEnd()
                yield Compute(10)
        sim.spawn(program(), core_id=0)
        sim.run(max_ops=5)
        assert sim.total_ops >= 5
        before = sim.total_ops
        sim.run(max_ops=3)
        assert sim.total_ops >= before + 3

    def test_opdone_counts_operations(self):
        sim = make_sim()
        def program():
            for _ in range(4):
                yield Compute(1)
                yield OpDone()
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        assert sim.total_ops == 4

    def test_unknown_item_rejected(self):
        sim = make_sim()
        def program():
            yield "banana"
        sim.spawn(program(), core_id=0)
        with pytest.raises(SimulationError):
            sim.run(until=100)


def _obj():
    from repro.core.object_table import CtObject
    return CtObject("o", 0, 64)


class TestCooperativeScheduling:
    def test_yield_core_rotates_threads(self):
        sim = make_sim()
        order = []
        def program(tag):
            for _ in range(2):
                order.append(tag)
                yield Compute(10)
                yield YieldCore()
        sim.spawn(program("a"), core_id=0)
        sim.spawn(program("b"), core_id=0)
        sim.run(until=10_000)
        assert order == ["a", "b", "a", "b"]

    def test_threads_on_one_core_serialize(self):
        sim = make_sim()
        def program():
            yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        assert sim.machine.cores[0].time == 200

    def test_threads_on_two_cores_run_in_parallel(self):
        sim = make_sim()
        def program():
            yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.spawn(program(), core_id=1)
        sim.run(until=10_000)
        assert sim.machine.cores[0].time == 100
        assert sim.machine.cores[1].time == 100


class TestLocks:
    def test_uncontended_acquire_succeeds_immediately(self):
        sim = make_sim()
        lock = SpinLock.allocate(sim.machine.address_space, "l")
        def program():
            yield Acquire(lock)
            yield Compute(10)
            yield Release(lock)
        sim.spawn(program(), core_id=0)
        sim.run(until=100_000)
        assert not lock.held
        assert lock.acquires == 1
        assert sim.machine.memory.counters[0].lock_spins == 0

    def test_contended_lock_spins_then_hands_over(self):
        sim = make_sim()
        lock = SpinLock.allocate(sim.machine.address_space, "l")
        holds = []
        def program(tag):
            yield Acquire(lock)
            holds.append(tag)
            yield Compute(500)
            yield Release(lock)
        sim.spawn(program("a"), core_id=0)
        sim.spawn(program("b"), core_id=1)
        sim.run(until=1_000_000)
        assert sorted(holds) == ["a", "b"]
        counters = sim.machine.memory.counters
        assert counters[0].lock_spins + counters[1].lock_spins > 0

    def test_lock_is_mutual_exclusion(self):
        """No two threads are ever inside the critical section at once."""
        sim = make_sim()
        lock = SpinLock.allocate(sim.machine.address_space, "l")
        inside = [0]
        max_inside = [0]
        def program():
            for _ in range(5):
                yield Acquire(lock)
                inside[0] += 1
                max_inside[0] = max(max_inside[0], inside[0])
                yield Compute(100)
                inside[0] -= 1
                yield Release(lock)
        for core in range(4):
            sim.spawn(program(), core_id=core)
        sim.run(until=5_000_000)
        assert max_inside[0] == 1
        assert all(t.done for t in sim.threads)


class TestMigration:
    class RedirectingScheduler(ThreadScheduler):
        """Sends every operation to core 3."""
        name = "redirect"
        def on_ct_start(self, thread, obj, core, now):
            return 3

    def test_ct_start_migrates_thread(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, self.RedirectingScheduler())
        def program():
            yield CtStart(_obj())
            yield Compute(10)
            yield CtEnd()
        thread = sim.spawn(program(), core_id=0)
        sim.run(until=1_000_000)
        assert thread.done
        assert thread.migrations == 1
        assert machine.cores[3].counters.migrations_in == 1
        assert machine.cores[0].counters.migrations_out == 1
        assert machine.cores[3].counters.ops_completed == 1

    def test_migration_charges_flight_time(self):
        machine = Machine(tiny_spec(migration_cost=500))
        sim = Simulator(machine, self.RedirectingScheduler())
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=1_000_000)
        # The op completed on core 3 no earlier than the flight time.
        assert machine.cores[3].time >= 500

    def test_poll_interval_quantises_arrival(self):
        machine = Machine(tiny_spec(migration_cost=500, poll_interval=300))
        sim = Simulator(machine, self.RedirectingScheduler())
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=1_000_000)
        # Arrival rounded up to the 600-cycle poll tick.
        assert machine.cores[3].time >= 600

    def test_origin_core_continues_with_other_threads(self):
        machine = Machine(tiny_spec())
        sim = Simulator(machine, self.RedirectingScheduler())
        def migrator():
            yield CtStart(_obj())
            yield Compute(1000)
            yield CtEnd()
        def worker():
            yield Compute(77)
        sim.spawn(migrator(), core_id=0)
        sim.spawn(worker(), core_id=0)
        sim.run(until=1_000_000)
        # The worker ran on core 0 while the migrator was away.
        assert machine.cores[0].counters.busy_cycles >= 77

    def test_invalid_migration_target_is_error(self):
        class BadScheduler(ThreadScheduler):
            def on_ct_start(self, thread, obj, core, now):
                return 42
        machine = Machine(tiny_spec())
        sim = Simulator(machine, BadScheduler())
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        with pytest.raises(SimulationError):
            sim.run(until=1000)


class TestIdleAccounting:
    def test_idle_core_accumulates_idle_cycles(self):
        sim = make_sim()
        def program():
            yield Compute(100)
        sim.spawn(program(), core_id=0)
        sim.run(until=1000)
        # Core 1 never had work: idle for the whole horizon.
        assert sim.machine.cores[1].counters.idle_cycles == 1000
        # Core 0 idled after its thread finished.
        assert sim.machine.cores[0].counters.idle_cycles == 900

    def test_wakeup_ends_idle_period(self):
        machine = Machine(tiny_spec())

        class LateRedirect(ThreadScheduler):
            def on_ct_start(self, thread, obj, core, now):
                return 1
        sim = Simulator(machine, LateRedirect())
        def program():
            yield Compute(500)
            yield CtStart(_obj())
            yield Compute(100)
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        # Core 1 was idle until the migration arrived (500 + flight).
        idle = machine.cores[1].counters.idle_cycles
        assert idle >= 500 + machine.spec.migration_cost


class TestDeterminismAndTracing:
    def test_identical_runs_produce_identical_results(self):
        def build():
            sim = make_sim()
            from repro.sim.rng import make_rng
            def program(core_id):
                rng = make_rng(1, core_id)
                for _ in range(50):
                    yield Compute(rng.randrange(1, 100))
                    yield Load(rng.randrange(0, 4096))
            for core in range(4):
                sim.spawn(program(core), core_id=core)
            sim.run(until=100_000)
            return [core.time for core in sim.machine.cores], \
                sim.machine.memory.counters[0].as_dict()
        assert build() == build()

    def test_tracer_records_lifecycle(self):
        obs = Observability()
        machine = Machine(tiny_spec())
        sim = Simulator(machine, ThreadScheduler(), obs=obs)
        def program():
            yield Compute(1)
        sim.spawn(program(), core_id=0)
        sim.run(until=100)
        kinds = [type(event) for event in obs.events()]
        assert kinds.count(ThreadSpawned) == 1
        assert kinds.count(ThreadFinished) == 1

    def test_tracer_records_migrations(self):
        obs = Observability()
        machine = Machine(tiny_spec())
        sim = Simulator(machine, TestMigration.RedirectingScheduler(),
                        obs=obs)
        def program():
            yield CtStart(_obj())
            yield CtEnd()
        sim.spawn(program(), core_id=0)
        sim.run(until=10_000)
        kinds = [type(event) for event in obs.events()]
        assert kinds.count(MigrationStarted) == 1
        assert kinds.count(ThreadArrived) == 1


class TestRunResult:
    def test_result_reports_ops_and_throughput(self):
        sim = make_sim()
        def program():
            for _ in range(10):
                yield Compute(100)
                yield OpDone()
        sim.spawn(program(), core_id=0)
        result = sim.run(until=2000)
        assert result.ops > 0
        assert result.throughput_ops_per_sec > 0
        assert result.kops_per_sec == result.throughput_ops_per_sec / 1e3
        assert "RunResult" in str(result)


# ---------------------------------------------------------------------------
# spin-run collapse: the fast memory path applies a run of L1-hit spins in
# O(1); the generic cache path has no flattened L1 and spins one event per
# retry, so it is the oracle every collapsed run is compared against.
# ---------------------------------------------------------------------------

class _EventCounter:
    """Duck-typed checker that counts the events the run loop pops."""

    def __init__(self):
        self.events = 0

    def bind(self, sim):
        pass

    def after_event(self, time):
        self.events += 1


def _machine(generic):
    if generic:
        return Machine(tiny_spec(), cache_factory=_generic_cache_factory)
    return Machine(tiny_spec())


def _lock_pair(generic):
    """Two cores contending for one lock held for long critical sections,
    so the waiter spins with its lock line in L1 most of the time."""
    machine = _machine(generic)
    sim = Simulator(machine, ThreadScheduler(), obs=Observability(),
                    checker=_EventCounter())
    lock = SpinLock.allocate(machine.address_space, "l")

    def program():
        # Finite, so a collapse that overshoots max_steps ends the run
        # early instead of spinning forever.
        for _ in range(60):
            yield Acquire(lock)
            yield Compute(2_000)
            yield Release(lock)
            yield Compute(300)
            yield OpDone()

    for core_id in (0, 1):
        sim.spawn(program(), f"t{core_id}", core_id=core_id)
    return sim, lock


def _dirlookup(generic, checker=None):
    machine = _machine(generic)
    sim = Simulator(machine, ThreadScheduler(), obs=Observability(),
                    checker=checker)
    spec = DirWorkloadSpec(n_dirs=6, files_per_dir=32, cluster_bytes=512,
                           think_cycles=10, threads_per_core=2, seed=7)
    DirectoryLookupWorkload(machine, spec).spawn_all(sim)
    return sim


def _assert_same_state(sim_a, res_a, sim_b, res_b):
    assert events_to_jsonl(sim_a.obs.events()) \
        == events_to_jsonl(sim_b.obs.events())
    for field in ("ops", "steps", "horizon_cycles", "migrations",
                  "dram_lines", "dram_queued_cycles",
                  "cross_chip_messages", "counters", "metrics"):
        assert getattr(res_a, field) == getattr(res_b, field), field
    assert sim_a.total_steps == sim_b.total_steps
    for core_a, core_b in zip(sim_a.machine.cores, sim_b.machine.cores):
        assert core_a.time == core_b.time
        assert core_a.steps == core_b.steps
        assert (core_a.counters.snapshot().values
                == core_b.counters.snapshot().values)
    for thread_a, thread_b in zip(sim_a.threads, sim_b.threads):
        assert thread_a.spin_cycles == thread_b.spin_cycles
        assert thread_a.spinning == thread_b.spinning


class TestSpinRunCollapse:
    def test_contended_lock_matches_per_event_run(self):
        (fast, fast_lock), (slow, slow_lock) = _lock_pair(False), \
            _lock_pair(True)
        result = fast.run(until=200_000)
        _assert_same_state(fast, result, slow, slow.run(until=200_000))
        assert fast_lock.spin_attempts == slow_lock.spin_attempts > 1000
        assert result.metrics["sim.lock_spins"] \
            == result.counters["lock_spins"] == fast_lock.spin_attempts
        # The collapse fired: fewer events for the same steps.
        assert fast.checker.events < slow.checker.events
        assert fast.checker.events < fast.total_steps

    @pytest.mark.parametrize("cut", [50_011, 101_333, 150_007])
    def test_split_until_matches_straight_run(self, cut):
        fast, _ = _lock_pair(False)
        fast.run(until=cut)
        # The cut lands inside a spin run: a waiter is mid-acquire.
        assert any(t.spinning for t in fast.threads)
        slow, _ = _lock_pair(True)
        _assert_same_state(fast, fast.run(until=200_000),
                           slow, slow.run(until=200_000))

    @pytest.mark.parametrize("max_steps", [7, 333, 2_501])
    def test_max_steps_stop_matches_per_event_run(self, max_steps):
        fast, _ = _lock_pair(False)
        slow, _ = _lock_pair(True)
        _assert_same_state(fast, fast.run(max_steps=max_steps),
                           slow, slow.run(max_steps=max_steps))
        assert slow.checker.events == max_steps
        assert any(t.spinning for t in slow.threads)

    def test_dirlookup_matches_per_event_run(self):
        fast, slow = _dirlookup(False), _dirlookup(True)
        _assert_same_state(fast, fast.run(until=150_000),
                           slow, slow.run(until=150_000))

    @pytest.mark.parametrize("kwargs", [
        {"max_steps": 500},
        {"max_ops": 40, "until": None},
        {"until": 60_000, "max_steps": 3000},
    ])
    def test_collapse_honours_run_limits(self, kwargs):
        kwargs = dict({"until": 150_000}, **kwargs)
        fast, slow = _dirlookup(False), _dirlookup(True)
        _assert_same_state(fast, fast.run(**kwargs), slow, slow.run(**kwargs))

    def test_split_run_matches_straight_run(self):
        fast, slow = _dirlookup(False), _dirlookup(True)
        fast.run(until=75_000)
        _assert_same_state(fast, fast.run(until=150_000),
                           slow, slow.run(until=150_000))

    def test_collapse_stays_on_under_checker(self):
        checker = InvariantChecker(interval=64)
        fast, slow = _dirlookup(False, checker=checker), _dirlookup(True)
        _assert_same_state(fast, fast.run(until=150_000),
                           slow, slow.run(until=150_000))
        assert fast._spin_l1ds is not None
        assert checker.checks > 0 and checker.violations == 0

    def test_run_drains_heap_on_completion(self):
        def finite(n):
            for _ in range(n):
                yield Compute(25)
                yield OpDone()

        sim = make_sim()
        for core_id in range(sim.machine.n_cores):
            sim.spawn(finite(3 + core_id), f"t{core_id}", core_id=core_id)
        result = sim.run(until=1_000_000)
        assert sim._heap == []
        assert all(thread.done for thread in sim.threads)
        assert result.ops == sum(3 + c for c in range(sim.machine.n_cores))
