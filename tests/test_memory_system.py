"""Tests for repro.mem.system (the full hierarchy)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.system import (SRC_DRAM, SRC_L1, SRC_L2, SRC_L3, SRC_REMOTE,
                              MemorySystem)

from tests.helpers import tiny_spec


def make(**overrides) -> MemorySystem:
    return MemorySystem(tiny_spec(**overrides))


LINE = 64


class TestLoadPath:
    def test_cold_load_comes_from_dram(self):
        memory = make()
        latency, source = memory._load_line(0, 100, 0, False)
        assert source == SRC_DRAM
        assert latency >= memory.spec.latency.dram_base
        assert memory.counters[0].dram_loads == 1

    def test_second_load_hits_l1(self):
        memory = make()
        memory.load(0, 100 * LINE, 0)
        latency, source = memory._load_line(0, 100, 0, False)
        assert source == SRC_L1
        assert latency == 3

    def test_l2_hit_after_l1_eviction(self):
        memory = make()
        memory.load(0, 0, 0)
        # Fill L1 (8 lines) to push line 0 into L2.
        for i in range(1, 9):
            memory.load(0, i * LINE, 0)
        latency, source = memory._load_line(0, 0, 0, False)
        assert source == SRC_L2
        assert latency == 14

    def test_l3_hit_after_private_eviction(self):
        memory = make()
        memory.load(0, 0, 0)
        # Push line 0 through L1 (8) and L2 (32) into the chip L3.
        for i in range(1, 42):
            memory.load(0, i * LINE, 0)
        latency, source = memory._load_line(0, 0, 0, False)
        assert source == SRC_L3
        assert latency == 75

    def test_remote_hit_from_other_core(self):
        memory = make()
        memory.load(1, 0, 0)            # core 1 caches line 0
        latency, source = memory._load_line(0, 0, 0, False)
        assert source == SRC_REMOTE
        assert latency == 127           # same chip

    def test_remote_hit_cross_chip_costs_more(self):
        memory = make()
        memory.load(2, 0, 0)            # core 2 is on chip 1
        latency, source = memory._load_line(0, 0, 0, False)
        assert source == SRC_REMOTE
        assert latency > 127

    def test_read_sharing_replicates(self):
        memory = make()
        memory.load(1, 0, 0)
        memory.load(0, 0, 0)
        holders = memory.directory.holders(0)
        assert 0 in holders and 1 in holders

    def test_mem_cycles_accumulate(self):
        memory = make()
        memory.load(0, 0, 0)
        assert memory.counters[0].mem_cycles > 0


class TestExclusivity:
    def test_line_never_in_l1_and_l2_of_same_core(self):
        memory = make()
        for i in range(100):
            memory.load(0, (i % 13) * LINE, 0)
        memory.check_invariants()

    def test_l3_keeps_shared_lines_on_hit(self):
        memory = make()
        # Core 0 and core 1 both cache line 0; core 0 then evicts it to
        # L3 by filling its private caches.
        memory.load(0, 0, 0)
        memory.load(1, 0, 0)
        for i in range(1, 42):
            memory.load(0, i * LINE, 0)
        # Line 0: core1 private + (possibly) L3.  A fresh L3 hit by core 0
        # must keep the L3 copy because core 1 still shares it.
        l3_holder = memory.directory.l3_holder(0)
        if l3_holder in memory.directory.holders(0):
            memory.load(0, 0, 0)
            assert l3_holder in memory.directory.holders(0)

    def test_l3_hands_over_private_lines(self):
        memory = make()
        memory.load(0, 0, 0)
        for i in range(1, 42):         # evict line 0 to L3
            memory.load(0, i * LINE, 0)
        l3_holder = memory.directory.l3_holder(0)
        assert l3_holder in memory.directory.holders(0)
        memory.load(0, 0, 0)           # sole user takes it back
        assert l3_holder not in memory.directory.holders(0)
        memory.check_invariants()


class TestStores:
    def test_store_invalidates_remote_copies(self):
        memory = make()
        memory.load(1, 0, 0)
        memory.load(2, 0, 0)
        memory.store(0, 0, 0)
        holders = memory.directory.holders(0)
        assert holders == frozenset({0})
        assert memory.counters[0].invalidations == 2

    def test_store_counts(self):
        memory = make()
        memory.store(0, 0, 0)
        assert memory.counters[0].stores == 1

    def test_store_without_sharers_is_cheap(self):
        memory = make()
        memory.load(0, 0, 0)
        latency = memory.store(0, 0, 0)
        assert latency == memory.spec.latency.l1

    def test_store_with_sharers_charges_invalidation(self):
        memory = make()
        memory.load(0, 0, 0)
        memory.load(1, 0, 0)
        latency = memory.store(0, 0, 0)
        assert latency > memory.spec.latency.l1
        memory.check_invariants()


class TestScan:
    def test_scan_touches_every_line(self):
        memory = make()
        memory.scan(0, 0, 5 * LINE, 0)
        assert memory.counters[0].loads == 5

    def test_scan_partial_line_counts_once(self):
        memory = make()
        memory.scan(0, 0, 1, 0)
        assert memory.counters[0].loads == 1

    def test_scan_zero_bytes(self):
        memory = make()
        assert memory.scan(0, 0, 0, 0) == 0

    def test_stream_discount_applies_after_first_dram_line(self):
        memory = make()
        cold = memory.scan(0, 0, 10 * LINE, 0)
        lat = memory.spec.latency
        # First line at full DRAM cost, the rest streamed: the total must
        # be far below 10 full-cost accesses.
        assert cold < 10 * lat.dram_base

    def test_per_line_compute_added(self):
        # Two fresh systems so DRAM queue state is identical.
        plain = make().scan(0, 0, 4 * LINE, 0)
        with_compute = make().scan(0, 0, 4 * LINE, 0, per_line_compute=10)
        assert with_compute == plain + 40

    def test_warm_scan_is_l1_fast(self):
        memory = make()
        memory.scan(0, 0, 4 * LINE, 0)
        warm = memory.scan(0, 0, 4 * LINE, 0)
        assert warm == 4 * memory.spec.latency.l1

    def test_prefetch_warms_cache(self):
        memory = make()
        memory.prefetch(0, 0, 4 * LINE, 0)
        _, source = memory._load_line(0, 0, 0, False)
        assert source in (SRC_L1, SRC_L2)


class TestMaintenance:
    def test_flush_line(self):
        memory = make()
        memory.load(0, 0, 0)
        memory.load(1, 0, 0)
        memory.flush_line(0)
        assert not memory.directory.holders(0)
        memory.check_invariants()

    def test_flush_all(self):
        memory = make()
        for i in range(20):
            memory.load(0, i * LINE, 0)
        memory.flush_all()
        assert len(memory.directory) == 0
        _, source = memory._load_line(0, 0, 0, False)
        assert source == SRC_DRAM

    def test_where_is(self):
        memory = make()
        memory.load(0, 0, 0)
        assert "L1.0" in memory.where_is(0)

    def test_holder_caches(self):
        memory = make()
        assert len(memory.holder_caches(0)) == 2       # L1 + L2
        l3_holder = memory.directory.l3_holder(1)
        assert len(memory.holder_caches(l3_holder)) == 1


@settings(max_examples=20, deadline=None)
@given(ops=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),     # core
              st.integers(min_value=0, max_value=60),    # line
              st.booleans()),                            # write?
    max_size=300))
def test_random_traffic_preserves_invariants(ops):
    """Directory and caches stay mutually consistent under arbitrary
    interleavings of loads and stores from all cores."""
    memory = make()
    for core, line, write in ops:
        if write:
            memory.store(core, line * LINE, 0)
        else:
            memory.load(core, line * LINE, 0)
    memory.check_invariants()


@settings(max_examples=20, deadline=None)
@given(ops=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=60)),
    min_size=1, max_size=200))
def test_write_invalidation_makes_writer_sole_holder(ops):
    memory = make()
    for core, line in ops:
        memory.load((core + 1) % 4, line * LINE, 0)
        memory.store(core, line * LINE, 0)
        # Immediately after a store, the writer is the only holder.
        holders = memory.directory.holders(line)
        assert holders == frozenset({core})
