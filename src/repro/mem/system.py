"""The simulated memory hierarchy.

:class:`MemorySystem` is the single authority over cache contents.  It owns
every cache (per-core L1/L2, per-chip L3), the global sharing directory,
the DRAM controllers and the interconnect, and exposes three operations to
cores:

* :meth:`load` / :meth:`store` — one line, demand access;
* :meth:`scan` — a sequential byte range (a directory search), handled in
  one call per the design's scan-batching decision.

Cache levels are *exclusive*: a line lives in exactly one level of a core's
private hierarchy or in a chip's L3, so aggregate on-chip capacity is the
sum of the levels — matching the paper's arithmetic (16 MB = 4 x 2 MB L3 +
16 x 512 KB L2).  A load inserts the line at L1 and cascades victims
downward (L1 -> L2 -> chip L3 -> dropped); a hit in a lower level moves the
line up and out of that level.

Reads may be satisfied from any remote cache (replicating the line into the
local hierarchy); stores invalidate every remote copy via the sharing
directory.  Both effects — replication eating capacity, invalidation
generating interconnect traffic — are exactly what §1 of the paper blames
for poor implicit on-chip-memory scheduling.

Hot-path layout: when every cache is a plain :class:`LRUCache` (the
default factory), per-line lookups run through :meth:`_load_line_fast`,
which works on a per-core tuple of flattened state — counter bank, the
caches' underlying ordered dicts and capacities, chip id, the core's and
its L3's holder bits — plus the directory's raw line -> holder-bitmask
dict.  This removes every Python method call from the hit paths and the
insert cascade while mutating the exact same underlying structures, so
behaviour (and event streams) are bit-identical to the generic path used
under a custom ``cache_factory``.

Because the directory always matches the caches, a chip's L3 bit in a
line's holder mask is set iff that L3 holds the line; after an L1 and L2
miss the fast paths read L3 residency from the mask they fetched anyway,
and the bits of the other chips locate the nearest remote copy (ties go
to the lowest chip id).
"""

from __future__ import annotations

from math import exp as _exp
from typing import Callable, List, Optional, Tuple

from repro.cpu.topology import MachineSpec
from repro.errors import ConfigError
from repro.mem.cache import LRUCache
from repro.obs.events import CacheEvicted, CacheInvalidated
from repro.mem.counters import CoreCounters
from repro.mem.dram import UTILISATION_CAP, UTILISATION_TAU, Dram
from repro.mem.interconnect import Interconnect
from repro.mem.sharing import SharingDirectory, holder_ids

#: Where a load was satisfied (returned by the internal load path and used
#: by the scan loop's stream-prefetch logic and by tests).
SRC_L1 = 0
SRC_L2 = 1
SRC_L3 = 2
SRC_REMOTE = 3
SRC_DRAM = 4

SOURCE_NAMES = ("L1", "L2", "L3", "REMOTE", "DRAM")

CacheFactory = Callable[[int, str], LRUCache]


def _default_cache_factory(capacity: int, cache_id: str) -> LRUCache:
    return LRUCache(capacity, cache_id)


class MemorySystem:
    """All caches, coherence state, interconnect and DRAM of one machine."""

    def __init__(self, spec: MachineSpec,
                 cache_factory: CacheFactory = _default_cache_factory) -> None:
        spec.validate()
        self.spec = spec
        self.line_size = spec.line_size
        n_cores = spec.n_cores
        self.l1s: List[LRUCache] = [
            cache_factory(spec.l1_lines, f"L1.{c}") for c in range(n_cores)]
        self.l2s: List[LRUCache] = [
            cache_factory(spec.l2_lines, f"L2.{c}") for c in range(n_cores)]
        self.l3s: List[LRUCache] = [
            cache_factory(spec.l3_lines, f"L3.{chip}")
            for chip in range(spec.n_chips)]
        self.directory = SharingDirectory(n_cores)
        self.dram = Dram(spec)
        self.interconnect = Interconnect(spec)
        self.counters: List[CoreCounters] = [
            CoreCounters(c) for c in range(n_cores)]
        # Pre-computed per-core values for the hot path.
        self._chip_of = [spec.chip_of(c) for c in range(n_cores)]
        self._lat = spec.latency
        self._lat_l1 = spec.latency.l1
        self._lat_l2 = spec.latency.l2
        self._lat_l3 = spec.latency.l3
        #: holder id -> chip id, for every valid holder (cores then L3s).
        self._holder_chip: List[int] = (
            [spec.chip_of(c) for c in range(n_cores)]
            + list(range(spec.n_chips)))
        # Nearest-holder search: per requesting chip, every chip paired
        # with its holder mask (its cores' bits plus its L3's bit),
        # nearest first and ties to the lowest chip id.  The first chip
        # whose mask meets a line's holder mask supplies the line.
        chip_masks = [0] * spec.n_chips
        for holder, chip in enumerate(self._holder_chip):
            chip_masks[chip] |= 1 << holder
        self._near: List[List[Tuple[int, int]]] = [
            [(b, chip_masks[b]) for b in sorted(
                range(spec.n_chips),
                key=lambda b: (spec.chip_distance(a, b), b))]
            for a in range(spec.n_chips)]
        #: The directory's raw line -> holder-bitmask dict.  Shared identity
        #: with ``self.directory._holders`` for the lifetime of the
        #: system (``flush_all`` clears it in place).
        self._holders = self.directory._holders
        # Flattened per-core state for the fast path: one tuple per core,
        # unpacked in C on every line access instead of chasing
        # list-index + attribute chains.  Only valid when every cache is
        # a plain LRUCache; custom factories use the generic path.
        self._fast = all(
            type(c) is LRUCache
            for c in self.l1s + self.l2s + self.l3s)
        if self._fast:
            self._core_state: List[tuple] = []
            for c in range(n_cores):
                l1, l2 = self.l1s[c], self.l2s[c]
                chip = self._chip_of[c]
                l3 = self.l3s[chip]
                self._core_state.append((
                    self.counters[c],
                    l1, l1._lines, l1.capacity,
                    l2, l2._lines, l2.capacity,
                    l3, l3._lines, l3.capacity,
                    chip, 1 << self.directory.l3_holder(chip), 1 << c))
            #: Just the L1 ordered dicts, for the hit path's early probe
            #: (no 13-tuple unpack on a hit).
            self._l1ds = [l1._lines for l1 in self.l1s]
            #: Interned (latency, source) results for the fixed-latency
            #: hit levels — no tuple allocation per access.
            self._res_l1 = (self._lat_l1, SRC_L1)
            self._res_l2 = (self._lat_l2, SRC_L2)
            self._res_l3 = (self._lat_l3, SRC_L3)
            self._load_line = self._load_line_fast
        # Observability: None until attach_observability(); publish sites
        # gate on it so the un-observed hot path allocates nothing.
        self._bus = None
        # Per-core operation context: the name of the annotated object the
        # core is currently operating on, maintained by the engine only
        # when memory-event capture is on (None otherwise), so miss-level
        # events can be attributed to the object being manipulated.
        self.op_obj: Optional[List[Optional[str]]] = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_observability(self, obs) -> None:
        """Wire this memory system into an ``Observability`` pipeline.

        Per-event publishing (evictions, invalidations) only activates
        when the pipeline opted into memory events (``capture_memory``);
        aggregate statistics are exposed as pull gauges either way.
        """
        if obs is None:
            return
        if obs.capture_memory:
            self._bus = obs.bus
            self.op_obj = [None] * self.spec.n_cores
        else:
            self._bus = None
        registry = obs.metrics
        if registry is None:
            return
        caches = self.l1s + self.l2s + self.l3s
        registry.gauge_fn(
            "mem.cache_evictions",
            lambda: sum(c.evictions for c in caches))
        registry.gauge_fn(
            "mem.dram_lines", lambda: self.dram.total_lines_served)
        registry.gauge_fn(
            "mem.cross_chip_messages", self.interconnect.cross_chip_messages)

    # ------------------------------------------------------------------
    # single-line operations
    # ------------------------------------------------------------------

    def load(self, core_id: int, addr: int, now: int) -> int:
        """Load the line containing ``addr``; return latency in cycles."""
        latency, _ = self._load_line(
            core_id, addr // self.line_size, now, False)
        self.counters[core_id].mem_cycles += latency
        return latency

    def store(self, core_id: int, addr: int, now: int) -> int:
        """Store to the line containing ``addr``; return latency in cycles.

        The line is first brought local (charged like a load), then every
        remote copy is invalidated.  Invalidations happen in parallel on
        real hardware, so we charge the slowest one, not the sum.
        """
        line = addr // self.line_size
        latency, _ = self._load_line(core_id, line, now, False)
        counters = self.counters[core_id]
        counters.stores += 1
        mask = self._holders.get(line, 0) & ~(1 << core_id)
        if mask:
            others = holder_ids(mask)
            my_chip = self._chip_of[core_id]
            holder_chip = self._holder_chip
            invalidate = self.interconnect.invalidate_latency
            worst = 0
            for holder in others:
                self._drop_from_holder(line, holder)
                cost = invalidate(my_chip, holder_chip[holder])
                if cost > worst:
                    worst = cost
            counters.invalidations += len(others)
            latency += worst
            bus = self._bus
            if bus is not None and bus.wants(CacheInvalidated):
                bus.publish(CacheInvalidated(now, core_id, line, len(others),
                                             self.op_obj[core_id]))
        counters.mem_cycles += latency
        return latency

    # ------------------------------------------------------------------
    # batched sequential scan
    # ------------------------------------------------------------------

    def scan(self, core_id: int, addr: int, nbytes: int, now: int,
             per_line_compute: int = 0) -> int:
        """Sequentially read ``[addr, addr + nbytes)``; return total cycles.

        Consecutive DRAM fetches after the first are charged the stream
        (prefetched) latency.  ``per_line_compute`` adds fixed compute per
        line, modelling the entry-compare loop of a directory search.
        """
        if nbytes <= 0:
            return 0
        line_size = self.line_size
        first = addr // line_size
        last = (addr + nbytes - 1) // line_size
        load_line = self._load_line
        total = 0
        stream_run = False
        if self._fast:
            state = self._core_state[core_id]
            (counters, l1, l1d, l1_cap, l2, l2d, l2_cap, l3, l3d, l3_cap,
             _, _, _) = state
            if not (l1.pinned or l2.pinned or l3.pinned):
                return self._scan_fast(
                    core_id, first, last, now, per_line_compute, state)
            # Pinned lines anywhere in the hierarchy: inline only the
            # L1-hit case (one dict probe + move_to_end per line, hit
            # counts batched outside the loop); misses take the per-line
            # fast path, whose _evict() honours pins.
            move_to_end = l1d.move_to_end
            hit_cost = self._lat_l1 + per_line_compute
            l1_hits = 0
            for line in range(first, last + 1):
                if line in l1d:
                    move_to_end(line)
                    l1_hits += 1
                    total += hit_cost
                    stream_run = False
                else:
                    latency, source = load_line(core_id, line, now + total,
                                                stream_run)
                    total += latency + per_line_compute
                    stream_run = source >= SRC_REMOTE
            counters.l1_hits += l1_hits
            counters.mem_cycles += total
            return total
        for line in range(first, last + 1):
            latency, source = load_line(core_id, line, now + total,
                                        stream_run)
            total += latency + per_line_compute
            stream_run = source >= SRC_REMOTE
        self.counters[core_id].mem_cycles += total
        return total

    def prefetch(self, core_id: int, addr: int, nbytes: int, now: int) -> int:
        """Warm the local hierarchy with a byte range (no compute cost)."""
        return self.scan(core_id, addr, nbytes, now)

    def _scan_fast(self, core_id: int, first: int, last: int, now: int,
                   per_line_compute: int, state: tuple) -> int:
        """Whole-scan inline loop for pin-free all-LRU hierarchies.

        Unrolls :meth:`_load_line_fast` across the scanned range with the
        per-core state, the directory dict, the interconnect cost tables
        and the DRAM controllers all held in locals, and with counter
        increments accumulated outside the loop.  Mutations — dict probe
        order, the L1 -> L2 -> L3 victim cascade, holder masks, DRAM
        demand decay — are performed in exactly the order of the per-line
        path, so counters and event streams stay byte-identical to it.
        """
        (counters, l1, l1d, l1_cap, l2, l2d, l2_cap, l3, l3d, l3_cap,
         chip, l3_bit, core_bit) = state
        holders_map = self._holders
        holders_get = holders_map.get
        not_core = ~core_bit
        not_l3 = ~l3_bit
        hit1 = self._lat_l1 + per_line_compute
        hit2 = self._lat_l2 + per_line_compute
        hit3 = self._lat_l3 + per_line_compute
        near = self._near[chip]
        one_chip = len(near) == 1
        interconnect = self.interconnect
        remote_cost = interconnect._remote_cost[chip]
        stream_cost = interconnect._stream_cost[chip]
        transfers = interconnect.transfers
        dram = self.dram
        n_chips = dram._n_chips
        raw_base = dram._raw_base[chip]
        raw_stream = dram._raw_stream[chip]
        controllers = dram.controllers
        if one_chip:
            # Single-chip machine: every line's home bank is controller
            # 0 and every holder is distance 0, so the cost tables are
            # scalars and the controller's queueing state can live in
            # locals for the whole scan (written back below) — the
            # arithmetic runs in the exact order of the general branch.
            ctrl = controllers[0]
            ctl_occ = ctrl.occupancy
            ctl_demand = ctrl.demand
            ctl_clock = ctrl.clock
            ctl_lines = 0
            ctl_queued = 0
            rb0 = raw_base[0]
            rs0 = raw_stream[0]
            rc0 = remote_cost[0]
            sc0 = stream_cost[0]
        bus = self._bus
        # Pre-line timestamps are only observable through CacheEvicted
        # (L3 spill) and the DRAM controller clock; when eviction events
        # are off, only the DRAM branches need ``line_now``.
        publishing = bus is not None and bus.wants(CacheEvicted)
        l1_move = l1d.move_to_end
        l3_move = l3d.move_to_end
        l1_pop = l1d.popitem
        l2_pop = l2d.popitem
        l3_pop = l3d.popitem
        # Cache occupancies tracked in locals: the loop below performs
        # every mutation of these three dicts, so the counts stay exact
        # without a len() call per level per line.
        n1 = len(l1d)
        n2 = len(l2d)
        n3 = len(l3d)
        c1 = c2 = c3 = cr = cd = e1 = e2 = e3 = 0
        total = 0
        stream_run = False
        for line in range(first, last + 1):
            if line in l1d:
                l1_move(line)
                c1 += 1
                total += hit1
                stream_run = False
                continue
            if publishing:
                line_now = now + total
            if line in l2d:
                c2 += 1
                del l2d[line]
                n2 -= 1
                total += hit2
                stream_run = False
            else:
                # One directory probe classifies the rest: the L3 bit is
                # set iff this chip's L3 holds the line, the other bits
                # are the remote holders.
                mask = holders_get(line, 0)
                if mask & l3_bit:
                    c3 += 1
                    if mask != l3_bit:
                        l3_move(line)
                    else:
                        del l3d[line]
                        n3 -= 1
                        mask = 0
                    total += hit3
                    stream_run = False
                elif one_chip:
                    if mask:
                        # Any holder is distance 0.
                        cr += 1
                        total += (sc0 if stream_run else rc0) \
                            + per_line_compute
                    else:
                        cd += 1
                        line_now = now + total
                        if line_now > ctl_clock:
                            ctl_demand *= _exp(
                                (ctl_clock - line_now) / UTILISATION_TAU)
                            ctl_clock = line_now
                        ctl_demand += ctl_occ
                        rho = ctl_demand / UTILISATION_TAU
                        if rho > UTILISATION_CAP:
                            rho = UTILISATION_CAP
                        queue_delay = int(ctl_occ * rho / (1.0 - rho) * 0.5)
                        ctl_lines += 1
                        ctl_queued += queue_delay
                        total += (queue_delay
                                  + (rs0 if stream_run else rb0)
                                  + per_line_compute)
                    stream_run = True
                elif mask:
                    cr += 1
                    for hchip, chip_mask in near:
                        if mask & chip_mask:
                            break
                    if stream_run:
                        total += stream_cost[hchip] + per_line_compute
                    else:
                        if chip != hchip:
                            key = (hchip, chip)
                            transfers[key] = transfers.get(key, 0) + 1
                        total += remote_cost[hchip] + per_line_compute
                    stream_run = True
                else:
                    cd += 1
                    line_now = now + total
                    bank = line % n_chips
                    controller = controllers[bank]
                    if line_now > controller.clock:
                        controller.demand *= _exp(
                            (controller.clock - line_now) / UTILISATION_TAU)
                        controller.clock = line_now
                    demand = controller.demand + controller.occupancy
                    controller.demand = demand
                    rho = demand / UTILISATION_TAU
                    if rho > UTILISATION_CAP:
                        rho = UTILISATION_CAP
                    queue_delay = int(
                        controller.occupancy * rho / (1.0 - rho) * 0.5)
                    controller.lines_served += 1
                    controller.queued_cycles += queue_delay
                    total += (queue_delay + (raw_stream if stream_run
                                             else raw_base)[bank]
                              + per_line_compute)
                    stream_run = True
                holders_map[line] = mask | core_bit
            # --- inlined insert cascade (pin-free variant) --------------
            l1d[line] = None
            n1 += 1
            if n1 <= l1_cap:
                continue
            e1 += 1
            n1 -= 1
            # Levels are exclusive: the L1 victim is never in L2.
            l2d[l1_pop(False)[0]] = None
            n2 += 1
            if n2 <= l2_cap:
                continue
            e2 += 1
            n2 -= 1
            victim2 = l2_pop(False)[0]
            mask = holders_map[victim2]
            holders_map[victim2] = (mask & not_core) | l3_bit
            if mask & l3_bit:
                l3_move(victim2)
                continue
            l3d[victim2] = None
            n3 += 1
            if n3 <= l3_cap:
                continue
            e3 += 1
            n3 -= 1
            victim3 = l3_pop(False)[0]
            mask = holders_map[victim3] & not_l3
            if mask:
                holders_map[victim3] = mask
            else:
                del holders_map[victim3]
            if publishing:
                bus.publish(CacheEvicted(line_now, core_id, "L3", victim3,
                                         self.op_obj[core_id]))
        if one_chip:
            ctrl.demand = ctl_demand
            ctrl.clock = ctl_clock
            ctrl.lines_served += ctl_lines
            ctrl.queued_cycles += ctl_queued
        counters.l1_hits += c1
        counters.l2_hits += c2
        counters.l3_hits += c3
        counters.remote_hits += cr
        counters.dram_loads += cd
        if e1:
            l1.evictions += e1
        if e2:
            l2.evictions += e2
        if e3:
            l3.evictions += e3
        counters.mem_cycles += total
        return total

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------

    def _load_line_fast(self, core_id: int, line: int, now: int,
                        sequential: bool) -> Tuple[int, int]:
        """Flattened :meth:`_load_line` for all-LRU cache hierarchies.

        Operates directly on the caches' ordered dicts and the directory's
        holder-mask dict — the lookup, the hit bookkeeping, and the full
        L1 -> L2 -> L3 victim cascade run inline with zero intermediate
        method calls.  Mutations are identical to the generic path, so the
        two produce byte-identical event streams.
        """
        l1d = self._l1ds[core_id]
        if line in l1d:
            l1d.move_to_end(line)
            self.counters[core_id].l1_hits += 1
            return self._res_l1
        (counters, l1, _, l1_cap, l2, l2d, l2_cap, l3, l3d, l3_cap,
         chip, l3_bit, core_bit) = self._core_state[core_id]
        holders_map = self._holders
        if line in l2d:
            counters.l2_hits += 1
            del l2d[line]
            if l2.pinned:
                l2.pinned.discard(line)
            result = self._res_l2
        else:
            # The L3 bit of the holder mask is set iff this chip's L3
            # holds the line, so one probe serves every lower level.
            mask = holders_map.get(line, 0)
            if mask & l3_bit:
                # AMD K10's non-inclusive L3: on a hit, keep the L3 copy
                # when the line is shared (other private holders exist),
                # so chip-shared data keeps serving at 75 cycles; hand it
                # over exclusively when this requester is the only
                # interested party, so single-reader data (CoreTime-
                # partitioned objects) does not burn capacity twice.
                counters.l3_hits += 1
                if mask != l3_bit:
                    l3d.move_to_end(line)
                else:
                    del l3d[line]
                    if l3.pinned:
                        l3.pinned.discard(line)
                    mask = 0
                result = self._res_l3
            elif mask:
                # Inlined _nearest_chip.
                for holder_chip, chip_mask in self._near[chip]:
                    if mask & chip_mask:
                        break
                counters.remote_hits += 1
                if sequential:
                    # A remote fetch continuing a sequential stream is
                    # prefetch-pipelined like a streamed DRAM read.
                    latency = self.interconnect.remote_stream_latency(
                        chip, holder_chip)
                else:
                    latency = self.interconnect.remote_cache_latency(
                        chip, holder_chip)
                # Read-sharing: the remote copy stays put; we replicate.
                result = (latency, SRC_REMOTE)
            else:
                counters.dram_loads += 1
                result = (self.dram.load(line, chip, now, sequential),
                          SRC_DRAM)
            holders_map[line] = mask | core_bit
        # --- inlined _insert_local over the flattened state ------------
        # L1 insert (MRU); the cascade below only runs on overflow.
        l1d[line] = None
        if len(l1d) <= l1_cap:
            return result
        if not l1.pinned:
            l1.evictions += 1
            victim = l1d.popitem(False)[0]
        else:
            victim = l1._evict()
        # L2 insert.  Levels are exclusive: the L1 victim is never in L2.
        l2d[victim] = None
        if len(l2d) <= l2_cap:
            return result
        if not l2.pinned:
            l2.evictions += 1
            victim2 = l2d.popitem(False)[0]
        else:
            victim2 = l2._evict()
        # Leaving the private hierarchy for the chip's shared L3.
        mask = holders_map[victim2]
        holders_map[victim2] = (mask & ~core_bit) | l3_bit
        if mask & l3_bit:
            l3d.move_to_end(victim2)
            return result
        l3d[victim2] = None
        if len(l3d) <= l3_cap:
            return result
        if not l3.pinned:
            l3.evictions += 1
            victim3 = l3d.popitem(False)[0]
        else:
            victim3 = l3._evict()
        # Clean drop: DRAM always has the data.
        mask = holders_map[victim3] & ~l3_bit
        if mask:
            holders_map[victim3] = mask
        else:
            del holders_map[victim3]
        bus = self._bus
        if bus is not None and bus.wants(CacheEvicted):
            bus.publish(CacheEvicted(now, core_id, "L3", victim3,
                                     self.op_obj[core_id]))
        return result

    def _load_line(self, core_id: int, line: int, now: int,
                   sequential: bool) -> Tuple[int, int]:
        """Load one line for ``core_id``; return (latency, source).

        Generic path, used when a custom ``cache_factory`` supplied
        non-LRU caches (the constructor rebinds ``self._load_line`` to
        :meth:`_load_line_fast` otherwise).
        """
        counters = self.counters[core_id]
        lat = self._lat
        l1 = self.l1s[core_id]
        if line in l1:
            l1.touch(line)
            counters.l1_hits += 1
            return lat.l1, SRC_L1
        l2 = self.l2s[core_id]
        if line in l2:
            counters.l2_hits += 1
            l2.remove(line)
            self._insert_local(core_id, line, now, already_held=True)
            return lat.l2, SRC_L2
        chip = self._chip_of[core_id]
        l3 = self.l3s[chip]
        if line in l3:
            # Same non-inclusive L3 hand-over rule as the fast path.
            counters.l3_hits += 1
            if self.directory.sharer_count(line) > 1:
                l3.touch(line)
            else:
                l3.remove(line)
                self.directory.discard(line, self.directory.l3_holder(chip))
            self._insert_local(core_id, line, now, already_held=False)
            return lat.l3, SRC_L3
        holder_chip = self._nearest_chip(line, chip)
        if holder_chip is not None:
            counters.remote_hits += 1
            if sequential:
                latency = self.interconnect.remote_stream_latency(
                    chip, holder_chip)
            else:
                latency = self.interconnect.remote_cache_latency(
                    chip, holder_chip)
            # Read-sharing: the remote copy stays put; we replicate.
            self._insert_local(core_id, line, now, already_held=False)
            return latency, SRC_REMOTE
        counters.dram_loads += 1
        latency = self.dram.load(line, chip, now, sequential)
        self._insert_local(core_id, line, now, already_held=False)
        return latency, SRC_DRAM

    def _nearest_chip(self, line: int, from_chip: int) -> Optional[int]:
        """Chip of the closest holder of ``line`` (ties to the lowest chip
        id), or None when no cache holds it."""
        mask = self._holders.get(line, 0)
        for chip, chip_mask in self._near[from_chip]:
            if mask & chip_mask:
                return chip
        return None

    def _insert_local(self, core_id: int, line: int, now: int,
                      already_held: bool) -> None:
        """Insert ``line`` at the core's L1, cascading victims downward."""
        directory = self.directory
        if not already_held:
            directory.add(line, core_id)
        victim = self.l1s[core_id].insert(line)
        if victim is None:
            return
        victim2 = self.l2s[core_id].insert(victim)
        if victim2 is None:
            return
        # Leaving the private hierarchy for the chip's shared L3.
        directory.discard(victim2, core_id)
        chip = self._chip_of[core_id]
        l3_holder = directory.l3_holder(chip)
        directory.add(victim2, l3_holder)
        victim3 = self.l3s[chip].insert(victim2)
        if victim3 is not None:
            # Clean drop: DRAM always has the data.
            directory.discard(victim3, l3_holder)
            bus = self._bus
            if bus is not None and bus.wants(CacheEvicted):
                bus.publish(CacheEvicted(now, core_id, "L3", victim3,
                                         self.op_obj[core_id]))

    def _drop_from_holder(self, line: int, holder: int) -> None:
        """Remove ``line`` from ``holder``'s caches and the directory."""
        if self.directory.is_l3_holder(holder):
            self.l3s[holder - self.directory.n_cores].remove(line)
        else:
            self.l1s[holder].remove(line)
            self.l2s[holder].remove(line)
        self.directory.discard(line, holder)

    # ------------------------------------------------------------------
    # maintenance / inspection
    # ------------------------------------------------------------------

    def flush_line(self, line: int) -> None:
        """Remove a line from every cache (test/maintenance helper)."""
        for holder in list(self.directory.holders(line)):
            self._drop_from_holder(line, holder)

    def flush_all(self) -> None:
        for cache in self.l1s + self.l2s + self.l3s:
            cache.clear()
        # Clear in place: the fast path holds a reference to the
        # directory's holder dict, so the directory object must survive.
        self.directory.clear()

    def holder_caches(self, holder: int) -> List[LRUCache]:
        """The concrete cache objects behind a directory holder id."""
        if self.directory.is_l3_holder(holder):
            return [self.l3s[holder - self.directory.n_cores]]
        return [self.l1s[holder], self.l2s[holder]]

    def where_is(self, addr: int) -> List[str]:
        """Human-readable locations of the line containing ``addr``."""
        line = addr // self.line_size
        names = []
        for core_id in range(self.spec.n_cores):
            if line in self.l1s[core_id]:
                names.append(f"L1.{core_id}")
            if line in self.l2s[core_id]:
                names.append(f"L2.{core_id}")
        for chip in range(self.spec.n_chips):
            if line in self.l3s[chip]:
                names.append(f"L3.{chip}")
        return names

    def check_invariants(self) -> None:
        """Verify directory/cache consistency (test helper; O(total lines)).

        Raises :class:`~repro.errors.ConfigError` on violation.
        """
        for cache in self.l1s + self.l2s + self.l3s:
            if len(cache) > cache.capacity:
                raise ConfigError(
                    f"cache {cache.cache_id}: {len(cache)} lines exceed "
                    f"capacity {cache.capacity}")
        seen = {}
        for core_id in range(self.spec.n_cores):
            for cache in (self.l1s[core_id], self.l2s[core_id]):
                for line in cache.lines():
                    holders = seen.setdefault(line, set())
                    holders.add(core_id)
        for chip in range(self.spec.n_chips):
            holder = self.directory.l3_holder(chip)
            for line in self.l3s[chip].lines():
                seen.setdefault(line, set()).add(holder)
        for core_id in range(self.spec.n_cores):
            l1, l2 = self.l1s[core_id], self.l2s[core_id]
            both = set(l1.lines()) & set(l2.lines())
            if both:
                raise ConfigError(
                    f"core {core_id}: lines in both L1 and L2: {both}")
        for line, holders in seen.items():
            recorded = set(self.directory.holders(line))
            if holders != recorded:
                raise ConfigError(
                    f"line {line}: caches say {holders}, "
                    f"directory says {recorded}")
        for line in self.directory.cached_lines():
            if line not in seen:
                raise ConfigError(f"line {line}: directory entry with no copy")
