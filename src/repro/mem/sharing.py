"""Global line-sharing directory (the coherence substrate).

Real AMD hardware locates remote copies with coherence broadcasts over the
square interconnect; we model the *outcome* of that protocol with a global
directory mapping each line to the set of holders that currently cache it.
The directory is how the simulator reproduces the two effects the paper
cares about:

* **replication** — a line read by many cores appears in many holder sets,
  consuming capacity in each (visible as shrinking effective on-chip data);
* **invalidation** — a store removes every remote copy, so read/write
  sharing generates interconnect traffic and subsequent remote misses.

Holder ids are small integers: ``0 .. n_cores-1`` identify the private
(L1+L2) hierarchy of each core, and ``n_cores + chip_id`` identifies a
chip's shared L3.  A line's holder set is stored as an int bitmask (bit
``h`` set iff holder ``h`` has a copy), so the memory system's fast paths
update it with bit operations rather than set method calls.  Only
:class:`repro.mem.system.MemorySystem` mutates the directory, keeping it
consistent with actual cache contents.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Tuple


def holder_ids(mask: int) -> FrozenSet[int]:
    """The holder ids whose bits are set in ``mask``."""
    return frozenset(h for h in range(mask.bit_length()) if mask >> h & 1)


class SharingDirectory:
    """Tracks, for every cached line, which holders have a copy."""

    __slots__ = ("n_cores", "_holders")

    def __init__(self, n_cores: int) -> None:
        self.n_cores = n_cores
        #: line -> holder bitmask; uncached lines have no entry.
        self._holders: Dict[int, int] = {}

    # -- holder-id helpers ------------------------------------------------

    def l3_holder(self, chip_id: int) -> int:
        """Holder id for a chip's shared L3."""
        return self.n_cores + chip_id

    def is_l3_holder(self, holder: int) -> bool:
        return holder >= self.n_cores

    # -- membership --------------------------------------------------------

    def add(self, line: int, holder: int) -> None:
        holders = self._holders
        holders[line] = holders.get(line, 0) | 1 << holder

    def discard(self, line: int, holder: int) -> None:
        holders = self._holders
        mask = holders.get(line, 0) & ~(1 << holder)
        if mask:
            holders[line] = mask
        else:
            holders.pop(line, None)

    def holders(self, line: int) -> FrozenSet[int]:
        """Immutable view of the holders of ``line`` (empty if uncached)."""
        return holder_ids(self._holders.get(line, 0))

    def sharer_count(self, line: int) -> int:
        return self._holders.get(line, 0).bit_count()

    def cached_lines(self) -> Iterable[int]:
        return self._holders.keys()

    def items(self) -> Iterator[Tuple[int, FrozenSet[int]]]:
        """(line, holder set) pairs — the invariant checker walks these
        to reconcile the directory against actual cache contents."""
        for line, mask in self._holders.items():
            yield line, holder_ids(mask)

    def clear(self) -> None:
        """Forget every holder, in place (keeps the dict's identity — the
        memory system's fast path holds a direct reference to it)."""
        self._holders.clear()

    def __len__(self) -> int:
        return len(self._holders)
