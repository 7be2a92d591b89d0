"""FAT directory entries and directory handles.

A directory is the paper's *object*: a cluster chain holding 32-byte
entries that a lookup linearly scans.  :class:`DirEntry` is the on-disk
entry codec; :class:`FatDirectory` is the in-memory handle the file system
and the workloads use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.errors import FilesystemError
from repro.fs.fat import DIR_ENTRY_SIZE, FatImage
from repro.fs.names import decode_name, encode_name

#: Attribute flags (subset of the FAT spec).
ATTR_DIRECTORY = 0x10
ATTR_ARCHIVE = 0x20

_ENTRY_STRUCT = struct.Struct("<11sB10xHHHI")
assert _ENTRY_STRUCT.size == DIR_ENTRY_SIZE


@dataclass(frozen=True)
class DirEntry:
    """One decoded 32-byte directory entry."""

    name: str
    attributes: int
    first_cluster: int
    size: int

    @property
    def is_directory(self) -> bool:
        return bool(self.attributes & ATTR_DIRECTORY)

    def encode(self) -> bytes:
        return _ENTRY_STRUCT.pack(encode_name(self.name), self.attributes,
                                  0, 0, self.first_cluster, self.size)

    @classmethod
    def decode(cls, raw: bytes) -> Optional["DirEntry"]:
        """Decode an entry; None for a never-used slot (name[0] == 0)."""
        if len(raw) != DIR_ENTRY_SIZE:
            raise FilesystemError(
                f"directory entry must be {DIR_ENTRY_SIZE} bytes")
        if raw[0] == 0:
            return None
        name, attributes, _, _, first_cluster, size = _ENTRY_STRUCT.unpack(raw)
        return cls(decode_name(name), attributes, first_cluster, size)


def cluster_slots(image: FatImage, clusters: List[int]) -> List[int]:
    """Image offsets of the entry slots in ``clusters``, in chain order."""
    return [image.cluster_offset(cluster) + position
            for cluster in clusters
            for position in range(0, image.params.cluster_bytes,
                                  DIR_ENTRY_SIZE)]


class FatDirectory:
    """Handle on one directory's cluster chain inside an image."""

    def __init__(self, image: FatImage, name: str, first_cluster: int,
                 capacity_entries: int) -> None:
        self.image = image
        self.name = name
        self.first_cluster = first_cluster
        self.capacity_entries = capacity_entries
        self.n_entries = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    def extents(self) -> List[tuple]:
        """Contiguous (image_offset, nbytes) runs of this directory."""
        return self.image.chain_extents(self.first_cluster)

    @property
    def bytes_used(self) -> int:
        return self.n_entries * DIR_ENTRY_SIZE

    def slot_offsets(self) -> List[int]:
        """Image offsets of the entry slots in index order (at most
        ``capacity_entries``), from one walk of the cluster chain."""
        clusters = self.image.chain(self.first_cluster)
        return cluster_slots(self.image, clusters)[:self.capacity_entries]

    def entry_offset(self, index: int) -> int:
        """Image offset of entry ``index`` (walking the chain)."""
        if not 0 <= index < self.capacity_entries:
            raise FilesystemError(
                f"{self.name}: entry {index} out of range")
        slots = self.slot_offsets()
        if index >= len(slots):
            raise FilesystemError(f"{self.name}: chain shorter than capacity")
        return slots[index]

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------

    def append(self, entry: DirEntry) -> int:
        """Write ``entry`` into the next free slot; returns its index."""
        self.extend((entry,))
        return self.n_entries - 1

    def extend(self, entries: Iterable[DirEntry]) -> None:
        """Append ``entries`` in order, walking the cluster chain once."""
        slots = self.slot_offsets()
        for entry in entries:
            if self.n_entries >= self.capacity_entries:
                raise FilesystemError(f"directory {self.name} is full")
            if self.n_entries >= len(slots):
                raise FilesystemError(
                    f"{self.name}: chain shorter than capacity")
            self.image.write(slots[self.n_entries], entry.encode())
            self.n_entries += 1

    def entries(self) -> Iterator[Optional[DirEntry]]:
        """Decode the used entries in index order (None for a free slot),
        walking the cluster chain once."""
        slots = self.slot_offsets()
        if len(slots) < self.n_entries:
            raise FilesystemError(f"{self.name}: chain shorter than capacity")
        read = self.image.read
        for offset in slots[:self.n_entries]:
            yield DirEntry.decode(read(offset, DIR_ENTRY_SIZE))

    def search(self, name: str) -> Optional[tuple]:
        """Linear scan for ``name``; returns (index, entry) or None.

        This is the byte-accurate reference search — the inner loop the
        paper's benchmark stresses.  The simulation adapter charges
        memory costs for exactly the bytes this walk touches.
        """
        wanted = encode_name(name)
        read = self.image.read
        for index, offset in enumerate(self.slot_offsets()[:self.n_entries]):
            raw = read(offset, DIR_ENTRY_SIZE)
            if raw[:11] == wanted:
                return index, DirEntry.decode(raw)
        return None

    def __repr__(self) -> str:
        return (f"FatDirectory({self.name}, cluster={self.first_cluster}, "
                f"{self.n_entries}/{self.capacity_entries} entries)")
