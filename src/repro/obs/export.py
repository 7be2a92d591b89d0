"""Exporters: Chrome trace-event JSON, JSONL dumps, ASCII timelines.

The Chrome trace loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``:

* one *process* per simulator run (streams are split on
  :class:`~repro.obs.events.RunMarker`), named after the scheduler;
* one *track* (thread row) per simulated core;
* completed operations as ``X`` (complete) slices with their duration;
* migrations as flow arrows (``s``/``f`` pairs) from the departing core's
  track to the arriving one, plus instant markers;
* scheduler-level events (assignments, rebalance rounds) on a dedicated
  ``scheduler`` track.

Timestamps are simulated *cycles* reported as microseconds (1 cycle =
1 us in the UI); relative durations — the thing a trace viewer is for —
are exact.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from itertools import islice
from typing import (Any, BinaryIO, Dict, Iterable, List, Optional, Sequence,
                    TextIO)

from repro.obs.events import (CacheEvicted, CacheInvalidated, Event,
                              LockContended, MigrationStarted,
                              ObjectAssigned, ObjectMoved,
                              OperationFinished, RebalanceRound, RunMarker,
                              ThreadArrived, ThreadFinished, ThreadSpawned,
                              encode_event)

#: ``tid`` of the per-process scheduler track (cores use their own ids).
SCHEDULER_TRACK = 10_000

#: Version of the JSONL event-stream schema.  Bump when an event gains,
#: loses or renames a field, or when a new event kind is added (older
#: analyzers refuse unknown kinds); the offline analyzer
#: (:mod:`repro.obs.profile`) refuses streams newer than it understands.
#: Version 1 streams (PR 1) had no meta line and no attribution fields;
#: version 2 added the attribution fields; version 3 added the
#: verification-layer kinds (``fault``, ``invariant``); version 4 added
#: the sweep-orchestration kinds (``sweep_start``, ``sweep_end``,
#: ``sweep_fail``); version 5 added the distributed-sweep kinds
#: (``worker_join``, ``worker_lost``, ``lease_expired``).
SCHEMA_VERSION = 5

#: zlib level of every gzip file this package writes.  ``GzipFile``'s
#: default (9) spends ~5x the compression time of level 6 on event
#: recordings for ~10% fewer bytes (DESIGN.md §12).  Fixed, so gzip
#: output stays byte-reproducible.
GZIP_LEVEL = 6


class _GzipMember(gzip.GzipFile):
    """Write-only gzip member with a pinned (zero) mtime and level.

    ``gzip.open(..., "w")`` stamps the current time (and file name) into
    the member header, which would break the byte-reproducibility
    contract of :func:`jsonl_meta_line`; this member pins ``mtime=0``,
    writes no name, and closes the underlying file (``GzipFile``
    deliberately leaves a passed-in file open).
    """

    def __init__(self, path: str) -> None:
        self._raw_file = open(path, "wb")
        super().__init__(filename="", fileobj=self._raw_file, mode="wb",
                         compresslevel=GZIP_LEVEL, mtime=0)

    def close(self) -> None:
        try:
            super().close()          # flush the gzip trailer
        finally:
            self._raw_file.close()


def open_text(path: str, mode: str = "r") -> TextIO:
    """Open ``path`` as text; ``.gz`` suffixes gzip transparently.

    Reading accepts multi-member archives (``cat a.gz b.gz`` of two
    shards is a valid recording); writing produces deterministic bytes
    (see :class:`_GzipMember`) so gzip recordings stay reproducible.
    Only ``"r"`` and ``"w"`` modes are supported for gzip targets.
    """
    if not str(path).endswith(".gz"):
        return open(path, mode, encoding="utf-8")
    if "r" in mode:
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return io.TextIOWrapper(_GzipMember(path), encoding="utf-8",
                            newline="")


def chrome_trace(events: Sequence[Event],
                 default_label: str = "run") -> Dict[str, Any]:
    """Build a Chrome trace-event document from an event stream."""
    trace_events: List[Dict[str, Any]] = []
    processes: List[str] = []
    tracks_seen = set()
    flow_id = 0

    def ensure_process(label: str) -> int:
        pid = len(processes)
        processes.append(label)
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"{pid}:{label}"}})
        return pid

    def ensure_track(pid: int, tid: int) -> None:
        if (pid, tid) in tracks_seen:
            return
        tracks_seen.add((pid, tid))
        name = "scheduler" if tid == SCHEDULER_TRACK else f"core {tid}"
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": name}})

    pid: Optional[int] = None
    for event in events:
        etype = type(event)
        if etype is RunMarker:
            pid = ensure_process(event.label)
            continue
        if pid is None:
            pid = ensure_process(default_label)
        if etype is OperationFinished:
            ensure_track(pid, event.core)
            trace_events.append({
                "ph": "X", "name": event.obj, "cat": "op",
                "ts": event.ts - event.cycles, "dur": event.cycles,
                "pid": pid, "tid": event.core,
                "args": {"thread": event.thread}})
        elif etype is MigrationStarted:
            ensure_track(pid, event.core)
            ensure_track(pid, event.target)
            flow_id += 1
            common = {"cat": "migration", "name": "migrate",
                      "id": flow_id, "pid": pid}
            trace_events.append(dict(common, ph="s", ts=event.ts,
                                     tid=event.core,
                                     args={"thread": event.thread,
                                           "to": event.target}))
            trace_events.append(dict(common, ph="f", bp="e",
                                     ts=event.arrive_ts, tid=event.target,
                                     args={"thread": event.thread,
                                           "from": event.core}))
            trace_events.append({
                "ph": "i", "name": f"out:{event.thread}",
                "cat": "migration", "s": "t", "ts": event.ts, "pid": pid,
                "tid": event.core, "args": {"to": event.target}})
        elif etype in (ThreadSpawned, ThreadFinished, ThreadArrived,
                       LockContended):
            ensure_track(pid, event.core)
            trace_events.append({
                "ph": "i", "name": f"{event.kind}:{event.thread}",
                "cat": "thread", "s": "t", "ts": event.ts, "pid": pid,
                "tid": event.core, "args": {}})
        elif etype in (ObjectAssigned, ObjectMoved, RebalanceRound):
            ensure_track(pid, SCHEDULER_TRACK)
            args = {key: value for key, value in event.as_dict().items()
                    if key not in ("ts",)}
            trace_events.append({
                "ph": "i", "name": event.kind, "cat": "scheduler",
                "s": "p", "ts": event.ts, "pid": pid,
                "tid": SCHEDULER_TRACK, "args": args})
        elif etype in (CacheEvicted, CacheInvalidated):
            ensure_track(pid, event.core)
            trace_events.append({
                "ph": "i", "name": event.kind, "cat": "memory", "s": "t",
                "ts": event.ts, "pid": pid, "tid": event.core,
                "args": {key: value
                         for key, value in event.as_dict().items()
                         if key not in ("ts", "core", "kind")}})
        # Unknown event types are simply not exported.
    # Stable per-track time order (metadata rows lead each track).
    trace_events.sort(key=lambda entry: (
        entry["pid"], 0 if entry["ph"] == "M" else 1,
        entry["tid"] if entry["ph"] != "M" else -1,
        entry.get("ts", 0)))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs",
                      "runs": processes,
                      "time_unit": "1 simulated cycle = 1us"},
    }


def write_chrome_trace(path: str, events: Sequence[Event],
                       default_label: str = "run") -> str:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    document = chrome_trace(events, default_label)
    with open_text(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def jsonl_meta_line() -> str:
    """The header record every JSONL dump starts with.

    Deterministic on purpose (no timestamps, no hostnames): two runs with
    the same seed must produce byte-identical streams.
    """
    return json.dumps({"kind": "meta", "schema_version": SCHEMA_VERSION,
                       "source": "repro.obs"},
                      separators=(",", ":"), sort_keys=True)


class JsonlWriter:
    """Streaming JSONL recording writer; ``.gz`` paths are gzipped.

    The one write path for recordings: the :func:`jsonl_meta_line`
    header, then one :func:`~repro.obs.events.encode_event` line per
    event.  :meth:`write` may be called repeatedly (shard recorders
    append case by case); lines are joined and written in chunks of
    :attr:`CHUNK` events, so memory stays bounded for any stream length.
    """

    #: Events encoded per ``write`` call on the underlying file.
    CHUNK = 4096

    def __init__(self, path: str) -> None:
        self._out: BinaryIO = (_GzipMember(path) if str(path).endswith(".gz")
                               else open(path, "wb"))
        self._out.write(jsonl_meta_line().encode() + b"\n")

    def write(self, events: Iterable[Event]) -> None:
        iterator = iter(events)
        while True:
            lines = list(map(encode_event, islice(iterator, self.CHUNK)))
            if not lines:
                return
            lines.append("")
            self._out.write("\n".join(lines).encode())

    def close(self) -> None:
        self._out.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def events_to_jsonl(events: Iterable[Event]) -> str:
    """One compact JSON object per line, in stream order.

    The first line is a ``meta`` record carrying :data:`SCHEMA_VERSION`;
    every following line is one event's
    :func:`~repro.obs.events.encode_event` form.
    """
    lines = [jsonl_meta_line()]
    lines.extend(map(encode_event, events))
    return "\n".join(lines)


def write_jsonl(path: str, events: Iterable[Event]) -> str:
    """Write a JSONL recording; ``.jsonl.gz`` paths are gzipped.

    Streams ``events`` (a generator of any length is fine) through a
    :class:`JsonlWriter`; the uncompressed bytes are ``events_to_jsonl``
    plus a trailing newline.  The recording is written to a sibling
    temporary file and renamed over ``path`` only once complete, so a
    failure partway through (an event that cannot be encoded) leaves no
    well-formed but truncated recording behind.
    """
    head, tail = os.path.split(str(path))
    # Keep the .gz suffix: JsonlWriter picks gzip from the file name.
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp"
                       + (".gz" if tail.endswith(".gz") else ""))
    try:
        with JsonlWriter(tmp) as writer:
            writer.write(events)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


# ---------------------------------------------------------------------------
# ASCII timeline
# ---------------------------------------------------------------------------

#: Density ramp for operations completed per time bucket.
_RAMP = " .:-=+*#@"


def ascii_timeline(events: Sequence[Event], n_cores: Optional[int] = None,
                   width: int = 72) -> str:
    """Per-core activity strip chart for terminals.

    Each column is a time bucket; the glyph encodes how many operations
    finished on that core in the bucket, and ``M`` flags a bucket where
    the core handed a thread away (migration out dominates the glyph so
    scheduler activity stands out).
    """
    ops = [e for e in events if type(e) is OperationFinished]
    migrations = [e for e in events if type(e) is MigrationStarted]
    if not ops and not migrations:
        return "(no operations recorded)"
    horizon = max(e.ts for e in ops + migrations)
    if n_cores is None:
        n_cores = 1 + max(e.core for e in ops + migrations)
    width = max(8, width)
    bucket = max(1, -(-horizon // width))          # ceil division
    op_counts = [[0] * width for _ in range(n_cores)]
    migrated = [[False] * width for _ in range(n_cores)]
    for event in ops:
        if event.core < n_cores:
            op_counts[event.core][min(width - 1, event.ts // bucket)] += 1
    for event in migrations:
        if event.core < n_cores:
            migrated[event.core][min(width - 1, event.ts // bucket)] = True
    peak = max((max(row) for row in op_counts), default=0)
    lines = [f"ops/bucket timeline  (bucket = {bucket:,} cycles, "
             f"peak = {peak} ops)"]
    for core_id in range(n_cores):
        row = []
        for index in range(width):
            if migrated[core_id][index]:
                row.append("M")
            elif peak:
                level = op_counts[core_id][index] * (len(_RAMP) - 1)
                row.append(_RAMP[-(-level // peak) if level else 0])
            else:
                row.append(" ")
        lines.append(f"core {core_id:>3} |{''.join(row)}|")
    lines.append(f"         0{'cycles'.center(width - 1)}{horizon:,}")
    return "\n".join(lines)
