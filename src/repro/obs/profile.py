"""Offline performance attribution over recorded event streams.

The paper's §4 story is that event counters *explain* performance:
misses are attributed to the object being manipulated, and per-core
counters reveal overloaded cores and overpacked caches.  The online
:class:`~repro.core.monitor.Monitor` consumes those signals live; the
offline analyzer reproduces the same explanations from the JSONL event
streams :mod:`repro.obs` exports, so a recorded run can be profiled,
compared and regression-gated long after the simulator is gone.

This module holds the ingest (JSONL -> typed events), the per-run
split, the A/B diff and the folded-stack output; the attribution itself
lives in the reducers of :mod:`repro.obs.stream`::

    for event in iter_jsonl("fig2.events.jsonl"):  # typed events again
        profile.feed(event)                         # stream.Profile
    print(profile.render())                         # one section per run
    print(render_diff(diff_streams(base.events, cand.events)))

Everything here is strictly off the hot path: the simulator never
imports this module, so profiling adds zero overhead to a run that does
not ask for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Union)

from repro.analysis import SampleStats, summarise
from repro.errors import ProfileError
from repro.obs.events import (EVENT_KINDS, CacheEvicted, CacheInvalidated,
                              Event, EventCodec, LockContended,
                              MigrationStarted, OperationFinished, RunMarker,
                              codec_for)
from repro.obs.export import SCHEMA_VERSION, open_text

if TYPE_CHECKING:
    from repro.obs.stream import RunProfile

__all__ = [
    "Recording", "Run", "StreamSummary", "MetricDelta", "EventDecoder",
    "load_jsonl", "parse_jsonl", "iter_jsonl", "split_runs",
    "folded_stacks", "summarise_stream", "diff_streams", "render_diff",
    "diff_metrics",
]


# ---------------------------------------------------------------------------
# ingest: JSONL -> typed events
# ---------------------------------------------------------------------------

@dataclass
class Recording:
    """One parsed JSONL stream."""

    schema_version: int
    events: List[Event]


#: Shared stdlib decoder: :meth:`json.JSONDecoder.raw_decode` skips
#: ``json.loads``'s per-call argument handling on the hot ingest path.
_JSON = json.JSONDecoder()


class EventDecoder:
    """Incremental JSONL/dict -> typed-event decoder.

    One decoder carries the stream's schema state (the ``meta`` header)
    across lines, so both the batch loader and the generator-based
    streaming ingest share identical validation.  Error messages are
    prefixed with ``source`` when given — with ``repro-analyze merge``
    taking many shard files, a bare ``line N`` is ambiguous.

    Repeated ``meta`` lines are accepted mid-stream: concatenated shard
    recordings (``cat a.jsonl.gz b.jsonl.gz``) are valid streams.

    :meth:`decode` has a fast path for the common case, a mapping whose
    keys are exactly its kind's fields: such a line is valid under every
    schema, so it is built straight through the kind's
    :class:`~repro.obs.events.EventCodec`.  Anything else takes
    :meth:`_decode_slow`, which validates and raises
    :class:`~repro.errors.ProfileError` with the location.
    """

    def __init__(self, source: Optional[str] = None) -> None:
        self.source = source
        self.schema = 1          # headerless = legacy
        self.saw_meta = False
        #: kind -> codec, filled by the slow path on a kind's first
        #: record, so only kinds the stream carries are compiled.
        self._codecs: Dict[str, EventCodec] = {}

    def _error(self, where: Union[int, str], message: str) -> ProfileError:
        prefix = f"{self.source}: " if self.source else ""
        if isinstance(where, int):
            where = f"line {where}"
        return ProfileError(f"{prefix}{where}: {message}")

    def decode_line(self, raw: str, lineno: int) -> Optional[Event]:
        """Decode one text line; None for blanks and ``meta`` headers."""
        try:
            data, end = _JSON.raw_decode(raw)
            whole = end == len(raw) or raw[end:].isspace()
        except ValueError:
            whole = False
        if not whole:
            # Leading blanks, blank lines and malformed JSON: redo the
            # line the strict way for the exact error message.
            line = raw.strip()
            if not line:
                return None
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise self._error(lineno, f"not valid JSON: {exc}")
        return self.decode(data, lineno)

    def decode(self, data: Dict[str, Any],
               where: Union[int, str] = "event") -> Optional[Event]:
        """Decode one ``as_dict``-shaped mapping; None for ``meta``.

        ``where`` locates the record in errors: an int is a line number.
        """
        try:
            codec = self._codecs.get(data["kind"])
        except (KeyError, TypeError):
            codec = None
        if codec is not None and data.keys() == codec.keys:
            return codec.build(data)
        return self._decode_slow(data, where)

    def _decode_slow(self, data: Any,
                     where: Union[int, str]) -> Optional[Event]:
        """Validating decode; returns what :meth:`decode` would."""
        if not isinstance(data, dict) or "kind" not in data:
            raise self._error(
                where, "expected an object with a 'kind' field")
        kind = data["kind"]
        if kind == "meta":
            version = data.get("schema_version")
            if (not isinstance(version, int) or isinstance(version, bool)
                    or version < 1):
                raise self._error(
                    where, f"bad schema_version {version!r}")
            if version > SCHEMA_VERSION:
                raise self._error(
                    where, f"stream schema version {version} is "
                    f"newer than this analyzer ({SCHEMA_VERSION}); "
                    "upgrade repro")
            self.schema = version
            self.saw_meta = True
            return None
        cls = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise self._error(where, f"unknown event kind {kind!r}")
        codec = self._codecs[kind] = codec_for(cls)
        missing = codec.keys.difference(data)
        extra = data.keys() - codec.keys
        if extra:
            raise self._error(
                where, f"{kind} carries unknown fields {sorted(extra)}")
        if missing and (self.schema >= SCHEMA_VERSION or self.saw_meta):
            raise self._error(
                where, f"{kind} is missing fields {sorted(missing)}")
        # Legacy (headerless) streams lack newer fields: None-fill them.
        return codec.build({**dict.fromkeys(missing), **data})


def parse_jsonl(lines: Iterable[str],
                source: Optional[str] = None) -> Recording:
    """Reconstruct typed events from JSONL text lines.

    Validates the ``meta`` header's ``schema_version`` (streams newer
    than :data:`~repro.obs.export.SCHEMA_VERSION` are refused) and that
    every event line carries exactly the fields its kind declares.
    Streams without a header — PR 1's exporter predates it — are read as
    schema version 1, where the attribution fields introduced in
    version 2 are absent and default to None.
    """
    decoder = EventDecoder(source=source)
    events: List[Event] = []
    for lineno, raw in enumerate(lines, 1):
        event = decoder.decode_line(raw, lineno)
        if event is not None:
            events.append(event)
    return Recording(schema_version=decoder.schema, events=events)


def load_jsonl(path: str) -> Recording:
    """Parse a JSONL file written by ``Observability.write_jsonl``.

    ``.jsonl.gz`` recordings are opened transparently; parse errors name
    the file.
    """
    with open_text(path, "r") as handle:
        return parse_jsonl(handle, source=path)


def iter_jsonl(path: str) -> Iterator[Event]:
    """Stream a recording one event at a time (out-of-core ingest).

    A generator over the same validation as :func:`load_jsonl` that
    never holds more than one event, so multi-GB fleet recordings
    (plain or ``.gz``) can feed :class:`repro.obs.stream.StreamProfiler`
    at constant memory.
    """
    decoder = EventDecoder(source=path)
    with open_text(path, "r") as handle:
        for lineno, raw in enumerate(handle, 1):
            event = decoder.decode_line(raw, lineno)
            if event is not None:
                yield event


@dataclass
class Run:
    """One simulator run's slice of an event stream."""

    label: str
    events: List[Event]


def split_runs(events: Sequence[Event]) -> List[Run]:
    """Split a stream on :class:`RunMarker` into per-simulator runs.

    Events before the first marker (streams recorded without one) become
    a run labelled ``"run"``.  Labels repeat as recorded; callers that
    need unique names should add the index themselves.
    """
    runs: List[Run] = []
    current: Optional[Run] = None
    for event in events:
        if type(event) is RunMarker:
            current = Run(event.label, [])
            runs.append(current)
            continue
        if current is None:
            current = Run("run", [])
            runs.append(current)
        current.events.append(event)
    return runs


# ---------------------------------------------------------------------------
# folded stacks (speedscope / flamegraph.pl)
# ---------------------------------------------------------------------------

def folded_stacks(section: "RunProfile") -> List[str]:
    """``workload;object;phase cycles`` lines for flame-graph tools.

    One line per object and phase of the run ``section`` profiles,
    labelled with its display label.  Phases per object: ``compute``
    (cycles minus attributed stalls), ``mem-stall``, ``lock-spin``,
    ``migration``, and ``unattributed`` for operations whose deltas
    were lost to a mid-flight migration.  Load the output with
    speedscope (https://speedscope.app) or pipe it through
    ``flamegraph.pl``.
    """
    label = section.display_label
    lines: List[str] = []
    for cost in section.objects.result():
        attributed_cycles = 0
        if cost.attributed_ops and cost.ops:
            # Deltas cover only attributed ops; scale busy cycles by the
            # attributed share so phases never exceed measured cycles.
            attributed_cycles = round(
                cost.cycles * cost.attributed_ops / cost.ops)
        stalls = min(attributed_cycles,
                     cost.mem_stall_cycles + cost.spin_cycles)
        compute = max(0, attributed_cycles - stalls)
        unattributed = max(0, cost.cycles - attributed_cycles)
        phases = (("compute", compute),
                  ("mem-stall", cost.mem_stall_cycles),
                  ("lock-spin", cost.spin_cycles),
                  ("migration", cost.migration_cycles),
                  ("unattributed", unattributed))
        for phase, cycles in phases:
            if cycles > 0:
                lines.append(f"{label};{cost.name};{phase} {cycles}")
    return lines


# ---------------------------------------------------------------------------
# stream summary & diff
# ---------------------------------------------------------------------------

@dataclass
class StreamSummary:
    """Per-metric samples and counts for one recording (diff fodder)."""

    label: str
    horizon: int
    ops: int
    migrations: int
    migration_cycles: int
    lock_contended: int
    evictions: int
    invalidations: int
    op_cycles: List[int]
    op_dram: List[int]
    op_remote: List[int]
    op_mem_stall: List[int]
    op_spin: List[int]


def summarise_stream(events: Sequence[Event],
                     label: str = "run") -> StreamSummary:
    """Collect the per-operation samples and counts a diff compares."""
    op_cycles: List[int] = []
    op_dram: List[int] = []
    op_remote: List[int] = []
    op_mem: List[int] = []
    op_spin: List[int] = []
    migrations = migration_cycles = lock_contended = 0
    evictions = invalidations = horizon = 0
    for event in events:
        etype = type(event)
        if event.ts > horizon:
            horizon = event.ts
        if etype is OperationFinished:
            op_cycles.append(event.cycles)
            if event.dram is not None:
                op_dram.append(event.dram)
                op_remote.append(event.remote)
                op_mem.append(event.mem_stall)
                op_spin.append(event.spin)
        elif etype is MigrationStarted:
            migrations += 1
            migration_cycles += event.arrive_ts - event.ts
            # a migration's horizon is its landing
            if event.arrive_ts > horizon:
                horizon = event.arrive_ts
        elif etype is LockContended:
            lock_contended += 1
        elif etype is CacheEvicted:
            evictions += 1
        elif etype is CacheInvalidated:
            invalidations += event.copies
    return StreamSummary(
        label=label, horizon=horizon, ops=len(op_cycles),
        migrations=migrations, migration_cycles=migration_cycles,
        lock_contended=lock_contended, evictions=evictions,
        invalidations=invalidations, op_cycles=op_cycles, op_dram=op_dram,
        op_remote=op_remote, op_mem_stall=op_mem, op_spin=op_spin)


@dataclass
class MetricDelta:
    """One metric's baseline/candidate comparison."""

    name: str
    baseline: Optional[SampleStats]
    candidate: Optional[SampleStats]
    #: Plain values for count metrics (no per-sample distribution).
    baseline_value: Optional[float] = None
    candidate_value: Optional[float] = None

    @property
    def sampled(self) -> bool:
        return self.baseline is not None and self.candidate is not None

    @property
    def delta(self) -> float:
        if self.sampled:
            return self.candidate.mean - self.baseline.mean
        return (self.candidate_value or 0.0) - (self.baseline_value or 0.0)

    @property
    def delta_pct(self) -> Optional[float]:
        base = (self.baseline.mean if self.sampled
                else self.baseline_value)
        if not base:
            return None
        return 100.0 * self.delta / base

    @property
    def ci95(self) -> Optional[float]:
        """95% half-width of the delta (independent-samples normal
        approximation); None for count metrics."""
        if not self.sampled:
            return None
        se = (self.baseline.stderr ** 2
              + self.candidate.stderr ** 2) ** 0.5
        return 1.96 * se

    @property
    def significant(self) -> Optional[bool]:
        ci = self.ci95
        if ci is None:
            return None
        return abs(self.delta) > ci


def _sample_delta(name: str, base: List[int],
                  cand: List[int]) -> Optional[MetricDelta]:
    if not base or not cand:
        return None
    return MetricDelta(name, summarise(base), summarise(cand))


def diff_streams(baseline: Sequence[Event], candidate: Sequence[Event],
                 baseline_label: str = "baseline",
                 candidate_label: str = "candidate") -> List[MetricDelta]:
    """Per-metric deltas between two recordings, CI-qualified.

    Sample metrics (per-operation distributions) carry
    :class:`~repro.analysis.SampleStats` confidence intervals so a
    scheduler A/B — or a bench-regression gate — can tell signal from
    seed noise; count metrics report plain deltas.
    """
    base = summarise_stream(baseline, baseline_label)
    cand = summarise_stream(candidate, candidate_label)
    deltas: List[MetricDelta] = []
    for name, bvals, cvals in (
            ("op latency (cycles/op)", base.op_cycles, cand.op_cycles),
            ("dram loads/op", base.op_dram, cand.op_dram),
            ("remote hits/op", base.op_remote, cand.op_remote),
            ("mem-stall (cycles/op)", base.op_mem_stall, cand.op_mem_stall),
            ("lock-spin (cycles/op)", base.op_spin, cand.op_spin)):
        delta = _sample_delta(name, bvals, cvals)
        if delta is not None:
            deltas.append(delta)
    for name, bval, cval in (
            ("ops", base.ops, cand.ops),
            ("migrations", base.migrations, cand.migrations),
            ("migration cycles", base.migration_cycles,
             cand.migration_cycles),
            ("contended lock acquires", base.lock_contended,
             cand.lock_contended),
            ("L3 evictions", base.evictions, cand.evictions),
            ("invalidated copies", base.invalidations,
             cand.invalidations),
            ("horizon (cycles)", base.horizon, cand.horizon)):
        if bval or cval:
            deltas.append(MetricDelta(name, None, None,
                                      float(bval), float(cval)))
    return deltas


def diff_metrics(baseline: Dict[str, Any],
                 candidate: Dict[str, Any]) -> List[MetricDelta]:
    """Deltas between two metrics-registry snapshots (JSON dicts).

    Scalar instruments compare directly; histogram summaries compare by
    their mean.  Metrics present on only one side are skipped.
    """
    deltas: List[MetricDelta] = []
    for name in sorted(set(baseline) & set(candidate)):
        bval, cval = baseline[name], candidate[name]
        if isinstance(bval, dict):
            bval, cval = bval.get("mean"), (cval or {}).get("mean")
            name = f"{name}.mean"
        if isinstance(bval, (int, float)) and isinstance(cval, (int, float)):
            deltas.append(MetricDelta(name, None, None,
                                      float(bval), float(cval)))
    return deltas


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_diff(deltas: Sequence[MetricDelta]) -> str:
    """Diff table; sampled metrics carry ±CI95 and a significance flag."""
    if not deltas:
        return "(no comparable metrics)"
    rows = []
    for delta in deltas:
        if delta.sampled:
            base = (f"{delta.baseline.mean:,.1f}"
                    f"±{1.96 * delta.baseline.stderr:,.1f}")
            cand = (f"{delta.candidate.mean:,.1f}"
                    f"±{1.96 * delta.candidate.stderr:,.1f}")
            verdict = ("significant" if delta.significant
                       else "within noise")
            change = f"{delta.delta:+,.1f} ± {delta.ci95:,.1f}"
        else:
            base = f"{delta.baseline_value:,.0f}"
            cand = f"{delta.candidate_value:,.0f}"
            verdict = ""
            change = f"{delta.delta:+,.0f}"
        pct = delta.delta_pct
        change += f" ({pct:+.1f}%)" if pct is not None else ""
        rows.append([delta.name, base, cand, change, verdict])
    return _table(["metric", "baseline", "candidate", "delta", ""], rows)
