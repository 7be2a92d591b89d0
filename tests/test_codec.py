"""Tests for the JSONL event codec (repro.obs.events.EventCodec).

Every recording writer and reader goes through one codec; these tests
pin it to the reference form ``json.dumps(as_dict, sort_keys=True,
separators=(",", ":"))``, pin the decoder's fast path to its validating
slow path, and pin the bytes of a real recording.
"""

import gzip
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (CoreTimeConfig, CoreTimeScheduler, DirectoryLookupWorkload,
                   DirWorkloadSpec, Machine, Observability, Simulator)
from repro.errors import ProfileError
from repro.obs.cli import main as analyze_main
from repro.obs.events import (EVENT_KINDS, OperationFinished, ThreadSpawned,
                              encode_event)
from repro.obs.export import SCHEMA_VERSION, events_to_jsonl, write_jsonl
from repro.obs.profile import EventDecoder, iter_jsonl, parse_jsonl
from repro.obs.stream import ShardRecorder

from tests.helpers import tiny_spec


def reference(event):
    return json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":"))


def make(cls, values):
    event = object.__new__(cls)
    for name, value in zip(cls.FIELDS, values):
        setattr(event, name, value)
    return event


def has_nan(event):
    return any(isinstance(value, float) and math.isnan(value)
               for value in event.as_dict().values())


#: Field values the codec must format exactly as the stdlib does.
ADVERSARIAL_TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ",
                     "\ud800", "{}", "'", "\n\t\r", "日本"]))
VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.integers(min_value=2**63, max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    ADVERSARIAL_TEXT)


@st.composite
def events(draw):
    cls = EVENT_KINDS[draw(st.sampled_from(sorted(EVENT_KINDS)))]
    values = draw(st.lists(VALUES, min_size=len(cls.FIELDS),
                           max_size=len(cls.FIELDS)))
    return make(cls, values)


class TestEncode:
    @settings(max_examples=400, deadline=None)
    @given(events())
    def test_matches_stdlib_form(self, event):
        assert encode_event(event) == reference(event)

    @settings(max_examples=300, deadline=None)
    @given(events())
    def test_round_trip(self, event):
        line = encode_event(event)
        decoded = EventDecoder().decode_line(line, 1)
        assert type(decoded) is type(event)
        assert encode_event(decoded) == line
        if not has_nan(event):
            assert decoded == event

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_every_kind_sorted_and_complete(self, kind):
        cls = EVENT_KINDS[kind]
        event = make(cls, range(len(cls.FIELDS)))
        data = json.loads(encode_event(event))
        assert list(data) == sorted(cls.FIELDS + ("kind",))
        assert data["kind"] == kind

    def test_events_to_jsonl_and_write_jsonl_agree(self, tmp_path):
        sample = [ThreadSpawned(1, 0, "t0"),
                  OperationFinished(9, 0, "t0", "o", 8, None, 1, 2, 3)]
        path = tmp_path / "r.jsonl.gz"
        write_jsonl(str(path), sample)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert handle.read() == events_to_jsonl(sample) + "\n"

    @pytest.mark.parametrize("name", ["r.jsonl", "r.jsonl.gz"])
    def test_failed_write_leaves_no_truncated_recording(self, tmp_path,
                                                       name):
        # More than one 4096-event chunk is written before the bad item.
        events = [ThreadSpawned(i, 0, f"t{i}") for i in range(5000)]
        path = tmp_path / name
        with pytest.raises(AttributeError):
            write_jsonl(str(path), events + [object()])
        assert list(tmp_path.iterdir()) == []
        # An existing recording survives a failed rewrite untouched.
        write_jsonl(str(path), events[:3])
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            write_jsonl(str(path), events + [object()])
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert list(iter_jsonl(str(path))) == events[:3]

    def test_shard_recorder_appends_the_same_bytes(self, tmp_path):
        a = [ThreadSpawned(1, 0, "t0")]
        b = [OperationFinished(9, 0, "t0", "o", 8)]
        recorder = ShardRecorder(str(tmp_path), "w")
        recorder.record(None, "k1", a)
        recorder.record(None, "k2", b)
        recorder.close()
        with gzip.open(recorder.events_path, "rt",
                       encoding="utf-8") as handle:
            assert handle.read() == events_to_jsonl(a + b) + "\n"


class TestDecodePaths:
    @settings(max_examples=300, deadline=None)
    @given(events())
    def test_fast_and_slow_paths_build_identical_events(self, event):
        data = json.loads(encode_event(event))
        fast = EventDecoder().decode(dict(data))
        slow = EventDecoder()._decode_slow(dict(data), 1)
        assert type(fast) is type(slow)
        assert encode_event(fast) == encode_event(slow)

    @settings(max_examples=200, deadline=None)
    @given(events(), st.data())
    def test_paths_raise_identical_errors(self, event, data):
        record = json.loads(encode_event(event))
        if data.draw(st.booleans()):
            record["extra_field"] = 1
        else:
            field = data.draw(st.sampled_from(type(event).FIELDS))
            del record[field]
        errors = []
        for decode in ("decode", "_decode_slow"):
            decoder = EventDecoder(source="s")
            decoder.decode({"kind": "meta",
                            "schema_version": SCHEMA_VERSION})
            with pytest.raises(ProfileError) as info:
                getattr(decoder, decode)(record, 7)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("s: line 7: ")

    def test_whitespace_padded_line_decodes(self):
        line = "  " + encode_event(ThreadSpawned(1, 0, "t")) + " \r\n"
        assert parse_jsonl([line]).events == [ThreadSpawned(1, 0, "t")]


class TestDecodeErrors:
    @pytest.mark.parametrize("line, message", [
        ('{"kind":[]}', "unknown event kind []"),
        ('{"kind":{"a":1}}', "unknown event kind {'a': 1}"),
        ('{"kind":5,"ts":1}', "unknown event kind 5"),
        ('{"kind":"meta","schema_version":true}',
         "bad schema_version True"),
        ('{"kind":"meta","schema_version":false}',
         "bad schema_version False"),
        ('{"kind":"meta","schema_version":2.0}', "bad schema_version 2.0"),
        ('[1,2]', "expected an object with a 'kind' field"),
        ('{"ts":1}', "expected an object with a 'kind' field"),
        ('{"kind":"spawn"} x', "not valid JSON"),
        ('{"kind":', "not valid JSON"),
    ])
    def test_error_names_the_line(self, line, message):
        meta = json.dumps({"kind": "meta", "schema_version": 1})
        with pytest.raises(ProfileError) as info:
            parse_jsonl([meta, "", line], source="rec.jsonl")
        assert str(info.value).startswith("rec.jsonl: line 3: ")
        assert message in str(info.value)

    def test_watch_frames_keep_their_location(self):
        with pytest.raises(ProfileError, match="^frame 4: unknown event"):
            EventDecoder().decode({"kind": []}, where="frame 4")

    def test_analyzer_cli_takes_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.events.jsonl"
        path.write_text('{"kind":[]}\n', encoding="utf-8")
        assert analyze_main(["report", str(path), "--stream"]) == 2
        assert "line 1: unknown event kind []" in capsys.readouterr().err


#: sha256 of the uncompressed recording below, as written by the
#: exporter before the codec existed (``json.dumps`` per event).  Any
#: drift of the line format changes it.
GOLDEN_SHA256 = \
    "0e516749fcbb3e8cb30edab17aa23ee8800aa3ad2e84c97063af0d5a24dfba38"


class TestGoldenRecording:
    @pytest.fixture(scope="class")
    def recording(self, tmp_path_factory):
        obs = Observability(capture_memory=True)
        machine = Machine(tiny_spec())
        scheduler = CoreTimeScheduler(CoreTimeConfig(monitor_interval=20_000))
        sim = Simulator(machine, scheduler, obs=obs)
        spec = DirWorkloadSpec(n_dirs=24, files_per_dir=48, think_cycles=10,
                               threads_per_core=2, seed=7)
        DirectoryLookupWorkload(machine, spec).spawn_all(sim)
        sim.run(until=200_000)
        path = tmp_path_factory.mktemp("golden") / "ct.events.jsonl.gz"
        write_jsonl(str(path), obs.events())
        return path, obs.events()

    def test_uncompressed_bytes_are_pinned(self, recording):
        path, events = recording
        kinds = {event.kind for event in events}
        # The recording exercises floats, None targets and memory events.
        assert {"move", "sched", "evict", "invalidate", "migrate"} <= kinds
        with gzip.open(path, "rb") as handle:
            data = handle.read()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256

    def test_decodes_back_to_the_recorded_events(self, recording):
        path, events = recording
        assert list(iter_jsonl(str(path))) == events
