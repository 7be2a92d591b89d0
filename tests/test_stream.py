"""Tests for repro.obs.stream: reducers, merge law, shards, live tail."""

import glob
import gzip
import hashlib
import os
import socket
import threading

import pytest

from repro.analysis import RunningStats
from repro.errors import ConfigError, ProfileError
from repro.obs import Observability
from repro.obs.cli import main as analyze_main
from repro.obs.events import (LockContended, ObjectAssigned,
                              OperationFinished, RunMarker)
from repro.obs.export import write_jsonl
from repro.obs.metrics import OP_LATENCY_BUCKETS, Histogram
from repro.obs.profile import iter_jsonl, load_jsonl, split_runs
from repro.obs.stream import (DEFAULT_SAMPLE_CAPACITY, OccupancyReducer,
                              Profile, RunProfile, ShardRecorder,
                              StreamProfiler, load_profile, merge_profiles,
                              render_lock_table, render_object_costs,
                              synthesize)
from repro.sweep.cli import main as sweep_main
from repro.sweep.runner import run_sweep

from tests.test_sweep import quick_options, tiny_sweep


def synth(n, seed=0, label="synthetic", **kwargs):
    return list(synthesize(n, seed=seed, label=label, **kwargs))


# ---------------------------------------------------------------------------
# the merge law: merge(P(a), P(b)) == P(a + b), any split, any stream
# ---------------------------------------------------------------------------

class TestMergeLaw:
    def test_every_split_point_agrees_with_whole(self):
        events = synth(600, seed=3)
        whole = Profile.from_events(events)
        # Cuts landing mid-operation, mid-migration and right after the
        # run marker are the interesting ones; sweep a spread of them.
        for cut in (1, 2, 97, 300, 599):
            left = Profile.from_events(events[:cut])
            right = Profile.from_events(events[cut:])
            merged = left.merge(right)
            assert merged == whole, f"split at {cut}"
            assert merged.to_json() == whole.to_json(), f"split at {cut}"

    def test_merge_does_not_mutate_operands(self):
        events = synth(200, seed=5)
        left = Profile.from_events(events[:100])
        right = Profile.from_events(events[100:])
        before_left, before_right = left.to_json(), right.to_json()
        left.merge(right)
        assert left.to_json() == before_left
        assert right.to_json() == before_right

    def test_associativity(self):
        events = synth(450, seed=9)
        a = Profile.from_events(events[:150])
        b = Profile.from_events(events[150:300])
        c = Profile.from_events(events[300:])
        assert a.merge(b).merge(c).to_json() \
            == a.merge(b.merge(c)).to_json()

    def test_merge_profiles_folds_left_to_right(self):
        events = synth(300, seed=4)
        parts = [Profile.from_events(events[i:i + 100])
                 for i in range(0, 300, 100)]
        assert merge_profiles(parts).to_json() \
            == Profile.from_events(events).to_json()

    def test_merge_profiles_rejects_empty(self):
        with pytest.raises(ProfileError):
            merge_profiles([])

    def test_mismatched_sampling_params_refuse_to_merge(self):
        a = Profile.from_events(synth(50), sample_capacity=64)
        b = Profile.from_events(synth(50), sample_capacity=128)
        with pytest.raises(ProfileError, match="sampl"):
            a.merge(b)

    def test_artifact_round_trips(self):
        profile = Profile.from_events(synth(400, seed=8))
        text = profile.to_json()
        again = Profile.from_json(text)
        assert again.to_json() == text
        assert again.render() == profile.render()

    def test_bad_artifact_names_the_source(self):
        with pytest.raises(ProfileError, match="shard.json"):
            Profile.from_json('{"kind": "nope"}', source="shard.json")


# ---------------------------------------------------------------------------
# reports pinned to the bytes the per-run (split on every RunMarker)
# analyzer printed before reports rendered through Profile
# ---------------------------------------------------------------------------

def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fig2_events(tmp_path_factory):
    from repro.bench.figures import figure_2

    obs = Observability()
    figure_2(n_dirs=6, run_cycles=120_000, seed=11, obs=obs)
    path = tmp_path_factory.mktemp("fig2") / "fig2.events.jsonl"
    obs.write_jsonl(str(path))
    return str(path)


@pytest.fixture(scope="module")
def migration_events(tmp_path_factory):
    """Three real runs, two of them labelled ``coretime``."""
    from repro.bench.figures import migration_cost_sweep

    obs = Observability()
    migration_cost_sweep(costs=(0, 500), n_dirs=8, scale=2,
                         warmup_cycles=20_000, measure_cycles=30_000,
                         seed=3, obs=obs)
    assert obs.runs == ["coretime", "coretime", "thread"]
    path = tmp_path_factory.mktemp("migration") / "mig.events.jsonl"
    obs.write_jsonl(str(path))
    return str(path), obs


@pytest.fixture(scope="module")
def synth_events(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "s.events.jsonl.gz"
    write_jsonl(str(path), synthesize(3_000, seed=6))
    return str(path)


#: sha256 of the recordings themselves, so a golden mismatch below can
#: be told apart from a change in what the simulator records.
RECORDING_SHA = {
    "fig2": "86d7a65c611ab7a12d39611951064465"
            "cc94b18258e51c155822652856814e29",
    "migration": "309ff9d32580c430beea34a9e512c24e"
                 "94544a88eca013755edbc8aeb2944f1a",
}

#: sha256 of ``repro-analyze`` stdout: (recording, argv after the path).
GOLDEN = {
    ("fig2", ("report",)):
        "b999dc368f82276cdeb2b11fe92b7ae9c24f5a745388c607df803c19bd1835d6",
    ("fig2", ("report", "--run", "coretime")):
        "6f0bb289a694847fdb8343617e5e8da4d6e6d6bf8ec55a78c4064bbeb6515b08",
    ("fig2", ("report", "--run", "1")):
        "6f0bb289a694847fdb8343617e5e8da4d6e6d6bf8ec55a78c4064bbeb6515b08",
    ("fig2", ("folded",)):
        "d9f600a82d2e3476b53b6164b485a8ed5f5c266adece60a3acb9ddd0b2227d8d",
    ("fig2", ("folded", "--run", "coretime")):
        "b0b7e38003d46e0fcb4a0b6117c83f8ccfb203d737500a1dbbf2c4fd69950980",
    ("migration", ("report",)):
        "b3a9c5caabe5d3bf2c710017ae22414cebc1d8d45fc92050681fb382eb1212cf",
    ("migration", ("report", "--run", "coretime")):
        "034e40e4fd9b401668ec3d3e0d331dc2cbd7e808e4627ae402eed697b921e45a",
    ("migration", ("report", "--run", "1")):
        "0f9992aa3e1ce9e012159195f3b2f7aef4109b666dc019402b5611e4710c3be5",
    ("migration", ("folded",)):
        "732f07ed9a40e2802f06e4de2d8245649b9f2c7dcbed6dccecfbff8f829992ba",
    ("migration", ("folded", "--run", "coretime")):
        "b6c90575bda5251eee5235c7226b592cdccb3ace712e36a67f7715b4ad91ac33",
    ("synth", ("report",)):
        "6a53d6a2a69e45ae494a9f8b93ed8a27ca63953d737e31ee11715f20db313bd8",
    ("synth", ("report", "--run", "synthetic")):
        "6a53d6a2a69e45ae494a9f8b93ed8a27ca63953d737e31ee11715f20db313bd8",
    ("synth", ("report", "--run", "0")):
        "6a53d6a2a69e45ae494a9f8b93ed8a27ca63953d737e31ee11715f20db313bd8",
    ("synth", ("folded",)):
        "43f30dc471a9d02ea64fcd50754ca8843550ae353f60d1e83ddf9725c93f2b9d",
}


def _check_golden(name, path, capsys, only=None):
    if name in RECORDING_SHA:
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() \
                == RECORDING_SHA[name], f"{name}: the recording changed"
    for (recording, argv), digest in GOLDEN.items():
        if recording != name or (only is not None and argv[0] != only):
            continue
        command, rest = argv[0], list(argv[1:])
        assert analyze_main([command, path] + rest) == 0
        assert _sha(capsys.readouterr().out) == digest, (name, argv)


class TestStreamingMatchesBatch:
    def test_report_identical_on_real_recording(self, fig2_events,
                                                capsys):
        _check_golden("fig2", fig2_events, capsys, only="report")

    def test_run_filter_identical(self, migration_events, capsys):
        path, _ = migration_events
        _check_golden("migration", path, capsys, only="report")

    def test_batch_helpers_match_reducers(self, migration_events):
        path, _ = migration_events
        runs = split_runs(load_jsonl(path).events)
        sections = StreamProfiler().feed_path(path).profile.sections
        assert len(sections) == len(runs) == 3
        for run, section in zip(runs, sections):
            alone = RunProfile.from_events(run.label, run.events)
            assert section.state() == alone.state()
            assert section.render() == alone.render()

    def test_synthetic_stream_identical_too(self, synth_events, capsys):
        _check_golden("synth", synth_events, capsys)

    def test_folded_identical(self, fig2_events, migration_events,
                              capsys):
        _check_golden("fig2", fig2_events, capsys, only="folded")
        _check_golden("migration", migration_events[0], capsys,
                      only="folded")

    def test_bench_profile_report_identical(self, migration_events):
        # ``repro.bench --profile-out`` writes Observability.profile_report
        _, obs = migration_events
        assert _sha(obs.profile_report() + "\n") \
            == GOLDEN[("migration", ("report",))]


# ---------------------------------------------------------------------------
# one section per run, even when runs share a label
# ---------------------------------------------------------------------------

def _max_busy(profile):
    return max(core.frac(core.busy) for section in profile.sections
               for core in section.cores.result(section.horizon))


@pytest.fixture(scope="module")
def same_label_runs(tmp_path_factory):
    """Two real ``thread`` runs recorded into one stream."""
    from tests.test_profile import record_runs

    obs = Observability()
    record_runs(obs, 2)
    assert obs.runs == ["thread", "thread"]
    path = tmp_path_factory.mktemp("same") / "same.events.jsonl"
    obs.write_jsonl(str(path))
    return str(path), obs.events()


class TestOneSectionPerRun:
    def test_profile_keeps_same_label_runs_apart(self, same_label_runs):
        _, events = same_label_runs
        profile = Profile.from_events(events)
        assert [s.label for s in profile.sections] == ["thread", "thread"]
        assert 0 < _max_busy(profile) <= 1.0

    def test_profile_and_merge_cli(self, same_label_runs, tmp_path,
                                   capsys):
        path, events = same_label_runs
        second = max(i for i, e in enumerate(events)
                     if type(e) is RunMarker)
        halves = []
        for index, part in enumerate((events[:second], events[second:])):
            shard = str(tmp_path / f"{index}.events.jsonl")
            write_jsonl(shard, part)
            halves.append(str(tmp_path / f"{index}.profile.json"))
            assert analyze_main(["profile", shard, "-o", halves[-1]]) == 0
        whole = str(tmp_path / "whole.profile.json")
        merged = str(tmp_path / "merged.profile.json")
        assert analyze_main(["profile", path, "-o", whole]) == 0
        assert analyze_main(["merge", *halves, "-o", merged]) == 0
        capsys.readouterr()
        assert load_profile(merged) == load_profile(whole)
        assert len(load_profile(merged).sections) == 2
        assert 0 < _max_busy(load_profile(merged)) <= 1.0

    def test_sweep_fleet_profile(self, tmp_path, capsys):
        shards = str(tmp_path / "shards")
        assert sweep_main(["run", "smoke", "--seeds", "1", "--seed", "7",
                           "--workers", "0", "--out",
                           str(tmp_path / "out"), "--profile-dir", shards,
                           "--quiet"]) == 0
        capsys.readouterr()
        fleet = load_profile(os.path.join(shards, "fleet.profile.json"))
        # the smoke grid: 2 schedulers x 2 workloads x 1 seed
        assert len(fleet.sections) == 4
        assert 0 < _max_busy(fleet) <= 1.0


# ---------------------------------------------------------------------------
# deterministic reservoir (bottom-k) occupancy sampling
# ---------------------------------------------------------------------------

def _occupancy_events(n, seed):
    import random
    rng = random.Random(seed)
    ts = 0
    events = []
    for _ in range(n):
        ts += rng.randrange(1, 50)
        events.append(ObjectAssigned(ts, rng.randrange(4),
                                     f"dir:D{rng.randrange(40)}"))
    return events


def _occupancy(events, capacity=DEFAULT_SAMPLE_CAPACITY):
    return RunProfile.from_events(None, events,
                                  sample_capacity=capacity).occupancy


class TestOccupancySampling:
    def test_seeded_and_order_free(self):
        events = _occupancy_events(500, seed=2)
        forward = _occupancy(events, capacity=64)
        backward = _occupancy(reversed(events), capacity=64)
        assert forward.state() == backward.state()
        assert forward.render(events[-1].ts) == backward.render(
            events[-1].ts)

    def test_merge_law_survives_pruning(self):
        events = _occupancy_events(500, seed=7)
        whole = _occupancy(events, capacity=64)
        left = _occupancy(events[:250], capacity=64)
        right = _occupancy(events[250:], capacity=64)
        left.merge_from(right)
        assert left.state() == whole.state()

    def test_annotates_when_sampled(self):
        events = _occupancy_events(300, seed=1)
        reducer = _occupancy(events, capacity=32)
        assert reducer.pruned
        rendered = reducer.render(events[-1].ts)
        assert "[sampled: kept" in rendered
        assert f"of {reducer.total:,} changes" in rendered

    def test_unsampled_stream_has_no_annotation(self):
        reducer = _occupancy(_occupancy_events(100, seed=1))
        assert "[sampled" not in reducer.render(10_000)

    def test_capacity_mismatch_refuses_merge(self):
        with pytest.raises(ProfileError):
            OccupancyReducer(capacity=32).merge_from(
                OccupancyReducer(capacity=64))


# ---------------------------------------------------------------------------
# satellite: gzip end to end
# ---------------------------------------------------------------------------

class TestGzip:
    def test_round_trip_equals_plain(self, tmp_path):
        events = synth(500, seed=12)
        plain = str(tmp_path / "r.events.jsonl")
        gzipped = str(tmp_path / "r.events.jsonl.gz")
        write_jsonl(plain, events)
        write_jsonl(gzipped, events)
        assert load_jsonl(gzipped).events == load_jsonl(plain).events
        with gzip.open(gzipped, "rt", encoding="utf-8") as handle:
            assert handle.read() == open(plain, encoding="utf-8").read()

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        events = synth(200, seed=3)
        paths = [str(tmp_path / f"{i}.jsonl.gz") for i in range(2)]
        for path in paths:
            write_jsonl(path, events)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_concatenated_members_read_as_one_stream(self, tmp_path):
        a = synth(150, seed=1, label="alpha")
        b = synth(150, seed=2, label="beta")
        cat = str(tmp_path / "cat.events.jsonl.gz")
        for part, mode in ((a, "wb"), (b, "ab")):
            member = str(tmp_path / "member.jsonl.gz")
            write_jsonl(member, part)
            with open(cat, mode) as out:
                out.write(open(member, "rb").read())
        events = load_jsonl(cat).events
        assert [r.label for r in split_runs(events)] == ["alpha", "beta"]
        assert len(events) == len(a) + len(b)

    def test_iter_jsonl_matches_load_jsonl(self, tmp_path):
        path = str(tmp_path / "x.events.jsonl.gz")
        write_jsonl(path, synthesize(300, seed=4))
        assert list(iter_jsonl(path)) == load_jsonl(path).events


# ---------------------------------------------------------------------------
# satellite: error messages carry the path; --top notes dropped rows
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_load_jsonl_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.events.jsonl"
        path.write_text('{"kind":"meta","schema_version":5}\nnot json\n')
        with pytest.raises(ProfileError) as info:
            load_jsonl(str(path))
        assert str(path) in str(info.value)
        assert "line 2" in str(info.value)

    def test_load_profile_error_names_file(self, tmp_path):
        path = tmp_path / "junk.profile.json"
        path.write_text("{}")
        with pytest.raises(ProfileError, match="junk.profile.json"):
            load_profile(str(path))

    def test_top_caps_log_dropped_rows(self):
        events = [OperationFinished(100 * (i + 1), 0, "t0", f"dir:D{i}",
                                    100, 1, 1, 10, 5)
                  for i in range(8)]
        costs = RunProfile.from_events(None, events).objects.result()
        text = render_object_costs(costs, top=3)
        assert "5 rows dropped" in text
        full = render_object_costs(costs, top=8)
        assert "dropped" not in full

    def test_lock_table_logs_dropped_rows(self):
        events = [LockContended(10 * (i + 1), 0, "t0", f"lock:L{i}")
                  for i in range(6)]
        locks = RunProfile.from_events(None, events).locks.result()
        text = render_lock_table(locks, top=2)
        assert "4 rows dropped" in text


# ---------------------------------------------------------------------------
# mergeable primitives (Histogram.merge, RunningStats)
# ---------------------------------------------------------------------------

class TestMergeablePrimitives:
    def test_histogram_merge_folds_exactly(self):
        whole = Histogram("h", OP_LATENCY_BUCKETS)
        left = Histogram("h", OP_LATENCY_BUCKETS)
        right = Histogram("h", OP_LATENCY_BUCKETS)
        values = [50, 150, 700, 30_000, 500_000, 90]
        for value in values:
            whole.observe(value)
        for value in values[:3]:
            left.observe(value)
        for value in values[3:]:
            right.observe(value)
        left.merge(right)
        assert left.counts == whole.counts
        assert left.summary().as_dict() == whole.summary().as_dict()

    def test_histogram_merge_rejects_different_buckets(self):
        with pytest.raises(ConfigError):
            Histogram("a", (1, 2)).merge(Histogram("b", (1, 3)))

    def test_running_stats_merge(self):
        whole = RunningStats.from_values([3, 1, 4, 1, 5])
        left = RunningStats.from_values([3, 1])
        right = RunningStats.from_values([4, 1, 5])
        assert left.merge(right) == whole
        assert whole.mean == pytest.approx(2.8)
        assert RunningStats.from_state(whole.state()) == whole


# ---------------------------------------------------------------------------
# CLI: profile / merge / synth / RSS cap
# ---------------------------------------------------------------------------

class TestCli:
    def test_profile_then_merge_round_trip(self, tmp_path, capsys):
        events = str(tmp_path / "e.jsonl.gz")
        write_jsonl(events, synthesize(800, seed=2))
        shard = str(tmp_path / "e.profile.json")
        assert analyze_main(["profile", events, "-o", shard]) == 0
        merged = str(tmp_path / "m.profile.json")
        assert analyze_main(["merge", shard, shard, "-o", merged]) == 0
        capsys.readouterr()
        doubled = load_profile(merged)
        single = load_profile(shard)
        assert doubled.total_events == 2 * single.total_events

    def test_merge_without_out_prints_report(self, tmp_path, capsys):
        events = str(tmp_path / "e.jsonl")
        write_jsonl(events, synthesize(300, seed=2))
        shard = str(tmp_path / "e.profile.json")
        analyze_main(["profile", events, "-o", shard])
        capsys.readouterr()
        assert analyze_main(["merge", shard]) == 0
        assert "=== run: synthetic" in capsys.readouterr().out

    def test_synth_is_deterministic(self, tmp_path, capsys):
        paths = [str(tmp_path / f"{i}.jsonl.gz") for i in range(2)]
        for path in paths:
            assert analyze_main(["synth", "-o", path, "--events", "500",
                                 "--seed", "9"]) == 0
        capsys.readouterr()
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_empty_stream_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"kind":"meta","schema_version":5}\n')
        assert analyze_main(["report", str(path)]) == 2
        assert "stream contains no events" in capsys.readouterr().err
        assert analyze_main(["profile", str(path), "-o",
                             str(tmp_path / "p.json")]) == 2

    def test_rss_cap_must_be_positive(self, tmp_path, capsys):
        path = str(tmp_path / "e.jsonl")
        write_jsonl(path, synthesize(10, seed=0))
        assert analyze_main(["report", path, "--max-rss-mb", "0"]) == 2

    def test_generous_rss_cap_passes(self, tmp_path, capsys):
        pytest.importorskip("resource")
        import subprocess
        import sys
        path = str(tmp_path / "e.jsonl.gz")
        write_jsonl(path, synthesize(2_000, seed=1))
        # Subprocess: setrlimit(RLIMIT_AS) cannot be raised back by an
        # unprivileged process, so the cap must not leak into pytest.
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs.cli", "report", path,
             "--max-rss-mb", "2048"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "=== run: synthetic" in result.stdout


# ---------------------------------------------------------------------------
# live tail over the watch-feed protocol
# ---------------------------------------------------------------------------

class TestTail:
    def test_tail_profiles_a_watch_feed(self, tmp_path, capsys):
        from repro.sweep.dist.protocol import recv_frame, send_frame

        events = synth(300, seed=5, label="livesweep")
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            with conn:
                assert recv_frame(conn)["type"] == "watch"
                send_frame(conn, {"type": "meta", "schema_version": 5})
                for event in events:
                    send_frame(conn, {"type": "event",
                                      "event": event.as_dict()})
                send_frame(conn, {"type": "drain"})

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        out = str(tmp_path / "tail.txt")
        code = analyze_main(["tail", "--connect", f"127.0.0.1:{port}",
                             "--interval", "0", "-o", out])
        thread.join(timeout=5)
        server.close()
        assert code == 0
        report = open(out, encoding="utf-8").read()
        assert report.rstrip("\n") \
            == Profile.from_events(events).render()
        assert "=== run: livesweep" in report

    def test_tail_empty_feed_exits_nonzero(self, capsys):
        from repro.sweep.dist.protocol import recv_frame, send_frame

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            with conn:
                recv_frame(conn)
                send_frame(conn, {"type": "drain"})

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        code = analyze_main(["tail", "--connect", f"127.0.0.1:{port}"])
        thread.join(timeout=5)
        server.close()
        assert code == 1


# ---------------------------------------------------------------------------
# sweep shard recording: per-worker profiles merge to the fleet truth
# ---------------------------------------------------------------------------

def _profile_of_concatenated_shards(profile_dir):
    profiler = StreamProfiler()
    for path in sorted(glob.glob(os.path.join(profile_dir,
                                              "*.events.jsonl.gz"))):
        profiler.feed_path(path)
    return profiler.profile


class TestSweepShardProfiles:
    def test_serial_sweep_writes_consistent_shard(self, tmp_path):
        shards = str(tmp_path / "shards")
        outcome = run_sweep(
            tiny_sweep(), options=quick_options(profile_dir=shards))
        assert outcome.failed == 0
        assert sorted(os.listdir(shards)) \
            == ["serial.events.jsonl.gz", "serial.profile.json"]
        recorded = load_profile(os.path.join(shards,
                                             "serial.profile.json"))
        replayed = _profile_of_concatenated_shards(shards)
        assert recorded.to_json() == replayed.to_json()
        # One section per case: 2 schedulers x 2 workloads.
        assert sorted(s.display_label for s in recorded.sections) \
            == ["coretime", "coretime", "thread", "thread"]

    def test_worker_shards_merge_to_concatenated_profile(self, tmp_path):
        shards = str(tmp_path / "shards")
        outcome = run_sweep(
            tiny_sweep(),
            options=quick_options(workers=2, profile_dir=shards))
        assert outcome.failed == 0
        shard_paths = sorted(glob.glob(os.path.join(
            shards, "*.profile.json")))
        assert len(shard_paths) >= 1      # one per worker that computed
        merged = merge_profiles([load_profile(path)
                                 for path in shard_paths])
        replayed = _profile_of_concatenated_shards(shards)
        assert merged.to_json() == replayed.to_json()
        assert merged.total_events > 0

    def test_shard_recorder_skips_profile_when_idle(self, tmp_path):
        recorder = ShardRecorder(str(tmp_path / "dir"), "idle")
        assert recorder.close() is None
        assert os.listdir(str(tmp_path / "dir")) == []
