"""Tests for repro.fs.check (the FAT fsck).

Reports on images whose directory chains walk cleanly to their end are
pinned in full.  Where a chain is broken (a cycle, an invalid cluster)
the report holds the walk's error and no per-entry checks of that
directory.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.check import fsck
from repro.fs.fat import EOC
from repro.fs.image import FatFilesystem


def build(n_dirs=3, files=40):
    return FatFilesystem.build_benchmark_image(n_dirs, files,
                                               cluster_bytes=512)


def pinned(errors=(), warnings=(), dirs=3, entries=120, clusters=9):
    return {"errors": list(errors), "warnings": list(warnings),
            "directories_checked": dirs, "entries_checked": entries,
            "clusters_used": clusters}


class TestCleanImages:
    def test_fresh_benchmark_image_is_clean(self):
        report = fsck(build())
        assert report.clean, str(report)
        assert asdict(report) == pinned()

    def test_simulator_benchmark_image_is_clean(self):
        # The 4x4 scaled-8 benchmark tree: 160 directories of 125 files.
        report = fsck(build(n_dirs=160, files=125))
        assert asdict(report) == pinned(dirs=160, entries=20000,
                                        clusters=1280)

    def test_empty_filesystem_is_clean(self):
        assert asdict(fsck(FatFilesystem())) == pinned(dirs=0, entries=0,
                                                       clusters=0)

    def test_report_string(self):
        text = str(fsck(build()))
        assert "clean" in text


class TestCorruptionDetection:
    def test_broken_boot_signature(self):
        fs = build()
        fs.image.data[510] = 0
        report = fsck(fs)
        assert not report.clean
        assert asdict(report) == pinned(["boot sector signature missing"])

    def test_cross_linked_chains(self):
        fs = build()
        dirs = fs.directory_list()
        # Point the first directory's chain into the second's.
        fs.image.fat_write(dirs[0].first_cluster, dirs[1].first_cluster)
        report = fsck(fs)
        assert not report.clean
        # DIR00000's chain now runs on through DIR00001's clusters, so
        # its entries 16.. repeat DIR00001's (same file names).
        assert asdict(report) == pinned(
            [f"dir:DIR00000: duplicate entry 'F{i:07d}.DAT'"
             for i in range(16)]
            + [f"cluster {c} cross-linked between dir:DIR00000 and "
               "dir:DIR00001" for c in (5, 6, 7)],
            clusters=7)

    def test_chain_cycle(self):
        fs = build()
        directory = fs.directory_list()[0]
        chain = fs.image.chain(directory.first_cluster)
        fs.image.fat_write(chain[-1], chain[0])
        report = fsck(fs)
        assert asdict(report) == pinned(
            ["dir:DIR00000: chain cycles at cluster 2"], entries=80)

    def test_chain_cycle_in_partly_filled_directory(self):
        # Free slots past n_entries: the "data past n_entries" probe
        # must not follow the cyclic chain (fsck never raises).
        fs = FatFilesystem()
        directory = fs.mkdir("D", 40)
        for index in range(10):
            fs.create_file(directory, f"F{index}.DAT")
        chain = fs.image.chain(directory.first_cluster)
        fs.image.fat_write(chain[-1], chain[0])
        report = fsck(fs)
        assert asdict(report) == pinned(["dir:D: chain cycles at cluster 2"],
                                        dirs=1, entries=0, clusters=1)

    def test_out_of_range_link(self):
        fs = build()
        directory = fs.directory_list()[0]
        chain = fs.image.chain(directory.first_cluster)
        fs.image.fat_write(chain[-1], 0xAB00)
        report = fsck(fs)
        assert asdict(report) == pinned(
            ["cluster 4 links to out-of-range 43776",
             "dir:DIR00000: chain reaches invalid cluster 43776"],
            entries=80)

    def test_truncated_chain(self):
        fs = build(files=200)            # needs several clusters
        directory = fs.directory_list()[0]
        fs.image.fat_write(directory.first_cluster, EOC)
        report = fsck(fs)
        assert asdict(report) == pinned(
            ["dir:DIR00000: chain has 1 clusters, capacity needs 13"],
            entries=400, clusters=27)

    def test_corrupted_entry_name(self):
        fs = build()
        directory = fs.directory_list()[0]
        offset = directory.entry_offset(5)
        fs.image.write(offset, b"\x00" * 32)     # free slot mid-entries
        report = fsck(fs)
        assert asdict(report) == pinned(
            ["dir:DIR00000[5]: free slot below n_entries"])

    def test_duplicate_entry(self):
        fs = build()
        directory = fs.directory_list()[0]
        first = fs.image.read(directory.entry_offset(0), 32)
        fs.image.write(directory.entry_offset(1), first)
        report = fsck(fs)
        assert asdict(report) == pinned(
            ["dir:DIR00000: duplicate entry 'F0000000.DAT'"])

    def test_data_past_n_entries_warns(self):
        fs = build()
        directory = fs.directory_list()[0]
        directory.n_entries = 39            # slot 39 still holds a name
        report = fsck(fs)
        assert asdict(report) == pinned(
            warnings=["dir:DIR00000: data past n_entries"], entries=119)


@settings(max_examples=15, deadline=None)
@given(n_dirs=st.integers(min_value=1, max_value=8),
       files=st.integers(min_value=1, max_value=120))
def test_every_benchmark_image_passes_fsck(n_dirs, files):
    """The builder never produces an inconsistent image."""
    report = fsck(FatFilesystem.build_benchmark_image(
        n_dirs, files, cluster_bytes=512))
    assert report.clean, str(report)
