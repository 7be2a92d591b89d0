"""Tests for repro.mem.sharing (coherence directory)."""

from repro.mem.sharing import SharingDirectory


class TestHolderIds:
    def test_core_and_l3_ids_distinct(self):
        directory = SharingDirectory(n_cores=4)
        assert directory.l3_holder(0) == 4
        assert directory.is_l3_holder(4)
        assert not directory.is_l3_holder(3)


class TestMembership:
    def test_add_and_holders(self):
        directory = SharingDirectory(4)
        directory.add(10, 0)
        directory.add(10, 2)
        assert directory.holders(10) == frozenset({0, 2})
        assert directory.sharer_count(10) == 2

    def test_discard(self):
        directory = SharingDirectory(4)
        directory.add(10, 0)
        directory.discard(10, 0)
        assert directory.holders(10) == frozenset()
        assert list(directory.cached_lines()) == []
        assert len(directory) == 0

    def test_discard_absent_is_noop(self):
        directory = SharingDirectory(4)
        directory.discard(10, 0)
        directory.add(10, 1)
        directory.discard(10, 0)
        assert directory.holders(10) == frozenset({1})

    def test_holders_past_one_byte_of_mask(self):
        # 16 cores: L3 holders are 16..19, beyond a small int's low bits.
        directory = SharingDirectory(16)
        for holder in (0, 7, 15, directory.l3_holder(3)):
            directory.add(3, holder)
        assert directory.holders(3) == frozenset({0, 7, 15, 19})
        assert directory.sharer_count(3) == 4
        assert dict(directory.items()) == {3: frozenset({0, 7, 15, 19})}

    def test_cached_lines(self):
        directory = SharingDirectory(4)
        directory.add(1, 0)
        directory.add(2, 1)
        assert sorted(directory.cached_lines()) == [1, 2]

    def test_holders_view_is_immutable_snapshot(self):
        directory = SharingDirectory(4)
        directory.add(1, 0)
        view = directory.holders(1)
        directory.add(1, 2)
        assert view == frozenset({0})
