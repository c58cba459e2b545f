"""Disk service model and RAID-0 striping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import BLOCK_SIZE, DiskModel, Raid0, make_paper_raid
from repro.sim import Simulator, start
from conftest import drive


class TestDiskModel:
    def test_first_access_seeks(self, sim):
        disk = DiskModel(sim)

        def job():
            yield from disk.io(100, 1)

        drive(sim, job())
        expected = disk.SEEK_S + disk.ROTATION_S + BLOCK_SIZE / disk.TRANSFER_BPS
        assert sim.now == pytest.approx(expected)

    def test_sequential_access_skips_seek(self, sim):
        disk = DiskModel(sim)

        def job():
            yield from disk.io(100, 4)
            t_after_first = sim.now
            yield from disk.io(104, 4)
            return sim.now - t_after_first

        delta = drive(sim, job())
        assert delta == pytest.approx(4 * BLOCK_SIZE / disk.TRANSFER_BPS)
        assert disk.sequential_hits == 1

    def test_non_sequential_seeks_again(self, sim):
        disk = DiskModel(sim)

        def job():
            yield from disk.io(100, 4)
            yield from disk.io(500, 4)

        drive(sim, job())
        assert disk.sequential_hits == 0

    def test_multiple_stream_cursors(self, sim):
        disk = DiskModel(sim)

        def job():
            # Two interleaved sequential streams.
            yield from disk.io(0, 2)
            yield from disk.io(1000, 2)
            yield from disk.io(2, 2)
            yield from disk.io(1002, 2)

        drive(sim, job())
        assert disk.sequential_hits == 2

    def test_cursor_capacity_bounded(self, sim):
        disk = DiskModel(sim)

        def job():
            for i in range(DiskModel.STREAM_CURSORS + 10):
                yield from disk.io(i * 1000, 1)

        drive(sim, job())
        assert len(disk._cursors) == DiskModel.STREAM_CURSORS

    def test_fifo_contention(self, sim):
        disk = DiskModel(sim)
        done = []

        def job(name):
            yield from disk.io(0 if name == "a" else 9999, 1)
            done.append(name)

        start(sim, job("a"))
        start(sim, job("b"))
        sim.run()
        assert done == ["a", "b"]

    def test_write_counted(self, sim):
        disk = DiskModel(sim)

        def job():
            yield from disk.io(0, 1, write=True)

        drive(sim, job())
        assert disk.writes == 1 and disk.reads == 0

    def test_invalid_nblocks(self, sim):
        disk = DiskModel(sim)

        def job():
            yield from disk.io(0, 0)

        with pytest.raises(ValueError):
            drive(sim, job())


class TestRaid0:
    def test_split_within_one_stripe(self, sim):
        raid = make_paper_raid(sim)
        pieces = raid._split(0, 8)
        assert len(pieces) == 1
        disk, disk_lbn, count = pieces[0]
        assert (disk_lbn, count) == (0, 8)

    def test_split_across_stripes(self, sim):
        raid = make_paper_raid(sim)
        pieces = raid._split(12, 8)  # crosses the 16-block stripe boundary
        assert [(p[1], p[2]) for p in pieces] == [(12, 4), (0, 4)]
        assert pieces[0][0] is raid.disks[0]
        assert pieces[1][0] is raid.disks[1]

    def test_round_robin_wraps_to_next_row(self, sim):
        raid = make_paper_raid(sim)
        pieces = raid._split(16 * 4, 4)  # stripe index 4 -> disk 0 row 1
        assert pieces[0][0] is raid.disks[0]
        assert pieces[0][1] == 16

    def test_parallel_component_io(self, sim):
        raid = make_paper_raid(sim)

        def job():
            yield from raid.io(0, 64)  # touches all four disks

        drive(sim, job())
        per_disk = 16 * BLOCK_SIZE / raid.disks[0].TRANSFER_BPS \
            + raid.disks[0].SEEK_S + raid.disks[0].ROTATION_S
        assert sim.now == pytest.approx(per_disk)
        assert all(d.reads == 1 for d in raid.disks)

    @given(lbn=st.integers(0, 10_000), nblocks=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_split_covers_extent_exactly(self, lbn, nblocks):
        sim = Simulator()
        raid = make_paper_raid(sim)
        pieces = raid._split(lbn, nblocks)
        assert sum(p[2] for p in pieces) == nblocks
        # Each piece must fit inside a stripe unit.
        assert all(p[2] <= raid.stripe_blocks for p in pieces)

    @given(lbn=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_distinct_lbns_map_to_distinct_slots(self, lbn):
        sim = Simulator()
        raid = make_paper_raid(sim)
        a = raid._split(lbn, 1)[0]
        b = raid._split(lbn + 1, 1)[0]
        assert (id(a[0]), a[1]) != (id(b[0]), b[1])

    def test_empty_raid_rejected(self, sim):
        with pytest.raises(ValueError):
            Raid0([])

    def test_bad_stripe_rejected(self, sim):
        with pytest.raises(ValueError):
            Raid0([DiskModel(sim)], stripe_blocks=0)
