"""Extent data plane: descriptor algebra, generations, mem identity.

The edge cases the zero-materialization refactor must get right:
zero-length slices, splits at chunk boundaries, concatenation across
distinct images, generation bumps on FHO→LBN remap of *sliced* views,
and sanitizer aliasing detection when two different view objects share
one buffer memory (see DESIGN.md §8).
"""

import pytest

from repro.check.sanitizer import SanitizerError, ViolationKind, sanitize
from repro.core import FhoKey
from repro.core.chunk import Chunk
from repro.core.store import NCacheStore
from repro.fs import BLOCK_SIZE, BufferCache, DiskStore, FsImage
from repro.net.buffer import (
    BytesPayload,
    CompositePayload,
    ExtentPayload,
    NetBuffer,
    concat,
)

from chunk_reference import chunk_of_buffers


class TestZeroLengthSlice:
    def test_slice_to_nothing(self):
        view = ExtentPayload(3, 100, 4096)
        empty = view.slice(2048, 0)
        assert empty.length == 0
        assert empty.materialize() == b""

    def test_slice_at_either_end(self):
        view = ExtentPayload(3, 0, 100)
        assert view.slice(0, 0).materialize() == b""
        assert view.slice(100, 0).materialize() == b""

    def test_preserves_descriptor_fields(self):
        view = ExtentPayload(3, 100, 4096, generation=2)
        empty = view.slice(7, 0)
        assert empty.source == 3
        assert empty.offset == 107
        assert empty.generation == 2
        assert empty.mem == view.mem

    def test_out_of_range_still_rejected(self):
        view = ExtentPayload(3, 0, 100)
        with pytest.raises(ValueError):
            view.slice(101, 0)


class TestSplitAtChunkBoundary:
    def test_exact_multiple_has_no_runt(self):
        view = ExtentPayload(5, 0, 3 * 4096)
        parts = view.split(4096)
        assert [p.length for p in parts] == [4096, 4096, 4096]

    def test_parts_are_adjacent_views(self):
        view = ExtentPayload(5, 64, 2 * 4096)
        lo, hi = view.split(4096)
        assert (lo.source, lo.offset) == (5, 64)
        assert (hi.source, hi.offset) == (5, 64 + 4096)
        assert lo.mem == hi.mem == view.mem

    def test_split_commutes_with_materialize(self):
        view = ExtentPayload(5, 10, 10000)
        whole = view.materialize()
        parts = view.split(4096)
        assert [p.length for p in parts] == [4096, 4096, 10000 - 8192]
        assert b"".join(p.materialize() for p in parts) == whole

    def test_boundary_parts_remerge_to_one_descriptor(self):
        # Adjacent same-source same-mem views collapse on concat: the
        # split was descriptor arithmetic, so the merge must be too.
        view = ExtentPayload(5, 0, 2 * 4096)
        merged = concat(list(view.split(4096)))
        assert type(merged) is ExtentPayload
        assert (merged.offset, merged.length) == (0, 2 * 4096)


class TestConcatAcrossImages:
    def two_block_views(self):
        a = FsImage(capacity_blocks=1000, seed=1)
        b = FsImage(capacity_blocks=1000, seed=2)
        fa = a.create_file("f", BLOCK_SIZE)
        fb = b.create_file("f", BLOCK_SIZE)
        return (a.file_payload(fa, 0, BLOCK_SIZE),
                b.file_payload(fb, 0, BLOCK_SIZE))

    def test_no_merge_across_sources(self):
        pa, pb = self.two_block_views()
        joined = concat([pa, pb])
        assert isinstance(joined, CompositePayload)
        assert len(joined.parts) == 2
        assert joined.length == 2 * BLOCK_SIZE

    def test_bytes_in_order(self):
        pa, pb = self.two_block_views()
        joined = concat([pa, pb])
        assert joined.materialize() == pa.materialize() + pb.materialize()

    def test_slice_straddling_the_seam(self):
        pa, pb = self.two_block_views()
        joined = concat([pa, pb])
        straddle = joined.slice(BLOCK_SIZE - 100, 200)
        assert straddle.materialize() == \
            pa.materialize()[-100:] + pb.materialize()[:100]

    def test_mixed_with_bytes_payload(self):
        pa, pb = self.two_block_views()
        joined = concat([pa, BytesPayload(b"|"), pb])
        assert joined.length == 2 * BLOCK_SIZE + 1
        assert joined.materialize()[BLOCK_SIZE:BLOCK_SIZE + 1] == b"|"


class TestGenerationOnRemap:
    def sliced_chunk(self, key, tag=7, nbytes=8192):
        # A chunk holding *sliced* views (mid-extent offset), the shape
        # an RX path carves out of an arrived train.
        view = ExtentPayload(tag, 4096, nbytes).slice(0, nbytes)
        return Chunk.from_payload(key, view, fragment_size=4096,
                                  dirty=True)

    def test_remap_bumps_chunk_and_views(self):
        store = NCacheStore(capacity_bytes=1 << 20)
        fho = FhoKey(1, 1, 0)
        chunk = self.sliced_chunk(fho)
        store.insert(chunk)
        before = chunk.payload().materialize()
        remapped = store.remap(fho, 3)
        assert remapped is chunk
        assert chunk.generation == 1
        for buf in chunk.buffers:
            assert buf.payload.generation == 1
            # Restamping preserves the view window exactly.
            assert buf.payload.offset >= 4096
        assert chunk.payload().materialize() == before

    def test_disk_write_restamps_stored_extent(self):
        image = FsImage(capacity_blocks=1000)
        inode = image.create_file("f", BLOCK_SIZE)
        store = DiskStore(image)
        lbn = inode.start_lbn
        view = ExtentPayload(9, 0, BLOCK_SIZE)
        store.write_block(lbn, view)
        store.write_block(lbn, view)
        got = store.read_block(lbn)
        assert store.block_generation(lbn) == 2
        assert got.generation == 2
        assert got.same_bytes(view)  # generation never affects content


class TestSanitizerExtentAliasing:
    def test_view_of_copied_buffer_fires(self):
        # physical_copy models a fresh RAM buffer; a *slice* of that
        # buffer cached as an FS page is aliasing even though the page
        # object differs from every payload the chunk holds.
        with sanitize() as san:
            store = NCacheStore(capacity_bytes=1 << 20)
            copied = ExtentPayload(7, 0, 4096).physical_copy()
            chunk = chunk_of_buffers(11, [NetBuffer(payload=copied)])
            store.insert(chunk)
            cache = BufferCache(1 << 20)
            with pytest.raises(SanitizerError, match="view of buffer memory"):
                cache.insert(11, copied.slice(0, 2048))
        assert san.of_kind(ViolationKind.ALIASING)

    def test_backing_store_views_never_fire(self):
        # Two independent reads of one disk block share the backing
        # mem (== source) legitimately — that's disk content, not a
        # doubled RAM buffer.
        with sanitize() as san:
            store = NCacheStore(capacity_bytes=1 << 20)
            block = ExtentPayload(7, 0, 4096)
            store.insert(chunk_of_buffers(11, [NetBuffer(payload=block)]))
            cache = BufferCache(1 << 20)
            cache.insert(11, ExtentPayload(7, 0, 4096).slice(0, 2048))
            assert san.of_kind(ViolationKind.ALIASING) == []

    def test_eviction_releases_the_mem(self):
        with sanitize() as san:
            store = NCacheStore(capacity_bytes=1 << 20)
            copied = ExtentPayload(7, 0, 4096).physical_copy()
            chunk = chunk_of_buffers(11, [NetBuffer(payload=copied)])
            store.insert(chunk)
            store.drop(chunk)
            cache = BufferCache(1 << 20)
            cache.insert(11, copied.slice(0, 2048))
            assert san.of_kind(ViolationKind.ALIASING) == []


class TestMemIdentity:
    def test_copies_get_distinct_anonymous_mems(self):
        view = ExtentPayload(3, 0, 4096)
        a, b = view.physical_copy(), view.physical_copy()
        assert a.mem != b.mem
        assert a.mem < 0 and b.mem < 0

    def test_composite_copy_gathers_into_one_mem(self):
        # A gather-copy lands contiguous same-source parts in one fresh
        # buffer, so they re-merge to a single descriptor.
        view = ExtentPayload(3, 0, 8192)
        parts = list(view.split(4096))
        copied = concat([parts[0].physical_copy(),
                         parts[1].physical_copy()]).physical_copy()
        assert type(copied) is ExtentPayload
        assert copied.mem < 0
        assert copied.same_bytes(view)
