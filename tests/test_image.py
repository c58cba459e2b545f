"""Filesystem image: allocation, metadata layout, disk store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import BLOCK_SIZE, DiskStore, FileType, FsImage


def make_image(blocks=100_000):
    return FsImage(capacity_blocks=blocks)


class TestAllocation:
    def test_create_and_lookup(self):
        image = make_image()
        inode = image.create_file("a.txt", 10_000)
        assert image.lookup("a.txt") is inode
        assert inode.size == 10_000
        assert inode.nblocks == 3
        assert inode.is_regular

    def test_duplicate_name_rejected(self):
        image = make_image()
        image.create_file("a", 100)
        with pytest.raises(ValueError):
            image.create_file("a", 100)

    def test_lookup_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            make_image().lookup("ghost")

    def test_inode_lookup_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            make_image().inode(999)

    def test_extents_disjoint(self):
        image = make_image()
        a = image.create_file("a", 5 * BLOCK_SIZE)
        b = image.create_file("b", 5 * BLOCK_SIZE)
        a_range = set(range(a.start_lbn, a.start_lbn + a.nblocks))
        b_range = set(range(b.start_lbn, b.start_lbn + b.nblocks))
        assert not (a_range & b_range)

    def test_capacity_enforced(self):
        image = FsImage(capacity_blocks=200)
        with pytest.raises(RuntimeError):
            image.create_file("big", 200 * BLOCK_SIZE)

    def test_zero_size_file_gets_one_block(self):
        assert make_image().create_file("empty", 0).nblocks == 1

    def test_block_lbn_bounds(self):
        inode = make_image().create_file("a", BLOCK_SIZE * 2)
        with pytest.raises(ValueError):
            inode.block_lbn(2)

    def test_root_inode_exists(self):
        image = make_image()
        assert image.inode(1).ftype is FileType.DIRECTORY


class TestLbnOwner:
    def test_superblock(self):
        owner = make_image().lbn_owner(0)
        assert owner.kind == "super" and owner.is_metadata

    def test_inode_table(self):
        image = make_image()
        assert image.lbn_owner(1).kind == "inode_table"
        assert image.lbn_owner(image.INODE_TABLE_BLOCKS).kind == "inode_table"

    def test_data_blocks(self):
        image = make_image()
        inode = image.create_file("f", 3 * BLOCK_SIZE)
        owner = image.lbn_owner(inode.start_lbn + 2)
        assert owner.kind == "data"
        assert owner.inode == inode.ino
        assert owner.block_index == 2
        assert not owner.is_metadata

    def test_dir_blocks(self):
        image = make_image()
        image.create_file("f", 100)
        assert any(image.lbn_owner(lbn).kind == "dir"
                   for lbn in image._dir_blocks)

    def test_free_space(self):
        image = make_image()
        assert image.lbn_owner(image.capacity_blocks - 1).kind == "free"

    @given(sizes=st.lists(st.integers(1, 50 * BLOCK_SIZE), min_size=1,
                          max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_owner_consistent_with_extents(self, sizes):
        image = make_image(1 << 20)
        inodes = [image.create_file(f"f{i}", s)
                  for i, s in enumerate(sizes)]
        for inode in inodes:
            for b in (0, inode.nblocks - 1):
                owner = image.lbn_owner(inode.block_lbn(b))
                assert (owner.inode, owner.block_index) == (inode.ino, b)


class TestMetadataLayout:
    def test_inode_table_lbn_in_table_region(self):
        image = make_image()
        inode = image.create_file("f", 100)
        lbn = image.inode_table_lbn(inode.ino)
        assert 1 <= lbn <= image.INODE_TABLE_BLOCKS

    def test_dir_block_lbn_for_name(self):
        image = make_image()
        image.create_file("f", 100)
        assert image.dir_block_lbn("f") in image._dir_blocks

    def test_directory_grows_with_files(self):
        image = make_image()
        for i in range(FsImage.DIRENTS_PER_BLOCK + 1):
            image.create_file(f"f{i}", 100)
        assert len(image._dir_blocks) == 2


class TestContent:
    def test_file_payload_matches_block_payload(self):
        image = make_image()
        inode = image.create_file("f", 4 * BLOCK_SIZE)
        file_view = image.file_payload(inode, BLOCK_SIZE, BLOCK_SIZE)
        block_view = image.initial_block_payload(inode.block_lbn(1))
        assert file_view.materialize() == block_view.materialize()

    def test_distinct_files_distinct_content(self):
        image = make_image()
        a = image.create_file("a", BLOCK_SIZE)
        b = image.create_file("b", BLOCK_SIZE)
        assert image.file_payload(a, 0, 64).materialize() != \
            image.file_payload(b, 0, 64).materialize()

    def test_seed_changes_content(self):
        a = FsImage(capacity_blocks=1000, seed=1)
        b = FsImage(capacity_blocks=1000, seed=2)
        fa = a.create_file("f", 100)
        fb = b.create_file("f", 100)
        assert a.file_payload(fa, 0, 64).materialize() != \
            b.file_payload(fb, 0, 64).materialize()


class TestDiskStore:
    def test_default_content_from_image(self):
        image = make_image()
        inode = image.create_file("f", BLOCK_SIZE)
        store = DiskStore(image)
        assert store.read_block(inode.start_lbn).materialize() == \
            image.file_payload(inode, 0, BLOCK_SIZE).materialize()

    def test_write_overrides(self):
        from repro.net.buffer import VirtualPayload

        image = make_image()
        inode = image.create_file("f", BLOCK_SIZE)
        store = DiskStore(image)
        new = VirtualPayload(99, 0, BLOCK_SIZE)
        store.write_block(inode.start_lbn, new)
        got = store.read_block(inode.start_lbn)
        # Extent payloads come back restamped at the block's write
        # generation; content is unchanged.
        assert got.same_bytes(new)
        assert got.generation == store.block_generation(inode.start_lbn) == 1
        assert store.written_blocks == 1

    def test_write_extent_splits_blocks(self):
        from repro.net.buffer import VirtualPayload

        image = make_image()
        inode = image.create_file("f", 4 * BLOCK_SIZE)
        store = DiskStore(image)
        data = VirtualPayload(5, 0, 2 * BLOCK_SIZE)
        store.write_extent(inode.start_lbn, data)
        got = store.read_blocks(inode.start_lbn, 2)
        assert b"".join(p.materialize() for p in got) == data.materialize()

    def test_misaligned_writes_rejected(self):
        from repro.net.buffer import BytesPayload

        store = DiskStore(make_image())
        with pytest.raises(ValueError):
            store.write_block(0, BytesPayload(b"short"))
        with pytest.raises(ValueError):
            store.write_extent(0, BytesPayload(b"x" * (BLOCK_SIZE + 1)))
