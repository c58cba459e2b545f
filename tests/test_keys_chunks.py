"""Keys, KeyedPayload placeholders, chunks."""

import pickle

import pytest

from repro.core import FhoKey, KeyedPayload
from repro.net.buffer import (
    BytesPayload,
    NetBuffer,
    PlaceholderPayload,
    chain_from_payload,
    VirtualPayload,
)

from chunk_reference import chunk_of_buffers


class TestKeys:
    def test_keys_hashable_and_equal(self):
        assert FhoKey(2, 1, 4096) == FhoKey(2, 1, 4096)
        assert FhoKey(2, 1, 4096) != FhoKey(2, 1, 8192)
        assert len({FhoKey(1, 1, 0), FhoKey(1, 1, 0)}) == 1

    def test_generation_distinguishes_handles(self):
        assert FhoKey(1, 1, 0) != FhoKey(1, 2, 0)

    def test_str_forms(self):
        """An LBN key prints as its number, LBN 0 included."""
        assert "fho" in str(FhoKey(1, 1, 8192))
        assert f"{FhoKey(1, 2, 8192)}" == "fho(1.2@8192)"
        assert repr(KeyedPayload(4096, lbn_key=0, fho_key=FhoKey(1, 2, 0))) \
            == "KeyedPayload(fho(1.2@0), 0, off=0, 4096B)"

    def test_a_key_hashes_as_the_tuple_of_its_fields(self):
        """The value the frozen dataclass produced: dict and memo order
        must not have moved when keys became tuples."""
        values = list(range(-2, 6)) + [4096, 1 << 20, (1 << 40) + 3]
        for a in values:
            for b in values:
                for c in values:
                    assert hash(FhoKey(a, b, c)) == hash((a, b, c))

    def test_the_two_key_kinds_never_compare_equal(self):
        """Both kinds key one store (a remap moves a chunk from one kind
        to the other), and any dict may hold both."""
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    lbn, fho = b, FhoKey(a, b, c)
                    assert lbn != fho and fho != lbn
                    assert len({lbn: 1, fho: 2}) == 2

    @pytest.mark.parametrize("key, names", [
        (1 << 33, ("real", "numerator")),
        (FhoKey(2, 1, 4096), ("ino", "generation", "offset"))],
        ids=["key0-names0", "key1-names1"])
    def test_keys_are_immutable(self, key, names):
        """Neither key kind can change under a dict that holds it."""
        for name in names:
            with pytest.raises(AttributeError):
                setattr(key, name, 1)

    @pytest.mark.parametrize("key", [1 << 33, FhoKey(2, 1, 4096)])
    def test_keys_pickle_round_trip(self, key):
        """Pooled sweeps ship keys between processes."""
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(key, protocol))
            assert type(clone) is type(key)
            assert clone == key and hash(clone) == hash(key)
            assert str(clone) == str(key)


class TestKeyedPayload:
    def test_requires_a_key(self):
        with pytest.raises(ValueError):
            KeyedPayload(100)

    def test_is_placeholder(self):
        p = KeyedPayload(100, lbn_key=1)
        assert isinstance(p, PlaceholderPayload)

    def test_materializes_junk(self):
        p = KeyedPayload(10, lbn_key=1)
        assert p.materialize() == b"\xAA" * 10

    def test_slice_tracks_base_offset(self):
        p = KeyedPayload(4096, lbn_key=1)
        inner = p.slice(1000, 500).slice(100, 50)
        assert isinstance(inner, KeyedPayload)
        assert inner.base_offset == 1100
        assert inner.length == 50
        assert inner.lbn_key == 1

    def test_slice_preserves_both_keys(self):
        p = KeyedPayload(4096, lbn_key=1, fho_key=FhoKey(2, 1, 0))
        s = p.slice(10, 10)
        assert s.lbn_key == 1
        assert s.fho_key == FhoKey(2, 1, 0)

    def test_with_lbn_adds_key(self):
        p = KeyedPayload(4096, fho_key=FhoKey(2, 1, 0), base_offset=7)
        q = p.with_lbn(3)
        assert q.lbn_key == 3
        assert q.fho_key == p.fho_key
        assert q.base_offset == 7

    def test_physical_copy_keeps_keys(self):
        p = KeyedPayload(64, lbn_key=1)
        q = p.physical_copy()
        assert q is not p and q.lbn_key == p.lbn_key


class TestChunk:
    def make_chunk(self, nbytes=4096, key=None):
        chain = chain_from_payload(VirtualPayload(1, 0, nbytes), 1448)
        return chunk_of_buffers(0 if key is None else key, list(chain))

    def test_length_and_payload(self):
        chunk = self.make_chunk()
        assert chunk.length == 4096
        assert chunk.payload().materialize() == \
            VirtualPayload(1, 0, 4096).materialize()

    def test_payload_cached(self):
        chunk = self.make_chunk()
        assert chunk.payload() is chunk.payload()

    def test_needs_buffers(self):
        with pytest.raises(ValueError):
            chunk_of_buffers(0, [])

    def test_footprint_includes_descriptors(self):
        chunk = self.make_chunk()
        footprint = chunk.footprint(160, 64)
        assert footprint == 4096 + 3 * 160 + 64

    def test_pin_unpin(self):
        chunk = self.make_chunk()
        assert not chunk.pinned
        chunk.pin()
        chunk.pin()
        assert chunk.pinned
        chunk.unpin()
        assert chunk.pinned
        chunk.unpin()
        assert not chunk.pinned

    def test_unpin_unpinned_rejected(self):
        with pytest.raises(RuntimeError):
            self.make_chunk().unpin()

    def test_dirty_flag_and_hint(self):
        chunk = chunk_of_buffers(
            FhoKey(1, 1, 0), [NetBuffer(payload=BytesPayload(b"x" * 4096))],
            dirty=True, lbn_hint=77)
        assert chunk.dirty
        assert chunk.lbn_hint == 77
