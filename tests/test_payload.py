"""Payload abstraction: byte equivalence of all representations."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import FhoKey, KeyedPayload, LbnKey
from repro.net.buffer import (
    BytesPayload,
    CompositePayload,
    ExtentPayload,
    JunkPayload,
    PlaceholderPayload,
    VirtualPayload,
    apply_discipline,
    concat,
    flatten_payload,
    pattern_bytes,
)
from repro.copymodel import CopyDiscipline
from repro.sim.rng import substream


class TestPatternBytes:
    def test_deterministic(self):
        assert pattern_bytes(7, 100, 64) == pattern_bytes(7, 100, 64)

    def test_tag_changes_content(self):
        assert pattern_bytes(1, 0, 64) != pattern_bytes(2, 0, 64)

    def test_offset_consistency(self):
        whole = pattern_bytes(5, 0, 256)
        assert pattern_bytes(5, 100, 56) == whole[100:156]

    def test_empty(self):
        assert pattern_bytes(1, 0, 0) == b""

    @given(tag=st.integers(0, 2**63), offset=st.integers(0, 10_000),
           length=st.integers(0, 512))
    @settings(max_examples=50)
    def test_length_always_exact(self, tag, offset, length):
        assert len(pattern_bytes(tag, offset, length)) == length

    @given(offset=st.integers(0, 1000), cut=st.integers(0, 100),
           length=st.integers(0, 100))
    @settings(max_examples=50)
    def test_slicing_commutes_with_materialization(self, offset, cut, length):
        whole = pattern_bytes(3, offset, cut + length)
        assert pattern_bytes(3, offset + cut, length) == whole[cut:]

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            pattern_bytes(1, -8, 16)
        with pytest.raises(ValueError):
            VirtualPayload(1, -8, 16).materialize()


_M64 = (1 << 64) - 1


def _reference_pattern_bytes(tag, offset, length):
    """splitmix64 one word at a time on plain ints: word ``w`` is mixed
    from the seed ``w * 0x2545F4914F6CDD1D + tag``, little-endian."""
    out = bytearray()
    for word in range(offset >> 3, (offset + length + 7) >> 3):
        z = (word * 0x2545F4914F6CDD1D + tag + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out += (z ^ (z >> 31)).to_bytes(8, "little")
    start = offset & 7
    return bytes(out[start:start + length])


#: SHA-256 of ``pattern_bytes(tag, offset, length)`` as the earlier
#: numpy implementation produced it: the content of every extent is
#: pinned across rewrites of the content function.
KNOWN_DIGESTS = [
    ((0, 0, 1),
     "5a6e7a4754af8e7f47fc9493040d853e7b01e39d537cb1dd353c93b7ae58eb3d"),
    ((1, 0, 8),
     "60c336aab08cf3f29dd703dc4059ee6cd2c0d48c80b6ea2fc38de2dfa533a4bf"),
    ((7, 100, 64),
     "b636fdc95dbdf5ce5d2dbb057a0fe9879630e2bf571ca60f131c5eb4f98ada61"),
    ((-1, 3, 4093),
     "933e68fd736716f893329549b5702565ef8a31927df04b25efa74681abcd5794"),
    ((2**64, 0, 4096),
     "6915b501cf65d0c9868acbb8a2c0aa6a0b9fea36002777eb422f0f872a51f15b"),
    ((2**64 + 5, 4095, 4098),
     "2502a97db4f1624a6447b442d73144c9ba49aec91aacfa19b7b8f502cdbeb967"),
    ((-(2**63), 2**40, 32768),
     "90783d59896da029877bf7e2ce79de71ed9164e74dac378c8a5134d0e005a726"),
    ((0x9E3779B97F4A7C15, 12345, 70_000),
     "dc09b993f8799e22f7725680baec3ce110379ef740bdfa56cf51c819d9f37aa6"),
    ((42, 2**40 - 9, 17),
     "7ed572f901e26c9ad74a2b43936b475d7e126438dde03dc6af00c56d49d8c109"),
    ((3, 4096 * 7 + 1, 8191),
     "f012b699d65a644ee79cf531e0194969220388e5203624d7d4000cc2b23c6fa2"),
    ((2**70 + 11, 5, 1 << 20),
     "2c06fc9b882e6bacc23cbb56a1edbfb1d4f543c02ef2f97332f19affb0f05fa8"),
    ((-12345678901234567890, 2**33 + 7, 65536),
     "5a50950a59df1bfd97992b236818c95f5d89ac2dcf64be5f9a00eda48fdb04eb"),
]


class TestContentIdentity:
    @pytest.mark.parametrize("args,digest", KNOWN_DIGESTS,
                             ids=["/".join(map(str, args))
                                  for args, _ in KNOWN_DIGESTS])
    def test_known_answers(self, args, digest):
        assert hashlib.sha256(pattern_bytes(*args)).hexdigest() == digest

    @given(tag=st.one_of(st.integers(-(2**70), -1), st.just(0),
                         st.integers(2**64, 2**80)),
           offset=st.integers(0, 2**40),
           length=st.one_of(st.integers(0, 70_000),
                            st.sampled_from([4095, 4096, 4097, 8192, 8193])))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reference(self, tag, offset, length):
        assert pattern_bytes(tag, offset, length) == \
            _reference_pattern_bytes(tag, offset, length)


class TestBytesPayload:
    def test_roundtrip(self):
        p = BytesPayload(b"hello world")
        assert p.materialize() == b"hello world"
        assert p.length == 11

    def test_slice(self):
        p = BytesPayload(b"hello world")
        assert p.slice(6, 5).materialize() == b"world"

    def test_slice_bounds_checked(self):
        p = BytesPayload(b"abc")
        with pytest.raises(ValueError):
            p.slice(2, 5)
        with pytest.raises(ValueError):
            p.slice(-1, 1)

    def test_physical_copy_equal_but_distinct(self):
        p = BytesPayload(b"data")
        q = p.physical_copy()
        assert q is not p
        assert q.same_bytes(p)


class TestVirtualPayload:
    def test_materialize_matches_pattern(self):
        p = VirtualPayload(9, 50, 100)
        assert p.materialize() == pattern_bytes(9, 50, 100)

    def test_slice_preserves_absolute_offsets(self):
        p = VirtualPayload(9, 0, 1000)
        assert p.slice(200, 100).materialize() == p.materialize()[200:300]

    def test_nested_slices(self):
        p = VirtualPayload(4, 0, 1000).slice(100, 800).slice(50, 200)
        assert p.materialize() == pattern_bytes(4, 150, 200)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            VirtualPayload(1, 0, -5)

    def test_equal_descriptors_materialize_equal(self):
        p = VirtualPayload(2, 0, 4096)
        assert p.materialize() == p.materialize()
        q = VirtualPayload(2, 0, 4096)
        assert p.materialize() == q.materialize()


class TestComposite:
    def test_concatenation_bytes(self):
        p = concat([BytesPayload(b"ab"), VirtualPayload(1, 0, 4),
                    BytesPayload(b"yz")])
        expected = b"ab" + pattern_bytes(1, 0, 4) + b"yz"
        assert p.materialize() == expected

    def test_concat_collapses_single(self):
        single = BytesPayload(b"x")
        assert concat([single]) is single

    def test_concat_drops_empty(self):
        p = concat([BytesPayload(b""), BytesPayload(b"a"), BytesPayload(b"")])
        assert isinstance(p, BytesPayload)

    def test_nested_composites_flatten(self):
        inner = concat([BytesPayload(b"ab"), BytesPayload(b"cd")])
        outer = CompositePayload([inner, BytesPayload(b"ef")])
        assert len(outer.parts) == 3
        assert outer.materialize() == b"abcdef"

    def test_slice_across_parts(self):
        p = CompositePayload([BytesPayload(b"abcd"), BytesPayload(b"efgh"),
                              BytesPayload(b"ijkl")])
        assert p.slice(2, 8).materialize() == b"cdefghij"

    def test_slice_single_part_collapses(self):
        p = CompositePayload([BytesPayload(b"abcd"), BytesPayload(b"efgh")])
        sliced = p.slice(4, 4)
        assert isinstance(sliced, BytesPayload)

    @given(parts=st.lists(st.binary(min_size=0, max_size=20), min_size=1,
                          max_size=8),
           data=st.data())
    @settings(max_examples=60)
    def test_slice_equals_bytes_slice(self, parts, data):
        p = CompositePayload([BytesPayload(b) for b in parts])
        whole = p.materialize()
        if p.length == 0:
            return
        offset = data.draw(st.integers(0, p.length))
        length = data.draw(st.integers(0, p.length - offset))
        assert p.slice(offset, length).materialize() == \
            whole[offset:offset + length]


def _random_leaf(rng):
    """One leaf of a seeded mix.  Extents and placeholders are drawn from
    a handful of sources / keys and small aligned ranges, so neighbours
    are often contiguous views of one thing — the mergeable-looking case."""
    kind = rng.choice(("extent", "extent", "keyed", "keyed", "bytes", "junk"))
    offset, length = 8 * rng.randrange(4), 8 * rng.randint(1, 3)
    if kind == "extent":
        return ExtentPayload(rng.choice((7, 9)), offset, length,
                             generation=rng.choice((0, 0, 1)),
                             mem=rng.choice((None, None, -5)))
    if kind == "keyed":
        return KeyedPayload(length, lbn_key=LbnKey(0, rng.randrange(2)),
                            fho_key=rng.choice((None, FhoKey(1, 1, 0))),
                            base_offset=offset)
    if kind == "bytes":
        return BytesPayload(bytes(rng.randrange(256) for _ in range(length)))
    return JunkPayload(length)


def _random_parts(rng, n):
    """``n`` parts: leaves, runs of adjacent slices of one leaf (what
    transport fragmentation hands back), empties, and composites."""
    parts = []
    while len(parts) < n:
        leaf = _random_leaf(rng)
        roll = rng.random()
        if roll < 0.3:
            cut = rng.randrange(1, leaf.length)
            parts += [leaf.slice(0, cut), leaf.slice(cut, leaf.length - cut)]
        elif roll < 0.4:
            parts.append(BytesPayload(b""))
        elif roll < 0.6:
            parts.append(CompositePayload(
                [_random_leaf(rng) for _ in range(rng.randint(2, 4))]))
        else:
            parts.append(leaf)
    return parts


def _describe(leaf):
    """Everything that distinguishes one leaf descriptor from another."""
    fields = [type(leaf), leaf.length]
    for name in ("source", "offset", "generation", "mem", "data",
                 "lbn_key", "fho_key", "base_offset"):
        fields.append(getattr(leaf, name, None))
    return tuple(fields)


def _assert_same_leaves(got, expected, inputs):
    """Part for part: an input leaf that survives is the *same object*
    (payloads are shared, never re-described); a leaf the reference had
    to build (a merge, a partial slice) matches field for field."""
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        if id(theirs) in inputs:
            assert mine is theirs
        else:
            assert id(mine) not in inputs
            assert _describe(mine) == _describe(theirs)


def _reference_concat(parts):
    """``concat`` before it learnt what cannot merge: every leaf is put
    to the extent-merge test, whatever it is."""
    flat = []
    for part in parts:
        leaves = part.parts if isinstance(part, CompositePayload) else [part]
        for leaf in leaves:
            if leaf.length == 0:
                continue
            prev = flat[-1] if flat else None
            if (type(leaf) is ExtentPayload and type(prev) is ExtentPayload
                    and (prev.source, prev.mem, prev.generation,
                         prev.offset + prev.length)
                    == (leaf.source, leaf.mem, leaf.generation, leaf.offset)):
                flat[-1] = ExtentPayload(prev.source, prev.offset,
                                         prev.length + leaf.length,
                                         prev.generation, prev.mem)
            else:
                flat.append(leaf)
    return flat


def _reference_slice(parts, offset, length):
    """``CompositePayload.slice`` by linear scan: whole parts are shared,
    cut parts are sliced, nothing is special-cased."""
    picked, start = [], 0
    for part in parts:
        lo = max(offset, start) - start
        hi = min(offset + length, start + part.length) - start
        if lo < hi:
            picked.append(part if (lo, hi) == (0, part.length)
                          else part.slice(lo, hi - lo))
        start += part.length
    return picked


def _assert_flat(payload):
    """The invariant the single leaf walk rests on."""
    if isinstance(payload, CompositePayload):
        for part in payload.parts:
            assert not isinstance(part, CompositePayload)
            assert part.length > 0
        assert payload.length == sum(p.length for p in payload.parts)
    assert list(flatten_payload(payload)) == (
        list(payload.parts) if isinstance(payload, CompositePayload)
        else [payload] if payload.length else [])


@pytest.mark.parametrize("seed", range(40))
class TestFlatPartListProperties:
    def test_concat_matches_the_merge_everything_reference(self, seed):
        rng = substream(seed, "concat-reference")
        for _ in range(10):
            parts = _random_parts(rng, rng.randint(1, 8))
            inputs = {id(leaf) for part in parts
                      for leaf in flatten_payload(part)}
            expected = _reference_concat(parts)
            got = concat(parts)
            _assert_flat(got)
            _assert_same_leaves(flatten_payload(got), expected, inputs)
            assert got.materialize() == \
                b"".join(p.materialize() for p in parts)
            # Extents merged iff contiguous in one source, memory and
            # generation: no mergeable neighbours are left behind.
            leaves = flatten_payload(got)
            for a, b in zip(leaves, leaves[1:]):
                if type(a) is type(b) is ExtentPayload:
                    assert (a.source, a.mem, a.generation,
                            a.offset + a.length) != \
                        (b.source, b.mem, b.generation, b.offset)

    def test_full_slice_is_the_composite_and_every_other_is_rebuilt(
            self, seed):
        rng = substream(seed, "slice-reference")
        whole = CompositePayload(_random_parts(rng, rng.randint(2, 5)))
        inputs = {id(part) for part in whole.parts}
        assert whole.slice(0, whole.length) is whole
        step = rng.choice((1, 3, 4))
        for offset in range(0, whole.length, step):
            for length in range(1, whole.length - offset + 1, step):
                if length == whole.length:
                    continue
                got = whole.slice(offset, length)
                assert got is not whole
                _assert_flat(got)
                _assert_same_leaves(
                    flatten_payload(got),
                    _reference_slice(whole.parts, offset, length), inputs)

    def test_no_composite_ever_holds_a_composite(self, seed):
        rng = substream(seed, "flat-invariant")
        pool = _random_parts(rng, 6)
        for _ in range(40):
            op = rng.choice(("concat", "concat", "wrap", "slice", "split",
                             "copy"))
            if op == "concat":
                made = [concat(rng.choices(pool, k=rng.randint(1, 4)))]
            elif op == "wrap":
                made = [CompositePayload(
                    rng.choices(pool, k=rng.randint(1, 4)))]
            else:
                victim = rng.choice(pool)
                if victim.length == 0:
                    continue
                if op == "slice":
                    offset = rng.randrange(victim.length)
                    made = [victim.slice(
                        offset, rng.randint(1, victim.length - offset))]
                elif op == "split":
                    made = victim.split(rng.randint(1, victim.length + 1))
                    assert sum(p.length for p in made) == victim.length
                else:
                    made = [victim.physical_copy()]
            for payload in made:
                _assert_flat(payload)
            pool += made


class TestJunkAndPlaceholder:
    def test_junk_is_constant_content(self):
        assert JunkPayload(4).materialize() == b"\xAA" * 4

    def test_junk_slice_is_junk(self):
        assert isinstance(JunkPayload(10).slice(2, 4), JunkPayload)

    def test_placeholder_is_junk_subclass(self):
        assert issubclass(PlaceholderPayload, JunkPayload)

    def test_junk_is_not_placeholder(self):
        assert not isinstance(JunkPayload(4), PlaceholderPayload)


class TestApplyDiscipline:
    def test_physical_copies(self):
        p = BytesPayload(b"abc")
        q = apply_discipline(p, CopyDiscipline.PHYSICAL)
        assert q is not p and q.same_bytes(p)

    def test_logical_shares(self):
        p = BytesPayload(b"abc")
        assert apply_discipline(p, CopyDiscipline.LOGICAL) is p

    def test_zero_returns_junk(self):
        p = BytesPayload(b"abc")
        q = apply_discipline(p, CopyDiscipline.ZERO)
        assert isinstance(q, JunkPayload)
        assert q.length == 3

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError):
            apply_discipline(BytesPayload(b"x"), "weird")
