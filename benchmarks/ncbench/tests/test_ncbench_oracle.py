"""The in-flight output oracle's rules, on hand-made replies."""

from types import SimpleNamespace

import pytest

from ncbench import oracle
from repro.net.buffer import BytesPayload

BLOCK = oracle.BLOCK


class Image:
    """Just enough of FsImage: block ``b`` of inode ``i`` starts as the
    byte ``i + b`` repeated."""

    def inode(self, ino):
        return SimpleNamespace(ino=ino)

    def file_payload(self, inode, offset, length):
        data = b"".join(bytes([(inode.ino + (offset + i) // BLOCK) & 0xFF])
                        for i in range(length))
        return BytesPayload(data)


def reply(data, status=0):
    return SimpleNamespace(
        message=SimpleNamespace(status=status, header_size=0),
        chain=SimpleNamespace(payload=lambda: BytesPayload(data)))


def written(byte, blocks=1):
    return BytesPayload(bytes([byte]) * (BLOCK * blocks))


@pytest.fixture
def checker(monkeypatch):
    monkeypatch.setattr(oracle, "SAMPLE_EVERY", 1)
    made = oracle.Oracle()
    made.image = Image()
    return made


def initial(ino, first_block, blocks=1):
    return Image().file_payload(SimpleNamespace(ino=ino),
                                first_block * BLOCK,
                                blocks * BLOCK).materialize()


def test_never_written_extent_must_be_the_files_initial_content(checker):
    checker.check_read(7, 2 * BLOCK, 2 * BLOCK, reply(initial(7, 2, 2)), 0)
    assert (checker.verified, checker.mismatched) == (1, 0)
    checker.check_read(7, 2 * BLOCK, 2 * BLOCK, reply(initial(7, 3, 2)), 0)
    assert (checker.verified, checker.mismatched) == (2, 1)
    checker.check_read(7, 0, BLOCK, reply(initial(7, 0), status=70), 0)
    assert checker.mismatched == 2


def test_last_acknowledged_write_wins_block_by_block(checker):
    checker._write_started(7, BLOCK, 2 * BLOCK)
    checker._write_acked(7, BLOCK, written(0xEE, 2))
    good = initial(7, 0) + bytes([0xEE]) * (2 * BLOCK) + initial(7, 3)
    checker.check_read(7, 0, 4 * BLOCK, reply(good), checker.seq)
    assert (checker.verified, checker.mismatched) == (1, 0)
    stale = initial(7, 0, 4)
    checker.check_read(7, 0, 4 * BLOCK, reply(stale), checker.seq)
    assert checker.mismatched == 1


def test_reads_racing_a_write_are_skipped_not_judged(checker):
    # A WRITE still in flight when the reply arrives.
    checker._write_started(7, 0, BLOCK)
    checker.check_read(7, 0, BLOCK, reply(b"?" * BLOCK), checker.seq)
    assert (checker.skipped, checker.verified) == (1, 0)
    checker._write_acked(7, 0, written(0x11))
    # A WRITE that started and finished while the READ was out.
    issued = checker.seq
    checker._write_started(7, 0, BLOCK)
    checker._write_acked(7, 0, written(0x22))
    checker.check_read(7, 0, BLOCK, reply(b"?" * BLOCK), issued)
    assert (checker.skipped, checker.verified) == (2, 0)
    # Issued after it all settled: judged again.
    checker.check_read(7, 0, BLOCK, reply(bytes([0x22]) * BLOCK),
                       checker.seq)
    assert (checker.verified, checker.mismatched) == (1, 0)


def test_overlapping_writes_may_land_in_either_order(checker):
    checker._write_started(7, 0, BLOCK)
    checker._write_acked(7, 0, written(0x01))
    checker._write_started(7, 0, BLOCK)     # A
    checker._write_started(7, 0, BLOCK)     # B overlaps A
    checker._write_acked(7, 0, written(0x0B))
    checker._write_acked(7, 0, written(0x0A))
    for byte, mismatches in ((0x0A, 0), (0x0B, 0), (0x01, 1)):
        checker.check_read(7, 0, BLOCK, reply(bytes([byte]) * BLOCK),
                           checker.seq)
        assert checker.mismatched == mismatches
    # A later write that overlaps nothing settles the block again.
    checker._write_started(7, 0, BLOCK)
    checker._write_acked(7, 0, written(0x0C))
    checker.check_read(7, 0, BLOCK, reply(bytes([0x0A]) * BLOCK),
                       checker.seq)
    assert checker.mismatched == 2


def test_only_one_reply_in_sample_every_is_materialised(monkeypatch):
    monkeypatch.setattr(oracle, "SAMPLE_EVERY", 4)
    checker = oracle.Oracle()
    checker.image = Image()
    for _ in range(12):
        checker.check_read(7, 0, BLOCK, reply(initial(7, 0)), 0)
    assert (checker.replies, checker.verified) == (12, 3)


def test_nothing_is_judged_before_the_image_is_known():
    checker = oracle.Oracle()
    checker.check_read(7, 0, BLOCK, reply(b"x" * BLOCK), 0)
    assert (checker.replies, checker.verified, checker.mismatched) \
        == (0, 0, 0)
