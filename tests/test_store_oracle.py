"""The paper's store against the real one (``tests/store_oracle.py``),
at the hypothesis profile's size: tier-1's default, CI's ``wide``."""

from unittest import mock

import pytest
from hypothesis import settings

from repro.core import FhoKey, NCacheStore

from store_oracle import CAPACITY, StoreMachine

TestStoreAgreesWithPaperStore = StoreMachine.TestCase
TestStoreAgreesWithPaperStore.settings = settings(deadline=None)


def test_a_victim_its_writeback_leaves_dirty_fails_the_insert():
    """Writebacks take simulated time, so an insert that would write one
    victim back forever ends its bounded run, and the rule fails."""
    machine = StoreMachine()
    for n in range(CAPACITY):
        machine.nfs_write(FhoKey(n, 1, 0), n)
    with mock.patch.object(NCacheStore, "remap", lambda *args: None), \
            pytest.raises(AssertionError, match="still running"):
        machine.nfs_write(FhoKey(CAPACITY, 1, 0), CAPACITY)
