"""The simulator needs nothing beyond the standard library, and loads
only what it runs.

Extent content (``pattern_bytes``) is pure Python, and the package
declares no runtime dependency.  A fresh interpreter with ``numpy``
poisoned in ``sys.modules`` (so any ``import numpy`` raises) builds an
NFS testbed, serves one READ, and byte-checks the materialized reply.

The same interpreter imports ``repro.experiments``, draws from a
``substream`` and routes keys over a ``HashRing``, and must not have
loaded OpenSSL's ``_hashlib`` (SHA-256 comes from the interpreter's
builtin module) or ``multiprocessing`` (the process pool is imported
only for a parallel sweep).  The draw and the owners are values
recorded before ``stable_hash64`` replaced ``hashlib``, so every seed
and ring point stays bit-identical.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.rng import stable_hash64

REPO_ROOT = Path(__file__).resolve().parents[1]

SCENARIO = """
import sys
sys.modules["numpy"] = None

from repro.fs import BLOCK_SIZE
from repro.nfs import read_reply_data
from repro.servers import TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start

testbed = TestbedSpec.nfs(flush_interval_s=None).build()
inode = testbed.image.create_file("f", 4 * BLOCK_SIZE)
testbed.setup()
fh = testbed.file_handle("f")
proc = start(testbed.sim, testbed.clients[0].read(fh, BLOCK_SIZE, 2 * BLOCK_SIZE))
run_until_complete(testbed.sim, proc)
got = read_reply_data(proc.value).materialize()
want = testbed.image.file_payload(inode, BLOCK_SIZE, 2 * BLOCK_SIZE).materialize()
assert len(got) == 2 * BLOCK_SIZE and got == want

import repro.experiments
from repro.fleet.hashring import HashRing
from repro.sim.rng import substream

rng = substream(7, "clients", 3)
assert [rng.getrandbits(32) for _ in range(3)] == \\
    [3899162970, 1715568793, 2180503249]
ring = HashRing([0, 1, 2, 3])
assert [ring.owners(key, 2) for key in range(8)] == \\
    [[0, 1], [1, 2], [0, 1], [1, 2], [1, 0], [0, 2], [0, 3], [3, 0]]

loaded = {"_hashlib", "multiprocessing", "concurrent.futures"} & set(sys.modules)
assert not loaded, sorted(loaded)
print("ok")
"""


def run_fresh(source: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_one_nfs_read_runs_without_numpy():
    assert run_fresh(SCENARIO) == "ok"


def test_the_engine_does_not_load_the_testbed():
    assert run_fresh(
        "import sys, repro.sim.engine; "
        "print('repro.servers' in sys.modules)") == "False"


@pytest.mark.parametrize("label", [
    "", "x", "0/n3/v17", "0/kblk/42", "(7, 'clients', 3)", "naïve ∑ label"])
def test_stable_hash64_is_the_sha256_prefix(label):
    want = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    assert stable_hash64(label) == want


def test_package_declares_no_runtime_dependencies():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                         re.MULTILINE | re.DOTALL)
    assert declared is not None
    assert declared.group(1).strip() == ""
