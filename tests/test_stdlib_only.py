"""The simulator needs nothing beyond the standard library.

Extent content (``pattern_bytes``) is pure Python, and the package
declares no runtime dependency.  A fresh interpreter with ``numpy``
poisoned in ``sys.modules`` (so any ``import numpy`` raises) builds an
NFS testbed, serves one READ, and byte-checks the materialized reply.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

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
print("ok")
"""


def test_one_nfs_read_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", SCENARIO], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_package_declares_no_runtime_dependencies():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                         re.MULTILINE | re.DOTALL)
    assert declared is not None
    assert declared.group(1).strip() == ""
