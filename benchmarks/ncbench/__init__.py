"""ncbench: the repository's benchmark (see README.md in this directory).

Harness modules live in this package; ``run.py`` is the entry point.
Nothing here is collected by the tier-1 suite or by ``pytest
benchmarks/`` (no ``test_*``/``bench_*`` module names outside
``tests/``).
"""
