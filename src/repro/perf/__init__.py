"""Home of :mod:`repro.perf.enginebench`, the scheduler microkernels.

The repository's benchmark is ``benchmarks/ncbench``; its ``kernels.py``
imports ``run_engine_bench`` from this path, which is why the module
lives here.
"""
