"""The perf ledger: one runner, four workloads, nine end-to-end metrics
and a per-layer breakdown.  See README.md in this directory.

Everything here measures the program from outside — timed calls into
public functions, the always-on ``repro.obs`` registry, ``pager_stats()``
— and touches no file under ``src/``.
"""
