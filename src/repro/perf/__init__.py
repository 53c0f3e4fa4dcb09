"""Measurement helpers for the cell benchmark (``benchmarks/cells/``).

:mod:`repro.perf.micros` holds the stats-sha fingerprint and the
interpreter-speed calibration probe.  Nothing here runs a simulation or
changes one, so the package is outside ``code_fingerprint()``.  See
docs/PERFORMANCE.md for how performance is measured.
"""
