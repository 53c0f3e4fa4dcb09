"""Experiment harness: run configurations, sweep matrices, and the
table/figure emitters that regenerate the paper's evaluation.

The package re-exports only :mod:`repro.harness.experiment`'s names;
sweeps live in :mod:`repro.harness.matrix` (``from repro.harness import
matrix``), which pulls in the process pool, so importing one cell's
machinery does not.
"""

from repro.harness.experiment import RunConfig, RunResult, run_experiment

__all__ = [
    "RunConfig",
    "RunResult",
    "run_experiment",
]
