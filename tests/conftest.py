"""Shared fixtures: the checked-execution harness for repro.check."""

import pytest

from repro import Machine, MachineParams, run_program
from repro.check import install_checkers


@pytest.fixture
def checked_run():
    """Run a program under the race detector and invariant sanitizer.

    Usage::

        def build(machine):
            seg = machine.alloc(1024, "x")
            def program(dsm, rank, nprocs):
                yield from dsm.touch_write(seg.base, 64)
            return program

        report = checked_run(build, protocol="hlrc", nprocs=2)

    ``build(machine)`` does the allocation/placement and returns the
    program; the checkers are installed before the program runs.
    Returns the :class:`~repro.check.CheckReport`.
    """

    def _run(
        build,
        *,
        protocol="hlrc",
        granularity=256,
        nprocs=2,
        race_granularity="word",
        **machine_kw,
    ):
        machine = Machine(
            MachineParams(n_nodes=nprocs, granularity=granularity),
            protocol=protocol,
            **machine_kw,
        )
        program = build(machine)
        checkers = install_checkers(machine, race_granularity=race_granularity)
        run_program(machine, program, nprocs=nprocs)
        return checkers.report()

    return _run
