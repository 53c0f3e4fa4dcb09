"""Installation and reporting surface of the checker subsystem.

Typical use (also what ``run_experiment(cfg, check=True)`` and the
``repro-dsm check`` CLI subcommand do)::

    machine = Machine(params, protocol="hlrc")
    checkers = install_checkers(machine, race_granularity="word")
    app.setup(machine)
    run_program(machine, app.program, ...)
    report = checkers.report()
    if not report.ok:
        print(report.describe())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.race import Race, RaceDetector, resolve_unit


@dataclass
class CheckReport:
    """Everything the checkers found in one run.

    ``races``/``false_sharing``/``violations`` are capped at the
    installer's ``max_reports``; the ``*_total`` counters keep the true
    (deduplicated) counts."""

    races: List[Race] = field(default_factory=list)
    false_sharing: List[Race] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    races_total: int = 0
    false_sharing_total: int = 0
    violations_total: int = 0

    @property
    def ok(self) -> bool:
        """No races, no invariant violations (false sharing is a
        performance report, not a correctness failure)."""
        return self.races_total == 0 and self.violations_total == 0

    def summary(self) -> Dict:
        """The JSON-safe digest a :class:`~repro.exec.RunRecord` keeps:
        the three totals plus the ``basename:line`` application sites
        of every reported true race."""
        return {
            "races": self.races_total,
            "false_sharing": self.false_sharing_total,
            "violations": self.violations_total,
            # a location reads like "ocean.py:123 in program"
            "race_sites": sorted({
                side.location.split(" in ")[0]
                for race in self.races
                for side in (race.earlier, race.later)
            }),
        }

    def describe(self) -> str:
        lines: List[str] = []
        if self.races_total:
            lines.append(f"{self.races_total} data race(s):")
            lines.extend(f"  {r.describe()}" for r in self.races)
            if self.races_total > len(self.races):
                lines.append(
                    f"  ... {self.races_total - len(self.races)} more"
                )
        if self.violations_total:
            lines.append(
                f"{self.violations_total} protocol-invariant violation(s), "
                f"{len(self.violations)} distinct:"
            )
            lines.extend(f"  {v.describe()}" for v in self.violations)
        if self.false_sharing_total:
            lines.append(
                f"{self.false_sharing_total} false-sharing pair(s) "
                "(unordered accesses to disjoint bytes of one unit; "
                "not a correctness failure):"
            )
            lines.extend(f"  {r.describe()}" for r in self.false_sharing)
        if not lines:
            return "check clean: no races, no invariant violations"
        return "\n".join(lines)


class CheckFailure(RuntimeError):
    """Raised by checked executions configured to fail on findings."""

    def __init__(self, report: CheckReport, label: str = ""):
        self.report = report
        self.label = label
        prefix = f"{label}: " if label else ""
        super().__init__(
            f"{prefix}{report.races_total} race(s), "
            f"{report.violations_total} invariant violation(s)\n"
            + report.describe()
        )


class Checkers:
    """Handle over the checkers installed on one machine."""

    def __init__(
        self,
        machine,
        race: Optional[RaceDetector],
        invariants: Optional[InvariantChecker],
    ):
        self.machine = machine
        self.race = race
        self.invariants = invariants
        self._finished = False

    def report(self) -> CheckReport:
        """Finalize (idempotently) and collect all findings."""
        if not self._finished:
            self._finished = True
            if self.invariants is not None:
                self.invariants.end_of_run()
        out = CheckReport()
        if self.race is not None:
            out.races = list(self.race.races)
            out.false_sharing = list(self.race.false_sharing)
            out.races_total = self.race.races_total
            out.false_sharing_total = self.race.false_sharing_total
        if self.invariants is not None:
            out.violations = list(self.invariants.violations)
            out.violations_total = self.invariants.violations_total
        return out


def install_checkers(
    machine,
    *,
    races: bool = True,
    invariants: bool = True,
    race_granularity="word",
    max_reports: int = 100,
) -> Checkers:
    """Install the race detector and/or invariant sanitizer on a
    machine (before the program runs).

    ``race_granularity`` is ``"byte"``, ``"word"``, ``"block"`` or a
    byte count: the detection-unit size that decides what counts as one
    conflict location (block-level detection also surfaces false
    sharing; see :mod:`repro.check.race`).
    """
    detector = None
    if races:
        unit = resolve_unit(race_granularity, machine.params.granularity)
        detector = RaceDetector(
            machine.params.n_nodes,
            unit,
            machine.engine,
            max_reports=max_reports,
        )
    sanitizer = None
    if invariants:
        sanitizer = InvariantChecker(machine, max_reports=max_reports)
    # One call, so an existing composite collapses once for both.
    machine.add_hooks(*(h for h in (detector, sanitizer) if h is not None))
    return Checkers(machine, detector, sanitizer)
