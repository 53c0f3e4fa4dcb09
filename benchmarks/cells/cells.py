"""The benchmark's workloads and the code that runs one in-process.

A workload is a list of operations: simulator cells
(:class:`~repro.harness.experiment.RunConfig`) or model-checker
explorations (:class:`McCell`).  :func:`run_workload` builds and runs
each operation, times set-up and execution separately, and returns a
JSON-ready record of timings, observations (stats-sha or exploration
summary) and simulated counters.  It never decides pass/fail: pins are
checked by ``run.py``, so ``--write-expected`` can reuse the same path.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.apps import make_app
from repro.cluster.config import MachineParams, NotificationMechanism
from repro.cluster.machine import Machine
from repro.harness.experiment import RunConfig
from repro.net.faultplan import FaultSpec
from repro.perf.micros import _stats_sha as stats_sha
from repro.perf.micros import calibration_spin
from repro.runtime.program import run_program
from repro.stats.breakdown import CATEGORIES, breakdown
from repro.stats.counters import protocol_metadata

from spans import Tracer, instrument, patch_classes

PROTOCOLS = ("sc", "swlrc", "hlrc", "tardis")
#: fewest passes of a measured run: per-operation medians of three
#: samples ride out the host's slow spells, which last a few seconds
MIN_PASSES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.harness.experiment, repro.mc.explore; "
    "print(time.perf_counter() - t)"
)
IMPORT_TIMEOUT_S = 60
#: engine event budget per cell: a livelocked cell fails in well under
#: the run's time limit instead of hanging (real cells need < 1M)
MAX_EVENTS = 10_000_000


@dataclass(frozen=True)
class McCell:
    """One exhaustive DPOR exploration of a litmus test."""

    litmus: str
    protocol: str
    granularity: int = 64

    def label(self) -> str:
        return f"mc/{self.litmus}/{self.protocol}-{self.granularity}"


Op = Union[RunConfig, McCell]


def chaos_spec(seed: int) -> FaultSpec:
    return FaultSpec(seed=seed, drop_prob=0.02, dup_prob=0.01, reorder_prob=0.02)


def _grid(apps, granularity: int, **kw) -> List[RunConfig]:
    return [RunConfig(a, p, granularity, **kw) for a in apps for p in PROTOCOLS]


#: workload name -> seed -> operations (why each exists: BENCHMARK.json)
WORKLOADS: Dict[str, Callable[[int], List[Op]]] = {
    "paper16": lambda seed: _grid(("lu", "ocean-rowwise", "water-nsquared"), 1024),
    "fine64": lambda seed: _grid(("barnes-original",), 64),
    "scale1024": lambda seed: _grid(("ocean-rowwise",), 1024, nprocs=1024, scale="tiny"),
    "mc-mp": lambda seed: [McCell("mp", p) for p in PROTOCOLS],
    "chaos16": lambda seed: _grid(("lu", "ocean-rowwise"), 1024, faults=chaos_spec(seed)),
}


def workload_ops(name: str, seed: int) -> List[Op]:
    """The workload's operations in the seed's order."""
    ops = WORKLOADS[name](seed)
    random.Random(seed).shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# one simulator cell
# ----------------------------------------------------------------------
def build_cell(cfg: RunConfig):
    """``run_experiment``'s set-up, timed: (app, machine, timings)."""
    t0 = time.perf_counter()
    app = make_app(cfg.app, scale=cfg.scale)
    t1 = time.perf_counter()
    machine = Machine(
        MachineParams(
            n_nodes=cfg.nprocs,
            granularity=cfg.granularity,
            mechanism=NotificationMechanism(cfg.mechanism),
        ),
        protocol=cfg.protocol,
        poll_dilation=app.poll_dilation,
        max_events=MAX_EVENTS,
        faults=cfg.faults,
    )
    t2 = time.perf_counter()
    app.setup(machine)
    t3 = time.perf_counter()
    return app, machine, {"app": (t1 - t0) + (t3 - t2), "machine": t2 - t1}


def _cell_counts(machine, stats, nprocs: int) -> Dict[str, float]:
    """Simulated counters of a finished cell (deterministic)."""
    nodes = stats.nodes
    transport = getattr(stats, "transport", None)
    meta = protocol_metadata(machine)
    bd = breakdown(stats, nprocs)
    out = {
        "events": machine.engine.events_run,
        "msgs": stats.total_messages,
        "bytes": stats.total_traffic_bytes,
        "local_msgs": stats.local_msgs,
        "retransmits": transport.retransmits if transport else 0,
        "dup_suppressed": transport.dup_suppressed if transport else 0,
        "data_sent": transport.data_sent if transport else 0,
        "read_faults": stats.read_faults,
        "write_faults": stats.write_faults,
        "invalidations": stats.invalidations,
        "forwarded_requests": stats.forwarded_requests,
        "write_notices_applied": stats.write_notices_applied,
        "diffs_created": stats.diffs_created,
        "diff_bytes": stats.diff_bytes,
        "lock_acquires": sum(n.lock_acquires for n in nodes),
        "barriers": sum(n.barriers for n in nodes),
        "meta_bytes": meta.meta_bytes,
        "meta_blocks": meta.blocks,
        "simtime_total_us": bd.total_us,
    }
    for cat in CATEGORIES:
        out[f"simtime_{cat}_us"] = bd[cat] * bd.total_us
    return out


def _run_cell(cfg: RunConfig, tracer: Optional[Tracer]):
    app, machine, built = build_cell(cfg)
    program = app.program
    call = run_program
    if tracer is not None:
        instrument(machine, tracer)
        program = tracer.wrap_gen("apps", program)
        call = tracer.root(run_program)
    seq_us = app.sequential_time_us()
    gc.collect()
    t0 = time.perf_counter()
    result = call(machine, program, nprocs=cfg.nprocs, sequential_time_us=seq_us)
    run_s = time.perf_counter() - t0
    stats = result.stats
    return {
        "build_s": built["app"] + built["machine"],
        "machine_s": built["machine"],
        "app_s": built["app"],
        "run_s": run_s,
        "observed": stats_sha(result),
        "speedup": stats.speedup,
        "counts": _cell_counts(machine, stats, cfg.nprocs),
    }


# ----------------------------------------------------------------------
# one model-checker exploration
# ----------------------------------------------------------------------
def _build_mc(cell: McCell):
    from repro.mc import Explorer, get_litmus

    t0 = time.perf_counter()
    ex = Explorer(get_litmus(cell.litmus), cell.protocol, cell.granularity)
    return ex, time.perf_counter() - t0


def _run_mc(cell: McCell, tracer: Optional[Tracer]):
    ex, build_s = _build_mc(cell)
    call = ex.run if tracer is None else tracer.root(ex.run)
    gc.collect()
    t0 = time.perf_counter()
    res = call()
    run_s = time.perf_counter() - t0
    observed = {
        "schedules": res.schedules,
        "complete": res.complete,
        "outcomes": sorted(" ".join(map(str, o)) for o in res.outcomes),
        "forbidden": sum(res.forbidden.values()),
        "check_failures": res.check_failures,
    }
    counts = {"schedules": res.schedules, "transitions": res.transitions,
              "events": res.transitions}
    return {"build_s": build_s, "machine_s": 0.0, "app_s": 0.0, "run_s": run_s,
            "observed": observed, "speedup": None, "counts": counts}


# ----------------------------------------------------------------------
# a workload
# ----------------------------------------------------------------------
def run_op(op: Op, tracer: Optional[Tracer] = None) -> dict:
    """Build and run one operation (under spans when ``tracer`` is given;
    the caller holds :func:`~spans.patch_classes` open around it).
    Returns the set-up times ``build_s`` (= ``machine_s`` + ``app_s``),
    ``run_s``, ``observed``, ``speedup`` and ``counts``."""
    if isinstance(op, McCell):
        return _run_mc(op, tracer)
    return _run_cell(op, tracer)


def _execute(op: Op, rec: dict, tracer: Optional[Tracer]) -> None:
    # A machine is a reference cycle: free the last operation's before
    # building this one, or the peak RSS depends on the operation order.
    gc.collect()
    try:
        out = run_op(op, tracer)
    except Exception as exc:  # noqa: BLE001 - one bad cell must not end the run
        rec["errors"].append(f"{type(exc).__name__}: {exc}")
        rec["observed"].append(None)
        return
    rec["errors"].append(None)
    rec["observed"].append(out["observed"])
    for key in ("build_s", "machine_s", "app_s", "run_s"):
        rec[key].append(out[key])
    rec["speedup"] = out["speedup"]
    rec["counts"] = out["counts"]


def import_seconds() -> float:
    """Import time of the simulator in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE,
                         text=True, check=True, timeout=IMPORT_TIMEOUT_S).stdout
    return float(out.split()[-1])


def spin_seconds() -> float:
    """Seconds of ``repro.perf``'s fixed interpreter-speed probe."""
    t0 = time.perf_counter()
    calibration_spin()
    return time.perf_counter() - t0


def context() -> dict:
    """Host facts recorded next to every run (not metrics)."""
    from repro import simcore
    from repro.harness.calibration import max_microbench_error, max_table1_error

    return {
        "loadavg": list(os.getloadavg()),
        "simcore_backend": simcore.BACKEND,
        "python": platform.python_version(),
        "calibration_spin_s": statistics.median(spin_seconds() for _ in range(3)),
        "max_table1_error": max_table1_error(),
        "max_microbench_error": max_microbench_error(),
    }


def run_workload(name: str, seed: int, seconds: Optional[float] = None,
                 traced: bool = False) -> dict:
    """Run one workload in this process and return its record.

    Untraced: whole passes over the operations, each pass one import
    probe and then every operation built and run, until at least
    :data:`MIN_PASSES` passes ran and one more would end past
    ``seconds``; with ``seconds`` None, one pass.  Set-up and run are
    timed apart in every pass, so each gets one sample per pass, spread
    over the run like the host's slow spells.  Traced: one pass under
    spans.
    """
    ops = workload_ops(name, seed)
    recs = [
        {"label": op.label(), "kind": "mc" if isinstance(op, McCell) else "cell",
         "build_s": [], "machine_s": [], "app_s": [], "run_s": [],
         "errors": [], "observed": [], "speedup": None, "counts": {}}
        for op in ops
    ]
    tracer = None
    passes = 0
    import_s: List[float] = []
    if traced:
        tracer = Tracer()
        with patch_classes(tracer, mc=name == "mc-mp"):
            for op, rec in zip(ops, recs):
                _execute(op, rec, tracer)
        passes = 1
    else:
        start = time.perf_counter()
        while True:
            import_s.append(import_seconds())
            for op, rec in zip(ops, recs):
                _execute(op, rec, None)
            passes += 1
            elapsed = time.perf_counter() - start
            if seconds is None or (
                passes >= MIN_PASSES and elapsed + elapsed / passes > seconds
            ):
                break
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "passes": passes,
        "import_s": import_s,
        "ops": recs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["spans"] = dict(tracer.self_s)
        out["span_counts"] = dict(tracer.counts)
        out["root_s"] = tracer.root_s
    return out
