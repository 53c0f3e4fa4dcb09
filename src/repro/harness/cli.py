"""Command-line interface: ``repro-dsm`` (or ``python -m repro.harness.cli``).

Subcommands:

* ``run`` -- one experiment, printing the stats summary.
* ``figure1`` -- the full speedup matrix for the selected apps.
* ``faults`` -- a Tables-3-13-style fault table for one application.
* ``hm`` -- the Table 16/17 harmonic-mean statistics.
* ``calibrate`` -- Table 1 and network-microbenchmark calibration.
* ``classify`` -- the measured Table 2 classification.
* ``report`` -- run the matrix and write a full markdown report.
* ``check`` -- run cells under the race detector and protocol-invariant
  sanitizer (:mod:`repro.check`); exit 1 on any finding.
* ``chaos`` -- degradation curves under seeded interconnect faults
  (:mod:`repro.harness.chaos`): speedup vs drop rate per protocol and
  granularity, with the reliable transport recovering losses; exit 1
  if any cell failed.
* ``analyze`` -- static labeling/DRF verification of the app corpus
  (:mod:`repro.analyze`): concrete locksets and barrier clocks from a
  small-scope exploration, false-sharing prediction per granularity,
  and (``--concordance``) a cross-tab against the dynamic checkers;
  exit 1 on any unsuppressed finding.
* ``mc`` -- exhaustive small-scope model checking (:mod:`repro.mc`):
  enumerate event interleavings of tiny litmus programs under a
  controllable scheduler (with dynamic partial-order reduction) and
  check every schedule against the protocol's memory model and the
  invariant sanitizer; exit 1 on forbidden outcomes or findings
  (budget-capped cells are reported, not failures).
* ``scale`` -- node-count scaling sweep (:mod:`repro.harness.scale`):
  speedup and per-block coherence-metadata bytes vs N for every
  registered protocol, the measured curve behind the O(N)-vs-O(1)
  metadata separation; exit 1 if any cell failed.

Every subcommand that runs cells (figure1, faults, hm, report, check,
chaos, scale, analyze --concordance) runs them through
:func:`repro.exec.pool.execute_many` and takes the same execution
options: ``-j/--jobs``, ``--cache-dir``, ``--no-cache``, ``--events``,
``--timeout`` and ``--check`` (run every cell under the checkers;
cells with findings are recorded as failed).
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APP_NAMES, APP_REGISTRY, ORIGINAL_8, VERSION_GROUPS
from repro.cluster.config import GRANULARITIES
from repro.core.registry import available_protocols, scaling_protocols
from repro.harness.calibration import microbenchmark_rows, table1_rows
from repro.harness.experiment import RunConfig, run_experiment
from repro.harness.figures import figure1
from repro.harness.matrix import PROTOCOLS, SpeedupMatrix, sweep
from repro.harness.tables import fault_table, fmt_table, hm_table_text, speedup_table
from repro.stats.relative_efficiency import best_version_speedups, hm_table


def _csv(text, default, conv=str) -> list:
    """A comma-separated option as a list, or ``default`` when unset."""
    return [conv(x) for x in text.split(",")] if text else list(default)


def _add_common(p: argparse.ArgumentParser, mechanism: bool = True) -> None:
    p.add_argument("--scale", default="default", choices=["tiny", "default", "full"])
    p.add_argument("--nprocs", type=int, default=16)
    if mechanism:
        p.add_argument("--mechanism", default="polling",
                       choices=["polling", "interrupt"])


def _add_exec(p: argparse.ArgumentParser) -> None:
    """Execution-engine knobs for the sweeping subcommands."""
    p.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for the sweep (default 1 = in-process)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default ~/.cache/repro-dsm)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    p.add_argument(
        "--events", default=None, metavar="FILE",
        help="append a JSONL event log of the sweep to FILE",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock limit; a cell over budget is recorded "
             "as failed instead of aborting the sweep",
    )
    p.add_argument(
        "--check", action="store_true",
        help="run every cell under the race detector and invariant "
             "sanitizer; cells with findings are recorded as failed "
             "(always on for check and analyze --concordance)",
    )


def _event_log(args):
    from repro.exec import EventLog

    return EventLog(args.events) if args.events else None


def _exec_options(args, events=None) -> dict:
    """The execute_many knobs (jobs, cache, events, timeout, check)
    from the _add_exec flags; ``events`` reuses an open log."""
    from repro.exec import ResultCache

    return dict(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        events=events or _event_log(args),
        timeout=args.timeout,
        check=args.check,
    )


def _progress(s: str) -> None:
    print(f"  running {s}", file=sys.stderr)


def _output(text: str, path, what: str) -> None:
    """Print ``text``, or write it to ``path`` and note that on stderr."""
    if not path:
        print(text)
        return
    with open(path, "w") as fh:
        fh.write(text.rstrip("\n") + "\n")
    print(f"{what} written to {path}", file=sys.stderr)


def cmd_run(args) -> int:
    cfg = RunConfig(
        app=args.app,
        protocol=args.protocol,
        granularity=args.granularity,
        mechanism=args.mechanism,
        nprocs=args.nprocs,
        scale=args.scale,
    )
    result = run_experiment(cfg)
    print(f"# {cfg.label()}")
    for k, v in result.stats.summary().items():
        print(f"{k:22s} {v}")
    return 0


def cmd_figure1(args) -> int:
    apps = _csv(args.apps, APP_NAMES)
    results = sweep(apps, mechanism=args.mechanism, scale=args.scale,
                    nprocs=args.nprocs, progress=_progress,
                    **_exec_options(args))
    print(speedup_table(results, apps, "Figure 1: speedups on 16 nodes"))
    print()
    print(figure1(results, apps))
    return 0


def cmd_faults(args) -> int:
    results = sweep([args.app], mechanism=args.mechanism, scale=args.scale,
                    nprocs=args.nprocs, **_exec_options(args))
    print(fault_table(results, args.app, f"Fault counts: {args.app}"))
    return 0


def cmd_hm(args) -> int:
    apps = ORIGINAL_8 if args.which == "original" else APP_NAMES
    results = sweep(apps, mechanism=args.mechanism, scale=args.scale,
                    nprocs=args.nprocs, **_exec_options(args))
    matrix = SpeedupMatrix(results)
    speedups = matrix.speedups()
    if args.which == "best":
        speedups = best_version_speedups(
            speedups, VERSION_GROUPS, PROTOCOLS, GRANULARITIES
        )
        apps = list(VERSION_GROUPS)
    hm = hm_table(speedups, apps, PROTOCOLS, GRANULARITIES)
    title = (
        "Table 16: HM of relative efficiency (original 8 applications)"
        if args.which == "original"
        else "Table 17: HM of relative efficiency (best versions)"
    )
    print(hm_table_text(hm, title))
    return 0


def cmd_calibrate(args) -> int:
    rows = [
        (a, s, f"{p:.2f}", f"{m:.2f}", f"{r:.3f}")
        for a, s, p, m, r in table1_rows()
    ]
    print(fmt_table(
        ["Benchmark", "Problem size", "Paper (s)", "Model (s)", "ratio"],
        rows,
        "Table 1 calibration",
    ))
    print()
    rows = [
        (f"{sz}B", f"{p:.1f}", f"{m:.1f}", f"{r:.3f}")
        for sz, p, m, r in microbenchmark_rows()
    ]
    print(fmt_table(
        ["Message", "Paper RT (us)", "Model RT (us)", "ratio"],
        rows,
        "Section 3 network microbenchmark",
    ))
    return 0


def cmd_classify(args) -> int:
    from repro.stats import classify_app

    rows = []
    for name in APP_NAMES:
        c = classify_app(name, scale=args.scale, nprocs=args.nprocs)
        app = APP_REGISTRY[name]
        rows.append(
            (
                name,
                c.writers,
                c.access_grain,
                f"{c.comp_per_sync_us / 1000:.2f}",
                c.barriers,
                c.sync_grain,
                f"(paper: {app.writers}/{app.access_grain}/{app.sync_grain})",
            )
        )
    print(fmt_table(
        ["Application", "Writers", "Access", "Comp/Sync (ms)", "Barriers",
         "Sync", "Paper says"],
        rows,
        "Table 2: measured classification",
    ))
    return 0


def cmd_check(args) -> int:
    """Run cells under the checkers; exit 1 on any finding."""
    from repro.exec import execute_many

    configs = [
        RunConfig(app=app, protocol=proto, granularity=args.granularity,
                  mechanism=args.mechanism, nprocs=args.nprocs,
                  scale=args.scale)
        for app in _csv(args.apps, ORIGINAL_8)
        for proto in _csv(args.protocols, scaling_protocols())
    ]
    options = {**_exec_options(args), "check": args.race_granularity}
    failed = 0
    for cfg, rec in execute_many(configs, **options).items():
        if rec.ok:
            fs = rec.check["false_sharing"]
            extras = f"  ({fs} false-sharing pair(s))" if fs else ""
            print(f"ok   {cfg.label()}{extras}")
        else:
            failed += 1
            print(f"FAIL {cfg.label()} ({rec.error_type})")
            for line in rec.error.splitlines():
                print(f"     {line}")
    if failed:
        print(f"{failed} cell(s) with findings or failures", file=sys.stderr)
        return 1
    print("all cells clean")
    return 0


def cmd_analyze(args) -> int:
    """Static labeling / DRF verification; exit 1 on findings."""
    from repro.analyze.api import analyze_corpus
    from repro.analyze.report import render

    events = _event_log(args)
    try:
        if args.canary:
            from repro.analyze.api import CorpusAnalysis
            from repro.analyze.canary import canary_analysis

            corpus = CorpusAnalysis(apps=[canary_analysis(args.nprocs)])
        else:
            kwargs = {"nprocs": args.nprocs, "scale": args.scale}
            if args.granularities:
                kwargs["granularities"] = _csv(args.granularities, (), int)
            corpus = analyze_corpus(_csv(args.apps, ()) or None, **kwargs)
        print(render(corpus, json_path=args.json, events=events,
                     fs_top=args.fs_top))

        if args.concordance:
            import json as _json

            from repro.analyze.concordance import run_concordance

            options = _exec_options(args, events)
            del options["check"]  # the concordance checks at its own units
            conc = run_concordance(
                _csv(args.apps, ()) or None,
                protocols=_csv(args.protocol, ["hlrc"]),
                granularities=[args.granularity],
                nprocs=args.nprocs,
                scale=args.scale,
                progress=lambda s: print(f"  {s}", file=sys.stderr),
                **options,
            )
            print()
            print(conc.describe())
            if args.concordance_json:
                _output(_json.dumps(conc.to_dict(), sort_keys=True, indent=1),
                        args.concordance_json, "concordance")
            if events is not None:
                events.emit("analyze_concordance", ok=conc.ok,
                            cells=len(conc.cells))
            if not conc.ok:
                return 1
        return 0 if corpus.ok else 1
    finally:
        if events is not None:
            events.close()


def cmd_chaos(args) -> int:
    """Chaos degradation sweep; exit 1 if any cell failed."""
    from repro.harness.chaos import DEFAULT_RATES, chaos_section, chaos_sweep

    apps = _csv(args.apps, ["lu", "ocean-rowwise"])
    protocols = _csv(args.protocols, PROTOCOLS)
    grans = _csv(args.granularities, GRANULARITIES, int)
    rates = _csv(args.rates, DEFAULT_RATES, float)
    results = chaos_sweep(
        apps,
        protocols=protocols,
        granularities=grans,
        rates=rates,
        seed=args.seed,
        dup_prob=args.dup,
        reorder_prob=args.reorder,
        mechanism=args.mechanism,
        scale=args.scale,
        nprocs=args.nprocs,
        progress=_progress,
        **_exec_options(args),
    )
    _output(chaos_section(results, apps, protocols, grans, rates), args.out,
            "chaos report")
    failed = sum(1 for r in results.values() if not r.ok)
    if failed:
        print(f"{failed} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_mc(args) -> int:
    """Model-check litmus programs; exit 1 on verified findings."""
    from repro.mc import Explorer, get_litmus, litmus_names
    from repro.mc.report import (
        describe_failures,
        reduction_lines,
        results_table,
        to_json,
        write_json,
    )

    names = litmus_names() if args.litmus == "all" else _csv(args.litmus, ())
    try:
        for name in names:
            get_litmus(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    protocols = _csv(args.protocols, scaling_protocols())
    grans = _csv(args.granularity, (), int)
    events = _event_log(args)

    results = []
    naive = []
    for name in names:
        lit = get_litmus(name)
        for proto in protocols:
            for g in grans:
                print(f"  exploring {name}/{proto}/g{g}"
                      f"{'' if args.dpor else ' (naive)'}", file=sys.stderr)
                r = Explorer(
                    lit, proto, g,
                    dpor=args.dpor,
                    max_schedules=args.max_schedules,
                    max_steps=args.max_steps,
                ).run()
                results.append(r)
                if events is not None:
                    events.emit(
                        "mc_cell",
                        litmus=name, protocol=proto, granularity=g,
                        dpor=r.dpor, schedules=r.schedules,
                        transitions=r.transitions, complete=r.complete,
                        ok=r.ok,
                    )
                    if r.counterexample is not None:
                        events.emit(
                            "mc_counterexample",
                            **r.counterexample.to_dict(),
                        )
                if args.compare:
                    n = Explorer(
                        lit, proto, g,
                        dpor=False,
                        max_schedules=args.max_schedules,
                        max_steps=args.max_steps,
                    ).run()
                    naive.append(n)

    print(results_table(results))
    if args.compare:
        print()
        for line in reduction_lines(results, naive):
            print(line)
    failures = describe_failures(results)
    if failures:
        print()
        for line in failures:
            print(line, file=sys.stderr)
    if args.json:
        write_json(args.json, to_json(results, naive if args.compare else None))
        print(f"mc results written to {args.json}", file=sys.stderr)
    if events is not None:
        events.close()
    return 1 if failures else 0


def cmd_report(args) -> int:
    from repro.harness.report import generate_report

    text = generate_report(
        scale=args.scale,
        nprocs=args.nprocs,
        apps=_csv(args.apps, ()) or None,
        progress=_progress,
        **_exec_options(args),
    )
    _output(text, args.out, "report")
    return 0


def cmd_scale(args) -> int:
    """Node-count scaling sweep; exit 1 if any cell failed."""
    from repro.harness.scale import (
        NODE_COUNTS,
        SCALE_APPS,
        SCALE_GRANULARITIES,
        render_scale_report,
        scale_sweep,
    )

    report = scale_sweep(
        _csv(args.apps, SCALE_APPS),
        protocols=_csv(args.protocols, scaling_protocols()),
        granularities=_csv(args.granularities, SCALE_GRANULARITIES, int),
        node_counts=_csv(args.nodes, NODE_COUNTS, int),
        scale=args.scale,
        mechanism=args.mechanism,
        progress=_progress,
        **_exec_options(args),
    )
    _output(render_scale_report(report), args.out, "scaling report")
    if args.json:
        _output(report.to_json(), args.json, "scaling data")
    if report.failed:
        print(f"{len(report.failed)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro-dsm", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("app", choices=APP_NAMES)
    p.add_argument("protocol", choices=sorted(available_protocols()))
    p.add_argument("granularity", type=int, choices=list(GRANULARITIES))
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("figure1", help="speedup matrix")
    p.add_argument("--apps", default=None, help="comma-separated app subset")
    _add_common(p)
    _add_exec(p)
    p.set_defaults(fn=cmd_figure1)

    p = sub.add_parser("faults", help="fault table for one app")
    p.add_argument("app", choices=APP_NAMES)
    _add_common(p)
    _add_exec(p)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("hm", help="Table 16/17 statistics")
    p.add_argument("which", choices=["original", "best"])
    _add_common(p)
    _add_exec(p)
    p.set_defaults(fn=cmd_hm)

    p = sub.add_parser("calibrate", help="Table 1 + microbenchmark calibration")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("classify", help="measured Table 2 classification")
    _add_common(p, mechanism=False)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser(
        "check",
        help="race-detect and invariant-check cells (exit 1 on findings)",
    )
    p.add_argument("--apps", default=None,
                   help="comma-separated app subset (default: the original 8)")
    p.add_argument("--protocols", default=None,
                   help="comma-separated protocol subset "
                        "(default: sc,swlrc,hlrc,tardis)")
    p.add_argument("--granularity", type=int, default=4096,
                   choices=list(GRANULARITIES))
    p.add_argument("--race-granularity", default="word",
                   help='race-detection unit: "byte", "word", "block" '
                        "or a byte count (default word)")
    _add_common(p)
    _add_exec(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "analyze",
        help="static labeling/DRF verification and false-sharing "
             "prediction (exit 1 on findings)",
    )
    p.add_argument("--apps", default=None,
                   help="comma-separated app subset (default: all 12)")
    p.add_argument("--nprocs", type=int, default=4,
                   help="ranks for the small-scope exploration (default 4)")
    p.add_argument("--scale", default="tiny",
                   choices=["tiny", "default", "full"],
                   help="problem scale to explore (default tiny)")
    p.add_argument("--granularities", default=None,
                   help="comma-separated coherence granularities for the "
                        "false-sharing prediction (default 64..8192)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the full analysis as JSON to FILE")
    p.add_argument("--fs-top", type=int, default=10,
                   help="rows in the false-sharing ranking (default 10)")
    p.add_argument("--canary", action="store_true",
                   help="analyze the planted mislabeled canary app instead "
                        "of the corpus (must exit 1 -- used by CI to prove "
                        "the gate can fail)")
    p.add_argument("--concordance", action="store_true",
                   help="also run the dynamic checkers per cell and "
                        "cross-tabulate static vs dynamic findings")
    p.add_argument("--protocol", default="hlrc",
                   help="comma-separated protocols for --concordance "
                        "(default hlrc)")
    p.add_argument("--granularity", type=int, default=1024,
                   help="coherence granularity for --concordance cells "
                        "(default 1024)")
    p.add_argument("--concordance-json", default=None, metavar="FILE",
                   help="write the concordance cross-tab as JSON to FILE")
    _add_exec(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "chaos",
        help="degradation curves under seeded interconnect faults "
             "(exit 1 on failed cells)",
    )
    p.add_argument("--apps", default=None,
                   help="comma-separated app subset (default: lu,ocean-rowwise)")
    p.add_argument("--protocols", default=None,
                   help="comma-separated protocol subset (default: sc,swlrc,hlrc)")
    p.add_argument("--granularities", default=None,
                   help="comma-separated granularity subset (default: all)")
    p.add_argument("--rates", default=None,
                   help="comma-separated drop probabilities "
                        "(default: 0,0.01,0.02,0.05; 0 = trusted wire)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (same seed => bit-identical sweep)")
    p.add_argument("--dup", type=float, default=0.01,
                   help="duplicate probability for the faulted cells")
    p.add_argument("--reorder", type=float, default=0.02,
                   help="bounded-reorder probability for the faulted cells")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the chaos report to FILE instead of stdout")
    _add_common(p)
    _add_exec(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "mc",
        help="model-check litmus programs over all schedules "
             "(exit 1 on forbidden outcomes or checker findings)",
    )
    p.add_argument("--litmus", default="all",
                   help="comma-separated litmus subset (default: all; "
                        "sb, mp, lb, iriw, lock-handoff, barrier-reset)")
    p.add_argument("--protocols", "--protocol", dest="protocols", default=None,
                   help="comma-separated protocol subset "
                        "(default: sc,swlrc,hlrc,tardis)")
    p.add_argument("--granularity", default="64",
                   help="comma-separated coherence granularities in bytes "
                        "(default: 64)")
    p.add_argument("--max-schedules", type=int, default=5000,
                   help="schedule budget per cell; a cell over budget is "
                        "reported as incomplete, not failed (default 5000)")
    p.add_argument("--max-steps", type=int, default=20000,
                   help="per-schedule event budget (default 20000)")
    p.add_argument("--dpor", dest="dpor", action="store_true", default=True,
                   help="dynamic partial-order reduction (default)")
    p.add_argument("--no-dpor", dest="dpor", action="store_false",
                   help="naive DFS over every enabled choice")
    p.add_argument("--compare", action="store_true",
                   help="also run the naive DFS and print the per-cell "
                        "DPOR reduction")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write results (and --compare data) as JSON to FILE")
    p.add_argument("--events", default=None, metavar="FILE",
                   help="append mc_cell/mc_counterexample events to the "
                        "JSONL log FILE")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("report", help="full markdown reproduction report")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--apps", default=None, help="comma-separated app subset")
    _add_common(p)
    _add_exec(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "scale",
        help="node-count scaling sweep: speedup and per-block metadata "
             "bytes vs N (exit 1 on failed cells)",
    )
    p.add_argument("--apps", default=None,
                   help="comma-separated app subset (default: lu,ocean-rowwise)")
    p.add_argument("--protocols", default=None,
                   help="comma-separated protocol subset "
                        "(default: the registry's scaling set "
                        "sc,swlrc,hlrc,tardis)")
    p.add_argument("--granularities", default=None,
                   help="comma-separated granularity subset (default: 1024,4096)")
    p.add_argument("--nodes", default=None,
                   help="comma-separated node counts "
                        "(default: 16,64,128,512,1024)")
    p.add_argument("--scale", default="tiny",
                   choices=["tiny", "default", "full"],
                   help="problem scale (default tiny -- the metadata and "
                        "trend curves are insensitive to problem size)")
    p.add_argument("--mechanism", default="polling",
                   choices=["polling", "interrupt"])
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the markdown report to FILE instead of stdout")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the raw sweep data as JSON to FILE")
    _add_exec(p)
    p.set_defaults(fn=cmd_scale)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
