"""The cell benchmark's span entry points stay on the message path.

``benchmarks/cells/spans.py`` attributes host time by wrapping entry
points of a live machine and counting their calls.  A refactor that lets
messages bypass one of them (a handler table reached without
``protocol.on_message``, a delivery that skips ``node.deliver``) would
silently zero or skew those counters.  These tests run small cells with
the spans installed, as the benchmark does, and check the counters
against the simulator's own totals and against a hooks subscriber.
The benchmark module is imported read-only.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import Machine, MachineParams, run_program
from repro.apps import make_app
from repro.hooks import Hooks

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "cells" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_cell_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


class _CountHandled(Hooks):
    def __init__(self):
        self.handled = 0

    def on_protocol_message(self, node_id, msg):
        self.handled += 1


@pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc", "tardis"])
@pytest.mark.parametrize("app_name", ["lu", "water-nsquared"])
def test_span_counters_match_simulator_totals(app_name, protocol):
    app = make_app(app_name, scale="tiny")
    machine = Machine(
        MachineParams(n_nodes=4, granularity=1024),
        protocol=protocol,
        poll_dilation=app.poll_dilation,
    )
    app.setup(machine)
    seen = _CountHandled()
    machine.add_hooks(seen)
    tracer = spans.Tracer()
    spans.instrument(machine, tracer)
    with spans.patch_classes(tracer):
        result = tracer.root(run_program)(
            machine,
            tracer.wrap_gen("apps", app.program),
            nprocs=4,
            sequential_time_us=app.sequential_time_us(),
        )
    counts = tracer.counts
    stats = result.stats
    sends = counts["net.sends"]
    assert sends > 0
    # trusted wire: every send, remote or node-local, is delivered once
    assert sends == counts["cluster.deliveries"]
    assert sends == stats.total_messages + stats.local_msgs
    # every handled protocol message went through protocol.on_message
    assert counts["core.handler_calls"] == seen.handled > 0
    assert counts["runtime.region_ops"] > 0
