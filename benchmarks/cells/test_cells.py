"""Self-tests of the cell benchmark, on tiny cells.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/cells
"""

from __future__ import annotations

import json
import time

import cells
import compare
import pytest
import run
import spans
from repro.harness.experiment import RunConfig
from repro.net.myrinet import Network

TINY = RunConfig("water-nsquared", "swlrc", 1024, scale="tiny")


def traced(op):
    tracer = spans.Tracer()
    with spans.patch_classes(tracer, mc=isinstance(op, cells.McCell)):
        out = cells.run_op(op, tracer)
    return out, tracer


@pytest.mark.parametrize(
    "op",
    [
        TINY,
        RunConfig("lu", "hlrc", 1024, scale="tiny", faults=cells.chaos_spec(1)),
        cells.McCell("mp", "sc"),
    ],
    ids=lambda op: op.label(),
)
def test_traced_run_is_bit_identical(op):
    out, tracer = traced(op)
    assert tracer.root_s > 0
    assert out["observed"] == cells.run_op(op)["observed"]


def test_layer_self_times_sum_to_root():
    _, tracer = traced(TINY)
    layers = {k: v for k, v in tracer.self_s.items() if k != spans.ROOT}
    assert set(layers) <= set(spans.REPORTED_SPANS)
    assert sum(layers.values()) == pytest.approx(tracer.root_s, rel=0.01)


def test_planted_slowdown_is_named(monkeypatch):
    base = traced(TINY)[1].self_s
    send = Network.send

    def slow_send(self, msg):
        end = time.perf_counter() + 20e-6
        while time.perf_counter() < end:
            pass
        return send(self, msg)

    monkeypatch.setattr(Network, "send", slow_send)
    slow = traced(TINY)[1].self_s
    deltas = {k: slow[k] - base.get(k, 0.0) for k in slow}
    assert max(deltas, key=deltas.get) == "net"


def test_corrupted_pin_is_a_failure():
    op = RunConfig("lu", "sc", 1024)
    record = {
        "seed": 0,
        "ops": [{"label": op.label(), "kind": "cell", "errors": [None],
                 "observed": [cells.run_op(op)["observed"]]}],
    }
    expected = json.loads(run.EXPECTED.read_text())
    assert run.check_record(record, expected)[:2] == (1, 0)
    expected[op.label()] = "0" * 16
    attempted, failed, lines = run.check_record(record, expected)
    assert failed / attempted > 0
    assert lines[0].startswith(f"FAIL {op.label()}")


def test_repinning_one_workload_keeps_the_others(tmp_path):
    path = tmp_path / "expected.json"
    path.write_text(run.EXPECTED.read_text())
    before = json.loads(path.read_text())

    def fake_run(name, seed, seconds, traced):
        ops = cells.workload_ops(name, seed)
        return {"ops": [{"label": op.label(), "errors": [None], "observed": ["new"]}
                        for op in ops]}

    run.write_expected(["mc-mp"], keep_others=True, path=path, run=fake_run)
    after = json.loads(path.read_text())
    repinned = {op.label() for op in cells.workload_ops("mc-mp", 0)}
    assert set(after) == set(before)
    for label, pin in after.items():
        assert pin == ("new" if label in repinned else before[label])


def test_run_length_comes_from_the_spec(capsys):
    spec = json.loads(run.SPEC.read_text())
    assert run.main(["--seconds", str(spec["run_seconds"] + 1)]) == 2
    assert "run_seconds" in capsys.readouterr().err


def test_workloads_match_spec():
    spec = json.loads(run.SPEC.read_text())
    assert list(cells.WORKLOADS) == [w["name"] for w in spec["workloads"]]


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "no worse"
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    # crashing early is faster, but more failures is never a gain
    faster = [v * 0.5 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, failed=(0, 3))[0] == "failed"
    assert compare.verdict(parent, faster, "lower", 0.1, failed=(3, 3))[0] == "improved"
    # the same commit across a host slowdown is not a regression
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1, spin=(0.04, 0.052))[0] == "unresolved"
    assert compare.verdict(parent, slower, "lower", 0.1, spin=(0.04, 0.041))[0] == "regressed"
