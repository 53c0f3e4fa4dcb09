"""Bit-identity: every golden cell's stats-sha equals its pin in
tests/golden_shas.json, under the native event loop and under the
DefaultPolicy loop.  The 16-node cells are checked per app by
test_scaling::test_fingerprint_matrix_bit_identical, the rest here.
``python tools/golden_shas.py`` prints the same diff; ``--write``
re-pins after a deliberate behaviour change."""

import importlib.util
from pathlib import Path

from repro.cluster.machine import Machine
from repro.sim import DefaultPolicy


def _load_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "golden_shas.py"
    spec = importlib.util.spec_from_file_location("golden_shas", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


golden = _load_tool()


def assert_golden(configs):
    """Run ``configs`` through execute_many (one process, no cache) and
    diff their shas against their pins."""
    labels = {cfg.label() for cfg in configs}
    pinned = {k: v for k, v in golden.load_pinned().items() if k in labels}
    assert golden.diff(pinned, golden.observed_shas(configs)) == []


def test_golden_file_pins_exactly_the_golden_cells():
    labels = [cfg.label() for cfg in golden.golden_configs()]
    assert list(golden.load_pinned()) == labels


def test_golden_cells_bit_identical():
    """Every golden cell not at 16 nodes: 4, 128 and 1024 nodes."""
    assert_golden([c for c in golden.golden_configs() if c.nprocs != 16])


def test_default_policy_matches_golden(monkeypatch):
    """The 4-node golden cells under DefaultPolicy match the same pins.

    The policy-driven loop re-sorts the ready set per dispatch; if its
    merge order ever diverged from the native two-lane fast path, every
    stats fingerprint downstream would silently shift.  This is the
    contract that makes mc exploration results transferable to
    production runs.
    """
    orig = Machine.__init__
    built = []

    def with_policy(self, *a, **k):
        orig(self, *a, **k)
        self.engine.set_policy(DefaultPolicy())
        built.append(self.params.n_nodes)

    monkeypatch.setattr(Machine, "__init__", with_policy)
    configs = [c for c in golden.golden_configs() if c.nprocs == 4]
    assert_golden(configs)
    assert len(built) == len(configs)
