"""Robustness bench: how the granularity preference moves with the
platform's cost constants.

Two sweeps on LU under SC (the cleanest single-writer prefetching
case):

* **fault exception cost up** (5 us -> 80 us, toward SVM): coarse
  blocks take ~4x fewer faults, so their relative advantage must grow
  monotonically -- the cost-structure reason page-based SVM systems
  use pages.
* **per-byte network cost up** (x1 -> x4): coarse blocks move 64x the
  bytes per miss, so their advantage must shrink -- the reason
  hardware DSMs with fast links use cache lines.

The paper's platform sits in between, which is exactly why it finds no
single best combination.
"""

from conftest import emit
from repro.harness.sensitivity import granularity_preference, sweep_parameter
from repro.harness.tables import fmt_table

from bench_faults_common import bench_one_run


def _emit_sweep(title, points, ratios):
    rows = [
        (f"x{p.multiplier:g}", f"{p.value:.3g}",
         f"{p.speedups[64]:.2f}", f"{p.speedups[4096]:.2f}", f"{r:.2f}")
        for p, r in zip(points, ratios)
    ]
    emit(title, fmt_table(
        ["scale", "value (us)", "speedup @64B", "speedup @4096B",
         "4096/64 ratio"],
        rows,
    ))


def test_fault_cost_pushes_toward_coarse_blocks(benchmark, scale):
    points = sweep_parameter(
        app="lu", field="fault_exception_us",
        multipliers=[1, 4, 16], protocol="sc",
        granularities=[64, 4096], scale=scale,
    )
    ratios = granularity_preference(points, fine=64, coarse=4096)
    _emit_sweep(
        "Sensitivity: access-fault cost vs granularity preference (LU, SC)",
        points, ratios,
    )
    assert ratios == sorted(ratios), ratios  # monotonically toward coarse
    assert ratios[-1] > ratios[0] * 1.2
    bench_one_run(benchmark, "lu", scale)


def test_network_byte_cost_pushes_toward_fine_blocks(benchmark, scale):
    points = sweep_parameter(
        app="lu", field="net_per_byte_us",
        multipliers=[0.25, 1, 4], protocol="sc",
        granularities=[64, 4096], scale=scale,
    )
    ratios = granularity_preference(points, fine=64, coarse=4096)
    _emit_sweep(
        "Sensitivity: per-byte network cost vs granularity preference (LU, SC)",
        points, ratios,
    )
    assert ratios == sorted(ratios, reverse=True), ratios
    assert ratios[0] > ratios[-1] * 1.05
    bench_one_run(benchmark, "lu", scale)
