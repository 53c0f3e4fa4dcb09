"""Ablation benches for the design decisions DESIGN.md calls out.

1. First-touch home migration vs purely static homes: migration
   reduces remote traffic for partition-affine applications.
2. Eager-ack HLRC releases: the blocking diff flush is what makes
   HLRC synchronization expensive (Barnes-Original effect); measure
   how much of the release time it accounts for.
3. Write-notice run-length compression: contiguous-writer applications
   (Ocean) depend on it; scattered-writer applications (Barnes) see
   no benefit.
"""

from conftest import emit
from repro.core.timestamps import IntervalLog
from repro.harness.experiment import RunConfig, run_experiment
from repro.harness.tables import fmt_table

from bench_faults_common import bench_one_run


def test_ablation_first_touch_placement(benchmark, scale):
    """Compare an application with its natural placement against one
    with every segment placed on node 0 (no first-touch layout)."""
    import repro.apps  # noqa: F401  (registry)
    from repro.apps import make_app
    from repro.cluster.config import MachineParams
    from repro.cluster.machine import Machine
    from repro.runtime.program import run_program

    def run(placement_all_zero: bool):
        app = make_app("ocean-rowwise", scale=scale)
        m = Machine(MachineParams(n_nodes=16, granularity=1024),
                    protocol="hlrc", poll_dilation=app.poll_dilation)
        if placement_all_zero:
            orig_place = m.place
            m.place = lambda addr, size, node: orig_place(addr, size, 0)
        app.setup(m)
        r = run_program(m, app.program, nprocs=16,
                        sequential_time_us=app.sequential_time_us())
        return r.stats

    natural = run(False)
    node0 = run(True)
    emit(
        "Ablation: first-touch placement vs all-on-node-0 (ocean-rowwise, HLRC-1024)",
        fmt_table(
            ["Placement", "Speedup", "Read faults", "Traffic (MB)"],
            [
                ("first-touch", f"{natural.speedup:.2f}", natural.read_faults,
                 f"{natural.total_traffic_bytes/1e6:.2f}"),
                ("all node 0", f"{node0.speedup:.2f}", node0.read_faults,
                 f"{node0.total_traffic_bytes/1e6:.2f}"),
            ],
        ),
    )
    assert natural.speedup > node0.speedup
    assert natural.total_traffic_bytes < node0.total_traffic_bytes
    bench_one_run(benchmark, "ocean-rowwise", scale)


def test_ablation_notice_compression(benchmark):
    """Contiguous notices compress to a few runs; scattered ones don't."""
    contiguous = range(100)  # the noticed blocks
    scattered = [b * 37 % 1009 for b in range(100)]
    c_runs = len(IntervalLog.run_starts(contiguous))
    s_runs = len(IntervalLog.run_starts(scattered))
    emit(
        "Ablation: write-notice run-length compression",
        f"contiguous 100 notices -> {c_runs} run(s); "
        f"scattered 100 notices -> {s_runs} runs",
    )
    assert c_runs == 1
    assert s_runs > 50
    benchmark.pedantic(
        lambda: IntervalLog.run_starts(scattered), rounds=20, iterations=10
    )


def test_ablation_hlrc_release_cost_vs_sync_frequency(benchmark, scale):
    """The HLRC release (diff + flush + ack) is what high-frequency
    synchronization multiplies: Barnes-Original spends far more of its
    time in locks under HLRC than under SC."""
    sc = run_experiment(RunConfig(app="barnes-original", protocol="sc",
                                  granularity=4096, scale=scale))
    hlrc = run_experiment(RunConfig(app="barnes-original", protocol="hlrc",
                                    granularity=4096, scale=scale))
    sc_lock = sum(n.lock_wait_us for n in sc.stats.nodes)
    hlrc_lock = sum(n.lock_wait_us for n in hlrc.stats.nodes)
    emit(
        "Ablation: synchronization cost, Barnes-Original at 4096",
        f"SC lock wait {sc_lock/1e3:.1f} ms over {sc.stats.total_lock_acquires} locks; "
        f"HLRC lock wait {hlrc_lock/1e3:.1f} ms over {hlrc.stats.total_lock_acquires} locks",
    )
    assert hlrc_lock > sc_lock
    bench_one_run(benchmark, "barnes-original", scale)
