"""Kernel integration tests: execution, fairness, barriers, accounting."""

import pytest

from repro.errors import SimulationError
from repro.perf.counters import HwCounter
from repro.sim.kernel import Kernel
from repro.sim.process import ThreadState
from repro.workloads.base import ProcessSpec, Workload, barrier_phase

from ..conftest import make_phase, make_workload


def run(workload, config=None, **kw):
    kernel = Kernel(config=config)
    kernel.launch(workload)
    kernel.run(**kw)
    return kernel


class TestCompletion:
    def test_single_process_completes(self):
        kernel = run(make_workload(n_processes=1))
        assert kernel.all_exited
        assert kernel.now > 0

    def test_all_instructions_retired(self):
        wl = make_workload(n_processes=3, phases=[make_phase(instructions=500_000)])
        kernel = run(wl)
        retired = kernel.machine.counters.read(HwCounter.INSTRUCTIONS)
        assert retired == pytest.approx(3 * 500_000, rel=1e-6)

    def test_all_flops_retired(self):
        wl = make_workload(
            n_processes=2,
            phases=[make_phase(instructions=400_000, flops_per_instr=1.5)],
        )
        kernel = run(wl)
        flops = kernel.machine.counters.read(HwCounter.FP_OPS)
        assert flops == pytest.approx(2 * 400_000 * 1.5, rel=1e-6)

    def test_multiphase_program_runs_in_order(self):
        phases = [make_phase("a", instructions=100_000), make_phase("b", instructions=100_000)]
        kernel = run(make_workload(n_processes=1, phases=phases))
        t = kernel.processes[0].threads[0]
        assert t.done and t.state is ThreadState.EXITED

    def test_thread_stats_time_adds_up(self):
        kernel = run(make_workload(n_processes=1))
        t = kernel.processes[0].threads[0]
        total = (
            t.stats.run_time_s
            + t.stats.ready_time_s
            + t.stats.pp_wait_time_s
            + t.stats.blocked_time_s
        )
        assert total == pytest.approx(t.stats.turnaround_s, rel=1e-6)


class TestTimesharing:
    def test_more_processes_than_cores_timeshare(self, small_machine):
        # 2 cores, 6 processes: context switches must occur
        wl = make_workload(n_processes=6, phases=[make_phase(instructions=20_000_000)])
        kernel = run(wl, config=small_machine)
        assert kernel.machine.counters.read(HwCounter.CONTEXT_SWITCHES) > 0
        assert kernel.all_exited

    def test_fairness_of_identical_processes(self, small_machine):
        wl = make_workload(n_processes=4, phases=[make_phase(instructions=20_000_000)])
        kernel = run(wl, config=small_machine)
        finishes = [p.threads[0].stats.exit_time_s for p in kernel.processes]
        # round-robin of identical work: all finish within one quantum-ish
        spread = max(finishes) - min(finishes)
        assert spread < 0.25 * max(finishes)

    def test_single_thread_per_core_never_switches(self, small_machine):
        wl = make_workload(n_processes=2, phases=[make_phase(instructions=5_000_000)])
        kernel = run(wl, config=small_machine)
        assert kernel.machine.counters.read(HwCounter.CONTEXT_SWITCHES) == 0

    def test_makespan_scales_with_load(self, small_machine):
        t1 = run(
            make_workload(n_processes=2, phases=[make_phase(instructions=10_000_000)]),
            config=small_machine,
        ).now
        t2 = run(
            make_workload(n_processes=4, phases=[make_phase(instructions=10_000_000)]),
            config=small_machine,
        ).now
        assert t2 > 1.8 * t1  # doubling work on saturated cores ~doubles time


class TestBarriers:
    def test_threads_wait_for_siblings(self):
        phases = [
            make_phase("before", instructions=1_000_000),
            barrier_phase(),
            make_phase("after", instructions=1_000_000),
        ]
        wl = make_workload(n_processes=1, n_threads=4, phases=phases)
        kernel = run(wl)
        assert kernel.all_exited

    def test_unbalanced_arrival_blocks_early_threads(self, small_machine):
        """Two threads with different pre-barrier work: the fast one blocks."""
        spec = ProcessSpec(
            name="unbal",
            program=[make_phase("x"), barrier_phase(), make_phase("y")],
            n_threads=2,
            per_thread_programs=[
                [make_phase("fast", instructions=100_000), barrier_phase(),
                 make_phase("tail", instructions=100_000)],
                [make_phase("slow", instructions=30_000_000), barrier_phase(),
                 make_phase("tail", instructions=100_000)],
            ],
        )
        kernel = run(Workload(name="w", processes=[spec]), config=small_machine)
        fast = kernel.processes[0].threads[0]
        assert fast.stats.blocked_time_s > 0

    def test_consecutive_barriers(self):
        phases = [
            make_phase(instructions=100_000),
            barrier_phase("b1"),
            barrier_phase("b2"),
            make_phase(instructions=100_000),
        ]
        kernel = run(make_workload(n_processes=1, n_threads=3, phases=phases))
        assert kernel.all_exited


class TestDiagnostics:
    def test_sync_brings_counters_current(self):
        kernel = Kernel()
        kernel.launch(make_workload(n_processes=1, phases=[make_phase(instructions=10_000_000)]))
        kernel.run(until=0.001)
        kernel.sync()
        assert kernel.machine.counters.read(HwCounter.INSTRUCTIONS) > 0
        assert not kernel.all_exited

    def test_diagnose_lists_live_threads(self):
        kernel = Kernel()
        kernel.launch(make_workload(n_processes=1))
        text = kernel.diagnose()
        assert "tid=" in text

    def test_run_until_then_finish(self):
        kernel = Kernel()
        kernel.launch(make_workload(n_processes=2))
        kernel.run(until=1e-6)
        kernel.run()
        assert kernel.all_exited

    def test_engine_counts_the_kernels_cancellations(self):
        # the kernel cancels its core event through Engine.cancel(), so the
        # engine's count of cancelled heap entries, which drives compaction,
        # stays exact on an oversubscribed 12-core run
        kernel = Kernel()
        workload = make_workload(
            n_processes=30, phases=[make_phase(instructions=3_000_000)]
        )
        for i, spec in enumerate(workload.processes):
            kernel.spawn(spec, at=i * 1e-4)  # each arrival re-arms mid-quantum
        kernel.run(until=0.00155)
        engine = kernel.engine
        assert not kernel.all_exited
        cancelled = sum(1 for entry in engine._queue if entry[2].cancelled)
        assert cancelled > 0
        assert engine._cancelled_in_queue == cancelled


class TestEnergyAccrual:
    def test_energy_accumulates_with_time(self):
        kernel = run(make_workload(n_processes=2))
        sample = kernel.machine.rapl.sample()
        assert sample.package_j > 0
        assert sample.dram_j > 0

    def test_busier_machine_uses_more_power(self, small_machine):
        light = run(
            make_workload(n_processes=1, phases=[make_phase(instructions=10_000_000)]),
            config=small_machine,
        )
        heavy = run(
            make_workload(n_processes=2, phases=[make_phase(instructions=10_000_000)]),
            config=small_machine,
        )
        p_light = light.machine.rapl.sample().package_j / light.now
        p_heavy = heavy.machine.rapl.sample().package_j / heavy.now
        assert p_heavy > p_light
