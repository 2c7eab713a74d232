"""Partition-aware RDA scheduler tests (§6 extension)."""

import pytest

from repro.config import default_machine_config
from repro.core.partitioning import PartitioningRdaScheduler, partitioned_kernel
from repro.core.policy import StrictPolicy
from repro.core.progress_period import ReuseLevel
from repro.mem.partition import PartitionedLlcModel
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine
from repro.workloads.base import Phase, PpSpec, ProcessSpec, Workload

from ..conftest import make_phase, make_workload

MB = 1_000_000


def streaming_phase(wss_mb=20.0):
    wss = int(wss_mb * MB)
    return Phase(
        name="scan",
        instructions=300_000,
        flops_per_instr=0.1,
        mem_refs_per_instr=0.5,
        llc_refs_per_memref=0.125,
        wss_bytes=wss,
        reuse=0.05,
        pp=PpSpec(demand_bytes=wss, reuse=ReuseLevel.LOW),
    )


class TestScheduler:
    def test_manages_only_main_partition(self):
        sched = PartitioningRdaScheduler(policy=StrictPolicy())
        total = sched.config.llc_capacity
        assert sched.llc.capacity_bytes == total - total // 8

    def test_streams_bypass_admission(self):
        kernel = partitioned_kernel(policy=StrictPolicy())
        wl = Workload(
            name="scans",
            processes=[ProcessSpec(name="s", program=[streaming_phase()])] * 4,
        )
        kernel.launch(wl)
        kernel.run(max_events=500_000)
        assert kernel.all_exited
        sched = kernel.extension
        assert sched.bypassed == 4
        assert sched.predicate.stats.evaluated == 0

    def test_protected_periods_still_gated(self):
        kernel = partitioned_kernel(policy=StrictPolicy())
        wl = make_workload(n_processes=10, phases=[make_phase(wss_mb=5.0)])
        kernel.launch(wl)
        kernel.run(max_events=500_000)
        sched = kernel.extension
        assert kernel.all_exited
        assert sched.predicate.stats.denied > 0
        assert sched.bypassed == 0

    def test_mixed_workload_completes(self):
        kernel = partitioned_kernel(policy=StrictPolicy())
        wl = Workload(
            name="mix",
            processes=[
                ProcessSpec(name="s", program=[streaming_phase()]),
                ProcessSpec(name="h", program=[make_phase(wss_mb=6.0)]),
                ProcessSpec(name="h2", program=[make_phase(wss_mb=6.0)]),
            ],
        )
        kernel.launch(wl)
        kernel.run(max_events=500_000)
        assert kernel.all_exited
        assert kernel.extension.llc.usage_bytes == 0

    def test_kernel_uses_partitioned_model(self):
        kernel = partitioned_kernel()
        assert isinstance(kernel.machine.llc_model, PartitionedLlcModel)

    def test_pen_size_configurable(self):
        kernel = partitioned_kernel(streaming_partition_bytes=4 * MB)
        assert kernel.machine.llc_model.streaming_partition_bytes == 4 * MB
        assert kernel.extension.streaming_partition_bytes == 4 * MB


class TestContentionModel:
    """The machine's LLC model, not a stand-in, sets the kernel's rates.

    The streaming + two 6 MB mix runs with no scheduling extension, so only
    the contention model differs between the two runs.  Partitioning pens
    the stream and shields the two cache-friendly phases from it; each
    thread's DRAM traffic is pinned to the model's own numbers.
    """

    @staticmethod
    def dram_accesses(llc_model):
        config = default_machine_config()
        kernel = Kernel(config=config, machine=Machine(config, llc_model=llc_model))
        kernel.launch(
            Workload(
                name="mix",
                processes=[
                    ProcessSpec(name="s", program=[streaming_phase()]),
                    ProcessSpec(name="h", program=[make_phase(wss_mb=6.0)]),
                    ProcessSpec(name="h2", program=[make_phase(wss_mb=6.0)]),
                ],
            )
        )
        kernel.run(max_events=500_000)
        return [
            round(t.stats.dram_accesses) for p in kernel.processes for t in p.threads
        ]

    def test_partitioned_model_pins_dram_traffic(self):
        model = PartitionedLlcModel(default_machine_config().llc_capacity)
        assert self.dram_accesses(model) == [20_277, 88_375, 88_375]

    def test_shared_model_pins_dram_traffic(self):
        assert self.dram_accesses(None) == [30_812, 66_261, 57_357]
