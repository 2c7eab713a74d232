"""Public API surface tests: everything advertised imports and resolves."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.config",
    "repro.units",
    "repro.errors",
    "repro.cli",
    "repro.core",
    "repro.core.admission",
    "repro.core.api",
    "repro.core.itko",
    "repro.core.partitioning",
    "repro.core.policy",
    "repro.core.predicate",
    "repro.core.progress_monitor",
    "repro.core.progress_period",
    "repro.core.rda",
    "repro.core.registry",
    "repro.core.resource_monitor",
    "repro.core.threadpool",
    "repro.core.waitlist",
    "repro.sim",
    "repro.sim.cfs",
    "repro.sim.cpu",
    "repro.sim.engine",
    "repro.sim.kernel",
    "repro.sim.machine",
    "repro.sim.process",
    "repro.sim.runqueue",
    "repro.sim.tracing",
    "repro.sim.waitqueue",
    "repro.mem",
    "repro.mem.address",
    "repro.mem.cache",
    "repro.mem.contention",
    "repro.mem.hierarchy",
    "repro.mem.partition",
    "repro.mem.replacement",
    "repro.mem.trace",
    "repro.mem.working_set",
    "repro.energy",
    "repro.energy.dvfs",
    "repro.energy.power",
    "repro.energy.rapl",
    "repro.perf",
    "repro.perf.counters",
    "repro.perf.sched",
    "repro.perf.stat",
    "repro.profiler",
    "repro.profiler.annotate",
    "repro.profiler.detect",
    "repro.profiler.loopmap",
    "repro.profiler.pipeline",
    "repro.profiler.regression",
    "repro.profiler.sampling",
    "repro.serve",
    "repro.serve.client",
    "repro.serve.listener",
    "repro.serve.loadgen",
    "repro.serve.metrics",
    "repro.serve.protocol",
    "repro.serve.server",
    "repro.workloads",
    "repro.workloads.base",
    "repro.workloads.blas",
    "repro.workloads.suite",
    "repro.workloads.export",
    "repro.workloads.tracegen",
    "repro.workloads.splash2",
    "repro.experiments",
    "repro.experiments.charts",
    "repro.experiments.figures",
    "repro.experiments.metrics",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.store",
    "repro.experiments.sweep",
    "repro.experiments.validation",
]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", PACKAGES)
def test_declared_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_top_level_convenience_surface():
    import repro

    assert callable(repro.run_workload)
    assert callable(repro.workload_by_name)
    assert repro.StrictPolicy().name == "RDA: Strict"
    assert repro.__version__


def test_every_public_module_has_a_docstring():
    for module_name in PACKAGES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
