"""repro — reproduction of "Improving Resource Utilization through Demand
Aware Process Scheduling" (Nesterenko, Yi & Rao, ICPP 2018).

The package implements the paper's demand-aware scheduling extension
(:mod:`repro.core`) on top of a simulated Linux-like kernel and Xeon
E5-2420 machine model (:mod:`repro.sim`, :mod:`repro.mem`,
:mod:`repro.energy`, :mod:`repro.perf`), the profiler that extracts
progress periods (:mod:`repro.profiler`), the evaluated workloads
(:mod:`repro.workloads`) and the experiment harness regenerating every
table and figure (:mod:`repro.experiments`).

Quickstart::

    from repro import run_workload, StrictPolicy, workload_by_name

    report = run_workload(workload_by_name("Water_nsq"), StrictPolicy())
    print(report.describe())
"""

from . import _lazy

#: public name -> the submodule that defines it, imported on first access
_EXPORTS = {
    "MachineConfig": "config",
    "default_machine_config": "config",
    "E5_2420": "config",
    "CompromisePolicy": "core.policy",
    "StrictPolicy": "core.policy",
    "RdaScheduler": "core.rda",
    "ProgressPeriodApi": "core.api",
    "ResourceKind": "core.progress_period",
    "ReuseLevel": "core.progress_period",
    "run_workload": "experiments.runner",
    "run_policies": "experiments.runner",
    "POLICIES": "experiments.runner",
    "PerfReport": "perf.stat",
    "Kernel": "sim.kernel",
    "Workload": "workloads.base",
    "table2_workloads": "workloads.suite",
    "workload_by_name": "workloads.suite",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
