"""The paper's primary contribution: resource-demand-aware scheduling.

Components map one-to-one onto figure 2 of the paper:

* :mod:`repro.core.progress_period` — the progress-period concept (§2),
* :mod:`repro.core.api` — the ``pp_begin`` / ``pp_end`` user API (§2.3),
* :mod:`repro.core.progress_monitor` — tracks period entry/exit (§3.1),
* :mod:`repro.core.resource_monitor` — real-time load table (§3.2),
* :mod:`repro.core.predicate` — Algorithm 1, the run/pause decision (§3.3),
* :mod:`repro.core.policy` — RDA:Strict and RDA:Compromise policies (§3.3),
* :mod:`repro.core.waitlist` — the resource waitlist for paused threads,
* :mod:`repro.core.admission` — :class:`AdmissionCore`, the above built
  once with the starvation guard (the simulator's and the service's),
* :mod:`repro.core.rda` — :class:`RdaScheduler`, an admission core on the
  kernel's extension hook.
"""

from .. import _lazy

#: public name -> the submodule that defines it, imported on first access;
#: of these only ``rda``, ``itko`` and ``partitioning`` reach the simulator
_EXPORTS = {
    "ProgressPeriod": "progress_period",
    "PeriodRequest": "progress_period",
    "ReuseLevel": "progress_period",
    "ResourceKind": "progress_period",
    "PeriodState": "progress_period",
    "SchedulingPolicy": "policy",
    "StrictPolicy": "policy",
    "CompromisePolicy": "policy",
    "AlwaysAdmitPolicy": "policy",
    "PeriodRegistry": "registry",
    "ResourceMonitor": "resource_monitor",
    "ResourceState": "resource_monitor",
    "Waitlist": "waitlist",
    "SchedulingPredicate": "predicate",
    "Decision": "predicate",
    "ProgressMonitor": "progress_monitor",
    "RdaScheduler": "rda",
    "ProgressPeriodApi": "api",
    "ItkoScheduler": "itko",
    "profile_workload": "itko",
    "PartitioningRdaScheduler": "partitioning",
    "partitioned_kernel": "partitioning",
    "ThreadPoolGuard": "threadpool",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
