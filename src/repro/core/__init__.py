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

from .progress_period import (
    ProgressPeriod,
    PeriodRequest,
    ReuseLevel,
    ResourceKind,
    PeriodState,
)
from .policy import SchedulingPolicy, StrictPolicy, CompromisePolicy, AlwaysAdmitPolicy
from .registry import PeriodRegistry
from .resource_monitor import ResourceMonitor, ResourceState
from .waitlist import Waitlist
from .predicate import SchedulingPredicate, Decision
from .progress_monitor import ProgressMonitor
from .rda import RdaScheduler
from .api import ProgressPeriodApi
from .itko import ItkoScheduler, profile_workload
from .partitioning import PartitioningRdaScheduler, partitioned_kernel
from .threadpool import ThreadPoolGuard

__all__ = [
    "ProgressPeriod",
    "PeriodRequest",
    "ReuseLevel",
    "ResourceKind",
    "PeriodState",
    "SchedulingPolicy",
    "StrictPolicy",
    "CompromisePolicy",
    "AlwaysAdmitPolicy",
    "PeriodRegistry",
    "ResourceMonitor",
    "ResourceState",
    "Waitlist",
    "SchedulingPredicate",
    "Decision",
    "ProgressMonitor",
    "RdaScheduler",
    "ProgressPeriodApi",
    "ItkoScheduler",
    "profile_workload",
    "PartitioningRdaScheduler",
    "partitioned_kernel",
    "ThreadPoolGuard",
]
