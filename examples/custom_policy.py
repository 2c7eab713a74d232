#!/usr/bin/env python
"""Writing a custom scheduling policy.

The paper's predicate (Algorithm 1) delegates the run/pause decision to a
"reconfigurable scheduling policy that dictates the limits of each hardware
resource".  Beyond the built-in RDA: Strict and RDA: Compromise, any object
implementing ``allows(outcome_bytes, resource)`` plugs in.

This example adds a *utilization-floor* policy: it behaves strictly while
the cache is lightly loaded, but once usage passes a threshold it refuses
further oversubscription entirely — a middle ground the paper's §4.2
analysis hints at ("different scheduling configurations need to be
combined for the overall approach to be beneficial").

A policy's ``allows`` must be non-decreasing in ``outcome_bytes`` for a
fixed resource state (refusing an outcome means refusing every smaller
one): the waitlist drain relies on it to skip waiters that cannot fit.
``SteppedPolicy`` is a threshold on the outcome at any fixed usage, so it
qualifies.

Run:  python examples/custom_policy.py
"""

from dataclasses import dataclass

from repro import CompromisePolicy, StrictPolicy, run_policies, workload_by_name
from repro.core.policy import SchedulingPolicy
from repro.core.resource_monitor import ResourceState
from repro.experiments.metrics import compare_all


@dataclass(frozen=True)
class SteppedPolicy(SchedulingPolicy):
    """Allow bounded oversubscription only while usage is below a knee.

    Below ``knee`` (a fraction of capacity) the policy admits like
    RDA: Compromise with the given factor; above it, like RDA: Strict.
    The intuition: modest oversubscription of a half-empty cache costs
    little, but piling onto an already-full cache thrashes.
    """

    knee: float = 0.5
    oversubscription: float = 1.5
    name: str = "Stepped(0.5, 1.5x)"

    def allows(self, outcome_bytes: float, resource: ResourceState) -> bool:
        if resource.usage_bytes <= self.knee * resource.capacity_bytes:
            slack = (self.oversubscription - 1.0) * resource.capacity_bytes
            return outcome_bytes >= -slack
        return outcome_bytes >= 0


def main() -> None:
    policies = {
        "Linux Default": None,
        "RDA: Strict": StrictPolicy(),
        "RDA: Compromise": CompromisePolicy(),
        "Stepped": SteppedPolicy(),
    }
    for workload in ("Water_nsq", "Raytrace"):
        reports = run_policies(
            lambda w=workload: workload_by_name(w), policies=policies
        )
        print(f"== {workload} ==")
        base = reports["Linux Default"]
        print(f"  {'Linux Default':<16} {base.gflops:6.2f} GFLOPS  "
              f"{base.system_j:7.1f} J")
        for name, cmp in compare_all(workload, reports).items():
            r = reports[name]
            print(f"  {name:<16} {r.gflops:6.2f} GFLOPS  {r.system_j:7.1f} J  "
                  f"(speedup {cmp.speedup:.2f}x, energy "
                  f"{cmp.system_energy_decrease:+.0%})")
        print()


if __name__ == "__main__":
    main()
