"""The sanitized admission service reports faults planted in its ledger.

``serve --sanitize`` attaches the kernel sanitizer's ``conservation`` and
``demand-bound`` checkers to the service's admission core, which check at
every charge, release and resize.  Each case plants one fault directly in
the resource ledger of an ``AdmissionService`` (no sockets) and expects a
report.
"""

from repro.core.policy import StrictPolicy
from repro.core.progress_period import PeriodRequest, ResourceKind, ReuseLevel
from repro.serve.server import AdmissionService, ServeConfig


def sanitized_service():
    return AdmissionService(ServeConfig(policy=StrictPolicy(), sanitize=True))


def request(demand, label=""):
    return PeriodRequest(ResourceKind.LLC, demand, ReuseLevel.LOW, label=label)


def test_charge_past_the_strict_bound_is_reported():
    service = sanitized_service()
    capacity = service.resources.state(ResourceKind.LLC).capacity_bytes
    service.resources.increment_load(request(capacity + 1))
    summary = service.sanitizer.summary()
    assert not service.sanitizer.ok
    assert "exceeds" in summary and "bound" in summary, summary


def test_usage_bumped_behind_the_ledger_is_reported():
    service = sanitized_service()
    service.resources.state(ResourceKind.LLC).usage_bytes += 4096
    service.resources.increment_load(request(100))
    summary = service.sanitizer.summary()
    assert "conservation" in summary and "ledger" in summary, summary


def test_double_release_is_reported():
    service = sanitized_service()
    a, b = request(500, "a"), request(100, "b")
    service.resources.increment_load(a)
    service.resources.increment_load(b)
    service.resources.release_load(b)
    assert service.sanitizer.ok
    service.resources.release_load(b)  # the table still reads 400 B >= 0
    summary = service.sanitizer.summary()
    assert "release of 100B (b) without a matching charge" in summary, summary
