"""The package-watt memo of ``PowerModel.package_energy`` adds the same bits
as the plain computation.

The kernel equivalence test cannot see a slip here: its reference kernel
shares the machine's ``RaplMeter``.  So the meter's counters are compared
with ``==`` against a loop that rebuilds ``PowerModel.breakdown`` on every
interval and adds package, switch and DRAM energy in ``accrue``'s order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PowerConfig
from repro.energy.dvfs import OndemandGovernor, PowersaveGovernor
from repro.energy.power import PowerModel
from repro.energy.rapl import RaplDomain, RaplMeter
from repro.errors import ConfigError

N_CORES = 6

#: the scales the governors hand the kernel
scales = st.one_of(
    st.just(1.0),
    st.just(PowersaveGovernor().min_scale),
    st.floats(min_value=0.0, max_value=1.0).map(OndemandGovernor().target_scale),
)
intervals = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
        st.integers(min_value=0, max_value=N_CORES),
        scales,
        st.floats(min_value=0.0, max_value=1e6),  # DRAM accesses
        st.integers(min_value=0, max_value=50),  # context switches
    ),
    max_size=60,
)


def plain_joules(cfg, steps):
    """``RaplMeter.accrue`` with a fresh breakdown on every interval."""
    model = PowerModel(cfg, N_CORES)
    package_j = dram_j = last = 0.0
    for step, n_active, freq_scale, dram_accesses, switches in steps:
        now = last + step
        dt = max(0.0, now - last)
        package_j += model.breakdown(n_active, freq_scale).package_w * dt
        package_j += cfg.context_switch_energy_j * switches
        dram_j += cfg.dram_static_w * dt + cfg.dram_energy_per_access_j * dram_accesses
        last = now
    return package_j, dram_j


@settings(max_examples=200, deadline=None)
@given(steps=intervals)
def test_meter_equals_the_plain_computation_to_the_bit(steps):
    cfg = PowerConfig()
    meter = RaplMeter(cfg, N_CORES)
    last = 0.0
    for step, n_active, freq_scale, dram_accesses, switches in steps:
        last += step
        meter.accrue(
            last, n_active, dram_accesses=dram_accesses,
            context_switches=switches, freq_scale=freq_scale,
        )
    assert (
        meter.read(RaplDomain.PACKAGE), meter.read(RaplDomain.DRAM)
    ) == plain_joules(cfg, steps)


def test_every_key_is_range_checked_and_never_cached_when_bad():
    model = PowerModel(PowerConfig(), N_CORES)
    for _ in range(2):
        with pytest.raises(ConfigError):
            model.package_energy(1.0, N_CORES + 1)
        with pytest.raises(ConfigError):
            model.package_energy(1.0, 1, freq_scale=0.0)


def test_memo_stays_bounded_under_continuous_scales():
    model = PowerModel(PowerConfig(), N_CORES)
    plain = PowerModel(PowerConfig(), N_CORES)
    governor = OndemandGovernor()
    for i in range(PowerModel._PACKAGE_W_MAX + 100):
        scale = governor.target_scale(i / (PowerModel._PACKAGE_W_MAX + 100))
        assert model.package_energy(0.01, 3, scale) == (
            plain.breakdown(3, scale).package_w * 0.01
        )
    assert len(model._package_w) <= PowerModel._PACKAGE_W_MAX
