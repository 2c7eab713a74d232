"""Component power model of the simulated machine.

Package power = static uncore + LLC + per-core active/idle power.
DRAM energy = background power over time + a fixed energy per access.

The absolute figures are calibrated against the Xeon E5-2420's public TDP
(95 W) and typical registered-DDR3 DIMM power; the paper's evaluation only
compares *ratios* between scheduling policies, which this model preserves:
a policy that shortens runtime, idles cores, or cuts DRAM traffic saves
energy in exactly the proportions the physics dictates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PowerConfig
from ..errors import ConfigError

__all__ = ["PowerBreakdown", "PowerModel"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous power draw by component, in watts."""

    pkg_static_w: float
    cores_w: float
    llc_w: float
    dram_static_w: float

    @property
    def package_w(self) -> float:
        return self.pkg_static_w + self.cores_w + self.llc_w

    @property
    def total_w(self) -> float:
        return self.package_w + self.dram_static_w


class PowerModel:
    """Maps machine activity to instantaneous power and per-event energy."""

    _PACKAGE_W_MAX = 4096

    def __init__(self, config: PowerConfig, n_cores: int) -> None:
        if n_cores <= 0:
            raise ConfigError("n_cores must be positive")
        self.config = config
        self.n_cores = n_cores
        #: package watts per (active cores, freq scale); the config is frozen
        self._package_w: dict[tuple[int, float], float] = {}

    def breakdown(
        self, n_active_cores: int, freq_scale: float = 1.0
    ) -> PowerBreakdown:
        """Power draw with ``n_active_cores`` executing and the rest idle.

        ``freq_scale`` models package DVFS: dynamic core power follows the
        classic ``V²f ∝ f³`` law; static and idle power are unaffected.
        """
        if not 0 <= n_active_cores <= self.n_cores:
            raise ConfigError(
                f"active cores {n_active_cores} out of range 0..{self.n_cores}"
            )
        if not 0.0 < freq_scale <= 1.0:
            raise ConfigError(f"freq_scale must be in (0, 1], got {freq_scale}")
        cfg = self.config
        cores_w = (
            n_active_cores * cfg.core_active_w * freq_scale**3
            + (self.n_cores - n_active_cores) * cfg.core_idle_w
        )
        return PowerBreakdown(
            pkg_static_w=cfg.pkg_static_w,
            cores_w=cores_w,
            llc_w=cfg.llc_w,
            dram_static_w=cfg.dram_static_w,
        )

    def package_energy(
        self, dt_s: float, n_active_cores: int, freq_scale: float = 1.0
    ) -> float:
        """Package-domain energy over an interval (joules)."""
        key = (n_active_cores, freq_scale)
        package_w = self._package_w.get(key)
        if package_w is None:
            if len(self._package_w) >= self._PACKAGE_W_MAX:
                self._package_w.clear()  # ondemand scales are continuous
            package_w = self._package_w[key] = self.breakdown(
                n_active_cores, freq_scale
            ).package_w
        return package_w * dt_s

    def dram_energy(self, dt_s: float, dram_accesses: float) -> float:
        """DRAM-domain energy over an interval (joules)."""
        cfg = self.config
        return cfg.dram_static_w * dt_s + cfg.dram_energy_per_access_j * dram_accesses

    def context_switch_energy(self, n_switches: int) -> float:
        """Package energy spent on ``n_switches`` context switches."""
        return self.config.context_switch_energy_j * n_switches
