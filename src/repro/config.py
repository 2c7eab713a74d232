"""Machine configuration.

The default configuration reproduces Table 1 of the paper:

========================  =========================================
CPU                       Intel(R) Xeon(R) E5-2420, 1.90 GHz, 12 cores
L1 data / instruction     32 KB / 32 KB (private)
L2                        256 KB (private)
L3 (LLC)                  15360 KB (shared)
Main memory               16 GiB
OS                        CentOS 6.6, Linux 4.6.0
========================  =========================================

The power figures are not in the paper; they are calibrated from the public
Xeon E5-2420 TDP (95 W) and typical DDR3 DIMM power so that the energy
*ratios* between scheduling policies — which is what the paper evaluates —
are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .units import GHZ, gib, kib, ns, us

__all__ = [
    "CacheConfig",
    "MemoryConfig",
    "CpuConfig",
    "PowerConfig",
    "SchedulerConfig",
    "MachineConfig",
    "E5_2420",
    "default_machine_config",
    "DEFAULT_CACHE_DIR",
]

#: default on-disk location of the experiment result cache, relative to the
#: working directory
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    capacity_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    latency_s: float = ns(2.0)
    shared: bool = False

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.capacity_bytes % self.line_bytes:
            raise ConfigError(f"{self.name}: capacity not a multiple of line size")
        n_lines = self.capacity_bytes // self.line_bytes
        if self.associativity <= 0 or n_lines % self.associativity:
            raise ConfigError(f"{self.name}: invalid associativity {self.associativity}")

    @property
    def n_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory capacity and timing."""

    capacity_bytes: int = gib(16)
    latency_s: float = ns(80.0)
    #: sustained bandwidth — 3-channel DDR3-1333 at ~60 % of peak
    bandwidth_bytes_per_s: float = 19.0e9

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError("memory capacity must be positive")
        if self.latency_s <= 0 or self.bandwidth_bytes_per_s <= 0:
            raise ConfigError("memory timing must be positive")


@dataclass(frozen=True)
class CpuConfig:
    """CPU core count and pipeline parameters."""

    model: str = "Intel(R) Xeon(R) CPU E5-2420"
    n_cores: int = 12
    frequency_hz: float = 1.90 * GHZ
    base_ipc: float = 2.0
    #: fraction of a DRAM miss's latency hidden by out-of-order overlap
    memory_overlap: float = 0.6
    #: double-precision FLOPs retireable per cycle (SSE2/AVX datapath)
    flops_per_cycle: float = 8.0

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError("core count must be positive")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if not 0.0 <= self.memory_overlap < 1.0:
            raise ConfigError("memory_overlap must be in [0, 1)")
        if self.base_ipc <= 0:
            raise ConfigError("base_ipc must be positive")

    @property
    def cycle_s(self) -> float:
        return 1.0 / self.frequency_hz


@dataclass(frozen=True)
class PowerConfig:
    """Component power model (watts / joules-per-event).

    ``package`` power = ``pkg_static_w`` + per-active-core dynamic power +
    LLC power.  DRAM energy = static background power over time plus a fixed
    energy per DRAM access (row activate + burst).
    """

    pkg_static_w: float = 28.0
    core_active_w: float = 5.2
    core_idle_w: float = 0.6
    llc_w: float = 4.0
    dram_static_w: float = 6.0
    dram_energy_per_access_j: float = 42e-9  # ~42 nJ per 64-byte access
    context_switch_energy_j: float = 2.2e-6

    def __post_init__(self) -> None:
        for name in (
            "pkg_static_w",
            "core_active_w",
            "core_idle_w",
            "llc_w",
            "dram_static_w",
            "dram_energy_per_access_j",
            "context_switch_energy_j",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"power parameter {name} must be non-negative")


@dataclass(frozen=True)
class SchedulerConfig:
    """Parameters of the default (CFS-like) OS scheduler substrate."""

    timeslice_s: float = us(6000.0)  # CFS default granularity ballpark
    context_switch_s: float = us(3.0)
    #: direct cost of one pp_begin/pp_end call: trap + predicate + resource
    #: bookkeeping + possible wait-queue round-trip (research prototype; the
    #: paper's own figure 11 implies ~10 us per begin/end pair)
    pp_call_overhead_s: float = us(10.5)
    min_granularity_s: float = us(750.0)
    #: model the figure-1 cold-cache reload after context switches
    #: (disable only for ablation studies)
    model_cache_reload: bool = True

    def __post_init__(self) -> None:
        if self.timeslice_s <= 0:
            raise ConfigError("timeslice must be positive")
        if self.context_switch_s < 0 or self.pp_call_overhead_s < 0:
            raise ConfigError("overheads must be non-negative")


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine description (Table 1 by default)."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1-Data", kib(32), latency_s=ns(1.5))
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1-Instruction", kib(32), latency_s=ns(1.5))
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2-Private", kib(256), latency_s=ns(5.5))
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "L3-Shared", kib(15360), associativity=20, latency_s=ns(16.0), shared=True
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    os_name: str = "CentOS 6.6, Linux 4.6.0"

    def __post_init__(self) -> None:
        if not self.llc.shared:
            raise ConfigError("the last-level cache must be shared")

    @property
    def llc_capacity(self) -> int:
        """Shared LLC capacity in bytes — the resource RDA manages."""
        return self.llc.capacity_bytes

    @property
    def dram_miss_penalty_s(self) -> float:
        """Additional latency of an LLC miss serviced by DRAM."""
        return self.memory.latency_s

    def describe(self) -> str:
        """Render the configuration as a Table-1-style block."""
        rows = [
            ("CPU", f"{self.cpu.model} {self.cpu.frequency_hz / GHZ:.2f} GHz, "
                    f"{self.cpu.n_cores} Cores"),
            ("L1-Data", f"{self.l1d.capacity_bytes // 1024} KBytes"),
            ("L1-Instruction", f"{self.l1i.capacity_bytes // 1024} KBytes"),
            ("L2-Private", f"{self.l2.capacity_bytes // 1024} KBytes"),
            ("L3-Shared", f"{self.llc.capacity_bytes // 1024} KBytes"),
            ("Main Memory", f"{self.memory.capacity_bytes // (1024 ** 3)} GiB"),
            ("Operating System", self.os_name),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


#: The paper's evaluation machine (Table 1).
E5_2420 = MachineConfig()


def default_machine_config() -> MachineConfig:
    """Return the default machine configuration (the paper's Table 1)."""
    return E5_2420
