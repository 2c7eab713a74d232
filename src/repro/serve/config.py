"""The service's four configs, each option declared once on its field.

``ServeConfig`` tunes one admission server (``repro serve``),
``ClusterConfig`` one placer front-end (``repro place``, and ``serve
--shards``), ``LoadgenConfig`` one load-generation run (``repro loadgen``)
and ``ChaosConfig`` one chaos campaign (``repro chaos``).  A field that a
flag sets declares, through :func:`repro.cliutil.option`, the flag's
name, bound and help, and its default is the flag's default;
:mod:`repro.cli` builds the flags and the configs from them.  Every field
with a bound is checked in ``__post_init__``, so the Python API raises
:class:`~repro.errors.ConfigError` for each value the command line
refuses with exit 2.

This module imports neither the server nor the chaos harness nor the load
generator: a server process builds every subcommand's parser from it and
still never loads the client-side modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from ..cliutil import (
    check_fields,
    finite_positive_float,
    fraction,
    integer,
    non_negative_float,
    non_negative_int,
    option,
    positive_float,
    positive_int,
)
from ..config import MachineConfig, default_machine_config
from ..errors import ConfigError
from .protocol import MAX_FRAME_BYTES

if TYPE_CHECKING:
    from ..core.policy import SchedulingPolicy
    from .placer import ShardAddress

__all__ = [
    "CAMPAIGN_KINDS",
    "ChaosConfig",
    "ClusterConfig",
    "LoadgenConfig",
    "ServeConfig",
]

#: chaos campaign kinds, one per CI chaos job
CAMPAIGN_KINDS = ("server", "cluster", "supervised", "rolling", "overload")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one admission-control server instance."""

    #: admission policy; ``None`` = Always Admit (the Linux-default analogue)
    policy: Optional[SchedulingPolicy] = None
    #: machine description — the managed LLC capacity comes from here
    machine: MachineConfig = field(default_factory=default_machine_config)
    strict_fifo: bool = option(
        False, "--fifo",
        help="strict arrival-order waitlist draining (head-of-line blocking)",
    )
    max_pending: int = option(
        1024, "--max-pending", positive_int, metavar="N",
        help="parked-admission bound; beyond it pp_begin gets RETRY_AFTER",
    )
    retry_hint_floor_s: float = option(
        0.05, "--retry-hint-floor", positive_float, metavar="SECONDS",
        help="lower clamp of RETRY_AFTER hints, which scale with live "
        "queue occupancy and admission latency (default %(default)s; "
        "floor == cap is a constant hint)",
    )
    retry_hint_cap_s: float = option(
        0.05, "--retry-hint-cap", positive_float, metavar="SECONDS",
        help="upper clamp of RETRY_AFTER hints (default %(default)s; raised "
        "to the floor if below it)",
    )
    #: (None, from the API only: park until admitted, drained or
    #: disconnected)
    park_timeout_s: Optional[float] = option(
        30.0, "--park-timeout", positive_float, metavar="SECONDS",
        help="queue-sojourn bound on parked admissions: past it the period "
        "is cancelled with PARK_TIMEOUT and a retry hint (default "
        "%(default)s)",
    )
    max_pending_per_client: Optional[int] = option(
        None, "--max-pending-per-client", positive_int, metavar="N",
        help="per-client parked-admission quota; beyond it pp_begin gets "
        "RETRY_AFTER even while the global queue has room (default: off)",
    )
    write_timeout_s: Optional[float] = option(
        None, "--write-timeout", positive_float, metavar="SECONDS",
        help="disconnect a session whose reply write stalls this long "
        "(slow-consumer defense; default: wait forever)",
    )
    idle_timeout_s: Optional[float] = option(
        None, "--idle-timeout", positive_float, metavar="SECONDS",
        help="disconnect a client idle this long (default: never)",
    )
    drain_grace_s: float = option(
        5.0, "--drain-grace", non_negative_float, metavar="SECONDS",
        help="drain waits this long for running periods before closing",
    )
    #: largest accepted request frame
    max_frame_bytes: int = option(MAX_FRAME_BYTES, bound=positive_int)
    sanitize: bool = option(
        False, "--sanitize",
        help="attach the online invariant checker (conservation and demand "
        "bound at every charge, release and resize); exit 1 on any violation",
    )
    metrics_json: Optional[str] = option(
        None, "--metrics-json", metavar="PATH",
        help="periodically dump the live metrics snapshot to this file",
    )
    metrics_interval_s: float = option(
        2.0, "--metrics-interval", positive_float, metavar="SECONDS",
        help="dump interval of --metrics-json (default %(default)s)",
    )
    lease_ttl_s: float = option(
        10.0, "--lease-ttl", positive_float, metavar="SECONDS",
        help="client lease time-to-live; a silent client's periods are "
        "reclaimed after this",
    )
    lease_check_s: float = option(
        0.25, "--lease-check", positive_float, metavar="SECONDS",
        help="lease reaper sweep interval",
    )
    journal_path: Optional[str] = option(
        None, "--journal", metavar="PATH",
        help="crash-safe admission journal; replayed on startup so admitted "
        "periods survive a server crash",
    )
    journal_fsync_s: float = option(
        0.0, "--journal-fsync", non_negative_float, metavar="SECONDS",
        help="fsync batching window for the journal (0 = fsync per event)",
    )
    journal_compact_every: int = option(
        1000, "--journal-compact-every", positive_int, metavar="N",
        help="compact the journal after this many appended events",
    )
    #: cluster shard label surfaced in query snapshots (None = standalone)
    shard_name: Optional[str] = None
    predict: bool = option(
        False, "--predict",
        help="online demand prediction + elastic re-admission: admit on "
        "max(predicted, floor) once the per-key estimator is confident, "
        "detect mispredictions at close and resize running reservations "
        "(default: off — admission is byte-identical without it)",
    )
    predict_error_band: float = option(
        0.25, "--predict-error-band", positive_float, metavar="FRACTION",
        help="relative-error band |charged - observed| / observed beyond "
        "which a close counts as a misprediction (default %(default)s)",
    )
    predict_min_samples: int = option(
        3, "--predict-min-samples", positive_int, metavar="N",
        help="observations per (client, key) before the estimator may "
        "override the declared demand (default %(default)s)",
    )
    predict_history: int = option(
        32, "--predict-history", positive_int, metavar="N",
        help="demand samples retained per key (default %(default)s)",
    )
    predict_hysteresis: int = option(
        2, "--predict-hysteresis", positive_int, metavar="N",
        help="consecutive same-direction mispredictions before an elastic "
        "resize (default %(default)s)",
    )
    #: predicted admissions are floored at this fraction of the declared
    #: demand, bounding how far a confident model can undercut a declaration
    predict_floor_frac: float = option(0.25, bound=fraction)

    def __post_init__(self) -> None:
        check_fields(self)
        from ..predict.estimator import OnlineWssEstimator

        try:  # the estimator's own rule: 2 <= min_samples <= history
            OnlineWssEstimator(
                history=self.predict_history,
                min_samples=self.predict_min_samples,
                error_band=self.predict_error_band,
            )
        except ValueError as exc:
            raise ConfigError(
                "ServeConfig.predict_history/predict_min_samples "
                f"(--predict-history/--predict-min-samples): {exc}"
            ) from None


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one cluster front-end instance."""

    #: the admission shards this front-end places over
    shards: Tuple[ShardAddress, ...] = ()
    seed: int = option(
        0, "--seed", integer, metavar="SEED",
        help="tie-break seed of the placer: placement is deterministic "
        "given (seed, demands, capacities)",
    )
    #: period of the health sweep, the front-end's only loop: it probes
    #: every shard, then restarts the dead and migrates parked begins
    health_interval_s: float = option(0.25, bound=positive_float)
    #: per-probe connect+query budget
    probe_timeout_s: float = option(1.0, bound=positive_float)
    #: a pp_begin must be parked this long before a sweep may migrate it
    migrate_after_s: float = option(0.25, bound=non_negative_float)
    migration: bool = option(
        True, "--no-migration",
        help="disable parked-client migration between shards",
    )
    #: hint attached to RETRY_AFTER when no shard is alive
    retry_after_s: float = option(0.25, bound=positive_float)
    #: brownout mode: when no live shard can fit the observed peak demand
    #: AND the fragmentation gauge holds at/above this threshold for
    #: ``brownout_sweeps`` consecutive health sweeps, *new* clients are
    #: shed with a typed OVERLOAD error (None = brownout disabled)
    brownout_fragmentation: Optional[float] = option(None, bound=fraction)
    #: consecutive saturated health sweeps before brownout engages
    brownout_sweeps: int = option(3, bound=positive_int)
    #: cluster-wide retry hint carried by OVERLOAD sheds
    brownout_retry_s: float = option(0.5, bound=positive_float)
    #: (None, from the API only: age-gated migration only)
    rebalance_fragmentation: Optional[float] = option(
        0.5, "--rebalance-fragmentation", positive_float, metavar="RATIO",
        help="with --shards > 1: when free-capacity fragmentation reaches "
        "this ratio, parked clients may migrate without waiting out the "
        "age gate (default %(default)s)",
    )
    #: base restart backoff; doubles per crash-loop streak entry
    restart_backoff_s: float = option(0.2, bound=positive_float)
    #: ceiling on the exponential restart backoff
    restart_backoff_cap_s: float = option(5.0, bound=positive_float)
    #: a shard death within this window of its last supervised restart
    #: counts as a crash loop (0 = never)
    crash_loop_window_s: float = option(10.0, bound=non_negative_float)
    #: crash-loop streak length that quarantines the shard
    quarantine_after: int = option(3, bound=positive_int)
    #: budget for a restarted shard to answer its first probe
    restart_ready_timeout_s: float = option(15.0, bound=positive_float)
    #: rolling restart: grace for a draining shard's running periods
    shard_drain_grace_s: float = option(5.0, bound=non_negative_float)
    #: largest accepted request frame
    max_frame_bytes: int = option(MAX_FRAME_BYTES, bound=positive_int)
    metrics_json: Optional[str] = option(
        None, "--metrics-json", metavar="PATH",
        help="periodically dump the placer metrics snapshot to this file",
    )
    #: dump interval for ``metrics_json``
    metrics_interval_s: float = option(2.0, bound=positive_float)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run."""

    mode: str = option(
        "closed", "--mode", choices=("closed", "open"),
        help="closed = N persistent clients; open = Poisson arrivals",
    )
    clients: int = option(
        4, "--clients", positive_int, help="closed loop: concurrent clients"
    )
    rate: float = option(
        20.0, "--rate", positive_float,
        help="open loop: mean session arrivals per second",
    )
    sessions: Optional[int] = option(
        None, "--sessions", positive_int,
        help="total sessions to run (default: bounded by --duration)",
    )
    duration_s: Optional[float] = option(
        None, "--duration", positive_float, metavar="SECONDS",
        help="stop starting new sessions after this much wall time",
    )
    #: multiply every scripted hold time (simulated phase durations are
    #: minutes long; 1e-4 turns them into sub-second holds)
    time_scale: float = option(1e-4, bound=non_negative_float)
    #: clamp one call's hold to this many seconds
    max_hold_s: float = option(0.25, bound=non_negative_float)
    #: give up a call after this many RETRY_AFTER rounds
    max_retries: int = option(200, bound=non_negative_int)
    #: first RETRY_AFTER backoff step (doubles per attempt, jittered)
    backoff_base_s: float = option(0.02, bound=positive_float)
    #: RETRY_AFTER backoff ceiling
    backoff_cap_s: float = option(0.5, bound=positive_float)
    resilient: bool = option(
        False, "--resilient",
        help="use lease-bound resilient clients that survive server "
        "restarts and flaky transports",
    )
    #: resilient clients: per-attempt bound on non-begin calls (silence
    #: past it means a lost frame → reconnect and re-issue)
    call_timeout_s: Optional[float] = option(5.0, bound=positive_float)
    #: resilient clients: per-attempt bound on ``pp_begin``; None waits for
    #: the server's park timeout — set one under lossy transports, where
    #: silence can mean a dropped frame rather than a parked period
    begin_timeout_s: Optional[float] = option(None, bound=positive_float)
    drain: bool = option(
        False, "--drain", help="ask the server to drain once the run finishes"
    )
    binary: bool = option(
        False, "--binary",
        help="negotiate the length-prefixed binary framing in each "
        "client's hello (resilient clients re-negotiate on reconnect)",
    )
    cluster: bool = option(
        False, "--cluster",
        help="target is a placer front-end: use resilient clients that "
        "follow REDIRECT replies to their assigned shard",
    )
    client_backoff_cap_s: Optional[float] = option(
        None, "--backoff-cap", positive_float, metavar="SECONDS",
        help="resilient clients: transport-retry backoff ceiling "
        "(default: the client's own 1.0 s)",
    )
    breaker_threshold: Optional[int] = option(
        None, "--breaker-threshold", positive_int, metavar="N",
        help="resilient clients: open the circuit breaker after N "
        "consecutive connect failures (default: breaker disabled)",
    )
    breaker_reset_s: float = option(
        1.0, "--breaker-reset", positive_float, metavar="SECONDS",
        help="resilient clients: breaker reset window before the "
        "half-open probe (default %(default)s)",
    )
    overdeclare: float = option(
        1.0, "--overdeclare", positive_float, metavar="FACTOR",
        help="declare each call's demand at this multiple of the scripted "
        "working set (models annotation error; default %(default)s = honest)",
    )
    report_observed: bool = option(
        False, "--observe",
        help="report the scripted (true) working set as observed_bytes on "
        "every pp_end, feeding a serve --predict estimator",
    )
    seed: int = option(
        0, "--seed", integer, help="RNG seed (arrival gaps, script order)"
    )

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign."""

    #: which campaign (see :data:`CAMPAIGN_KINDS` and the module doc)
    kind: str = option("server", choices=CAMPAIGN_KINDS)
    seed: int = option(
        0, "--seed", integer,
        help="RNG seed for the proxy's fault schedule and the load",
    )
    duration_s: float = option(
        6.0, "--duration", positive_float, metavar="SECONDS",
        help="load phase wall-clock budget",
    )
    clients: int = option(
        4, "--clients", positive_int, help="concurrent resilient clients"
    )
    #: total sessions (None = bounded by duration only)
    sessions: Optional[int] = option(None, bound=positive_int)
    kills: int = option(
        2, "--kills", non_negative_int,
        help="SIGKILL/restart cycles during the load",
    )
    kill_interval_s: float = option(
        1.5, "--kill-interval", non_negative_float, metavar="SECONDS",
        help="gap between kills (the first fires this long after the start)",
    )
    #: per-line fault probabilities (applied in both directions)
    drop_rate: float = option(0.01, bound=fraction)
    delay_rate: float = option(0.05, bound=fraction)
    delay_max_s: float = option(0.01, bound=non_negative_float)
    duplicate_rate: float = option(0.01, bound=fraction)
    truncate_rate: float = option(0.003, bound=fraction)
    sever_rate: float = option(0.002, bound=fraction)
    #: synthetic session shape (figure-4 single-period sessions)
    demand_mb: float = option(2.0, bound=positive_float)
    hold_s: float = option(0.01, bound=non_negative_float)
    policy: str = option(
        "strict", "--policy",
        help="admission policy name passed to the server (default "
        "%(default)s)",
    )
    capacity_mb: float = option(
        8.0, "--capacity-mb", finite_positive_float, metavar="MB",
        help="managed LLC capacity of the chaos server",
    )
    lease_ttl_s: float = option(
        1.5, "--lease-ttl", positive_float, metavar="SECONDS",
        help="client lease time-to-live on the chaos server",
    )
    #: the rest of the server shape
    lease_check_s: float = option(0.1, bound=positive_float)
    park_timeout_s: float = option(2.0, bound=positive_float)
    journal_fsync_s: float = option(0.0, bound=non_negative_float)
    #: how long recovery may take to reach quiescence after the load
    settle_timeout_s: float = option(15.0, bound=positive_float)
    #: how long one server (re)start may take
    server_start_timeout_s: float = option(15.0, bound=positive_float)
    shards: int = option(
        3, "--shards", positive_int, metavar="N",
        help="shard count for --cluster / --rolling (default %(default)s)",
    )
    rolling_grace_s: float = option(
        3.0, "--rolling-grace", positive_float, metavar="SECONDS",
        help="--rolling: per-shard drain grace before a forced restart "
        "(default %(default)s)",
    )
    storm_rate: float = option(
        150.0, "--storm-rate", positive_float, metavar="RATE",
        help="--overload: mean session arrivals per second (default "
        "%(default)s)",
    )
    slowloris: int = option(
        2, "--slowloris", non_negative_int, metavar="N",
        help="--overload: concurrent slow consumers that never read "
        "replies (default %(default)s)",
    )
    p99_bound_s: float = option(
        5.0, "--p99-bound", positive_float, metavar="SECONDS",
        help="--overload: admitted calls must keep p99 admission latency "
        "under this (default %(default)s)",
    )
    backoff_cap_s: Optional[float] = option(
        None, "--backoff-cap", positive_float, metavar="SECONDS",
        help="--overload: storm clients' transport-retry backoff ceiling "
        "(default: the client's own 1.0 s)",
    )
    breaker_threshold: Optional[int] = option(
        None, "--breaker-threshold", positive_int, metavar="N",
        help="--overload: open a storm client's circuit breaker after N "
        "consecutive connect failures (default: breaker disabled)",
    )
    breaker_reset_s: float = option(
        0.2, "--breaker-reset", positive_float, metavar="SECONDS",
        help="--overload: breaker reset window before the half-open probe "
        "(default %(default)s)",
    )

    def __post_init__(self) -> None:
        check_fields(self)
