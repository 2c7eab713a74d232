"""Online demand-aware admission control (the paper's RDA layer, live).

The batch harness simulates a kernel; this package *runs* the admission
machinery as a long-lived service: an asyncio server speaking a small
newline-delimited-JSON protocol (``hello`` / ``heartbeat`` / ``pp_begin``
/ ``pp_end`` / ``query`` / ``stats`` / ``drain``), clients (thin and
fault-tolerant), an open/closed-loop load generator that replays
workload-suite progress-period sequences against it, plus the
fault-tolerance layer: client leases, a crash-safe admission journal, and
a chaos harness that proves the whole stack survives kills and flaky
transports without leaking a byte of capacity.

Scaling out, :mod:`repro.serve.cluster` runs N admission shards (one per
simulated socket) behind a demand-aware placer front-end that assigns
each client a shard by dominant-remaining-resource scoring, redirects it
there, and migrates parked clients to shards with headroom by having
their shard answer the parked begin with a REDIRECT.

Entry points: ``python -m repro serve``, ``python -m repro place``,
``python -m repro loadgen`` and ``python -m repro chaos``.
"""

from .chaos import ChaosConfig, ChaosProxy, ChaosReport, run_chaos
from .client import ServeClient, ServeReplyError
from .cluster import (
    ClusterConfig,
    ClusterFrontend,
    LocalCluster,
    start_local_cluster,
)
from .journal import (
    AdmissionJournal,
    AdmitRecord,
    JournalState,
    replay_journal,
)
from .leases import ClientRecord, LeaseTable
from .loadgen import (
    LoadgenConfig,
    LoadgenReport,
    fig4_scripts,
    run_loadgen,
    run_loadgen_sync,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .placer import (
    ClusterError,
    DemandAwarePlacer,
    ShardAddress,
    ShardState,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    Request,
    decode_frame,
    encode_frame,
    error_reply,
    ok_reply,
    parse_request,
)
from .resilient import ResilientServeClient, backoff_sleep_s
from .server import (
    AdmissionServer,
    AdmissionService,
    ServeConfig,
    adaptive_retry_hint_s,
    quota_admits,
)

__all__ = [
    "AdmissionJournal",
    "AdmissionServer",
    "AdmissionService",
    "AdmitRecord",
    "ChaosConfig",
    "ChaosProxy",
    "ChaosReport",
    "ClientRecord",
    "ClusterConfig",
    "ClusterError",
    "ClusterFrontend",
    "Counter",
    "DemandAwarePlacer",
    "ErrorCode",
    "Gauge",
    "Histogram",
    "JournalState",
    "LeaseTable",
    "LoadgenConfig",
    "LoadgenReport",
    "LocalCluster",
    "MAX_FRAME_BYTES",
    "MetricsRegistry",
    "PROTOCOL_VERSION",
    "Request",
    "ResilientServeClient",
    "ServeClient",
    "ServeConfig",
    "ServeReplyError",
    "ShardAddress",
    "ShardState",
    "adaptive_retry_hint_s",
    "backoff_sleep_s",
    "decode_frame",
    "encode_frame",
    "error_reply",
    "fig4_scripts",
    "ok_reply",
    "parse_request",
    "quota_admits",
    "replay_journal",
    "run_chaos",
    "run_loadgen",
    "run_loadgen_sync",
    "start_local_cluster",
]
