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

from .. import _lazy

#: public name -> the submodule that defines it, imported on first access,
#: so a server process never loads the chaos harness or the load generator
_EXPORTS = {
    "AdmissionJournal": "journal",
    "AdmissionServer": "server",
    "AdmissionService": "server",
    "AdmitRecord": "journal",
    "ChaosConfig": "config",
    "ChaosProxy": "chaos",
    "ChaosReport": "chaos",
    "ClientRecord": "leases",
    "ClusterConfig": "config",
    "ClusterError": "placer",
    "ClusterFrontend": "cluster",
    "Counter": "metrics",
    "Decision": "server",
    "DemandAwarePlacer": "placer",
    "ErrorCode": "protocol",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "JournalState": "journal",
    "LeaseTable": "leases",
    "LoadgenConfig": "config",
    "LoadgenReport": "loadgen",
    "LocalCluster": "cluster",
    "MAX_FRAME_BYTES": "protocol",
    "MetricsRegistry": "metrics",
    "PROTOCOL_VERSION": "protocol",
    "Request": "protocol",
    "ResilientServeClient": "resilient",
    "ServeClient": "client",
    "ServeConfig": "config",
    "ServeReplyError": "client",
    "ShardAddress": "placer",
    "ShardState": "placer",
    "adaptive_retry_hint_s": "server",
    "backoff_sleep_s": "resilient",
    "decode_frame": "protocol",
    "encode_frame": "protocol",
    "error_reply": "protocol",
    "fig4_scripts": "loadgen",
    "ok_reply": "protocol",
    "parse_request": "protocol",
    "quota_refusal": "server",
    "replay_journal": "journal",
    "run_chaos": "chaos",
    "run_loadgen": "loadgen",
    "run_loadgen_sync": "loadgen",
    "start_local_cluster": "cluster",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
