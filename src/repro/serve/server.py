"""The online demand-aware admission-control service.

The paper's RDA layer is an *online* kernel service: ``pp_begin`` /
``pp_end`` calls arrive from live processes, and the kernel admits, parks,
or wakes them in real time.  This module runs the same admission machinery
— :class:`~repro.core.progress_monitor.ProgressMonitor`, the Algorithm-1
predicate, the resource waitlist and the Strict/Compromise policies — as a
long-running asyncio daemon speaking the newline-delimited-JSON protocol
of :mod:`repro.serve.protocol` over TCP or a Unix socket.

Design points:

* **Single writer.**  Every mutation of the admission state happens on the
  event loop, and no handler holds an ``await`` point inside a mutation
  sequence, so the core stack needs no locks — the asyncio loop plays the
  role of the kernel's run-queue lock.
* **Denied periods park the connection.**  A ``pp_begin`` the policy
  rejects does not get an immediate "no": the reply is deferred until a
  completing period frees capacity (the waitlist admits it), the per-client
  park timeout lapses, or the server drains — exactly how the kernel parks
  a process on the resource wait queue.
* **Bounded overload.**  The pending-admission queue is capped
  (``max_pending``); beyond it, new ``pp_begin`` requests receive a typed
  ``RETRY_AFTER`` reply instead of growing server memory without bound.
* **One admission core.**  :class:`AdmissionService` is an
  :class:`~repro.core.admission.AdmissionCore`, as the simulator's
  :class:`~repro.core.rda.RdaScheduler` is, so both run one implementation
  of the paper's admission layer.  Its starvation guard force-admits a
  waiting period whenever its resource is completely idle: inline at
  begin and after every release, with a periodic sweep as a safety net,
  so a mis-annotated client is slow instead of deadlocked.
* **Graceful drain.**  SIGTERM (or the ``drain`` verb) stops admissions,
  wakes parked clients with a ``DRAINING`` error, waits up to the grace
  budget for running periods to end, then closes.
* **Fault tolerance.**  Clients that introduce themselves with ``hello``
  hold a lease (:mod:`repro.serve.leases`) renewed by every frame and the
  ``heartbeat`` verb; a reaper reclaims the admitted demand of clients
  whose lease lapses, so a crashed client cannot leak capacity.  With
  ``--journal``, every admission of a lease-bound client is written ahead
  to a crash-safe NDJSON log (:mod:`repro.serve.journal`) and replayed on
  startup, so a SIGKILLed server restarts with its charge ledger, lease
  table and idempotency-token index intact.
* **Movable parked begins.**  A client whose ``hello`` carried
  ``"redirect": true`` follows ``REDIRECT`` replies.  ``query`` lists
  such clients whose only open period is a parked begin, and the
  ``migrate`` verb (sent by a cluster front-end) cancels that begin and
  answers it with ``REDIRECT`` to a shard with room.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from typing import Any, Awaitable, Dict, List, Optional, Tuple

from ..core.admission import AdmissionCore
from ..core.policy import AlwaysAdmitPolicy
from ..core.progress_period import (
    PeriodRequest,
    PeriodState,
    ProgressPeriod,
    ResourceKind,
    ReuseLevel,
    ensure_pp_ids_above,
)
from ..errors import ProgressPeriodError
from ..predict import ElasticController, MispredictDetector, OnlineWssEstimator
from ..predict.estimator import EstimatorKey
from . import protocol
from .config import ServeConfig
from .framer import Framer
from .journal import AdmissionJournal, AdmitRecord
from .leases import ClientRecord, LeaseTable
from .listener import Listener, Session
from .metrics import MetricsRegistry
from .protocol import ErrorCode

__all__ = [
    "ServeConfig",
    "AdmissionService",
    "AdmissionServer",
    "adaptive_retry_hint_s",
    "quota_refusal",
]

#: most movable parked clients one ``query`` reply lists, so a probe
#: reply stays far below MAX_FRAME_BYTES
MAX_PARKED_LISTED = 64


def adaptive_retry_hint_s(
    occupancy: float,
    latency_p50_s: float,
    floor_s: float,
    cap_s: float,
) -> float:
    """The adaptive RETRY_AFTER hint for one shed request.

    ``occupancy`` is the pending-queue fill fraction (clamped to [0, 1])
    and ``latency_p50_s`` the median observed admission latency.  The hint
    is the median latency (floored at ``floor_s``) scaled up to 4x as the
    queue fills::

        hint = clamp(max(floor, p50) * (1 + 3 * occupancy), floor, cap)

    Monotone non-decreasing in occupancy and always within
    ``[floor_s, cap_s]`` (the cap is raised to the floor if inverted) —
    both properties are pinned by hypothesis tests.
    """
    if cap_s < floor_s:
        cap_s = floor_s
    occupancy = min(1.0, max(0.0, occupancy))
    base = max(floor_s, latency_p50_s)
    return min(cap_s, max(floor_s, base * (1.0 + 3.0 * occupancy)))


def quota_refusal(
    waiting: int,
    client_waiting: int,
    max_pending: int,
    max_pending_per_client: Optional[int],
) -> Optional[str]:
    """Which pending bound refuses one more parked admission, if any.

    ``waiting`` periods are parked in all, ``client_waiting`` of them by
    the asking client.  ``"max_pending"`` when the aggregate queue is
    full, else ``"max_pending_per_client"`` when the client is at its
    quota (None = unbounded), else None: the begin may park.  Pure, so the
    fairness math the server runs is property-testable apart from it.
    """
    if waiting >= max_pending:
        return "max_pending"
    if (
        max_pending_per_client is not None
        and client_waiting >= max_pending_per_client
    ):
        return "max_pending_per_client"
    return None


class AdmissionService(AdmissionCore):
    """The admission state machine, independent of any transport.

    All methods must be called from a single thread/event loop (the
    single-writer discipline); they never block.
    """

    def __init__(self, cfg: ServeConfig) -> None:
        super().__init__(
            cfg.policy if cfg.policy is not None else AlwaysAdmitPolicy(),
            cfg.machine.llc_capacity,
            time.monotonic,
            strict_fifo=cfg.strict_fifo,
        )
        self.cfg = cfg
        #: largest demand a pp_begin declared since boot (the cluster
        #: front-end's brownout yardstick)
        self.demand_peak_bytes = 0
        self.sanitizer = None
        if cfg.sanitize:  # imported here: unsanitized servers skip its cost
            from ..sanitizer import KernelSanitizer, default_checkers
            checkers = default_checkers(["conservation", "demand-bound"])
            self.sanitizer = KernelSanitizer(checkers).attach_core(self)
        self.leases = LeaseTable(cfg.lease_ttl_s)
        self.journal: Optional[AdmissionJournal] = None
        self.replayed_periods = 0
        self.estimator: Optional[OnlineWssEstimator] = None
        self.detector: Optional[MispredictDetector] = None
        self.elastic: Optional[ElasticController] = None
        #: open tracked periods: pp_id -> (key, declared, charged bytes)
        self._predictions: Dict[int, Tuple[EstimatorKey, int, int]] = {}
        if cfg.predict:
            self.estimator = OnlineWssEstimator(
                history=cfg.predict_history,
                min_samples=cfg.predict_min_samples,
                error_band=cfg.predict_error_band,
            )
            self.detector = MispredictDetector(cfg.predict_error_band)
            self.elastic = ElasticController(cfg.predict_hysteresis)
        self._build_metrics()
        if cfg.journal_path:
            self.journal = AdmissionJournal(
                cfg.journal_path,
                fsync_interval_s=cfg.journal_fsync_s,
                compact_every=cfg.journal_compact_every,
                obs_history=cfg.predict_history,
            )
            self._recover()

    # ------------------------------------------------------------------
    def _build_metrics(self) -> None:
        m = MetricsRegistry()
        self.metrics = m
        self.c_begin = m.counter("pp_begin_total", "pp_begin requests")
        self.c_end = m.counter("pp_end_total", "successful pp_end calls")
        self.c_immediate = m.counter(
            "admitted_immediate_total", "periods admitted without parking"
        )
        self.c_after_park = m.counter(
            "admitted_after_park_total", "periods admitted after waiting"
        )
        self.c_forced = m.counter(
            "forced_admissions_total", "starvation-guard admissions"
        )
        self.c_retry_after = m.counter(
            "retry_after_total", "pp_begin rejected by the pending-queue bound"
        )
        self.c_park_timeout = m.counter(
            "park_timeouts_total", "parked periods shed by the park timeout"
        )
        self.c_quota_rejects = m.counter(
            "quota_rejects_total",
            "pp_begin rejected by the per-client pending quota",
        )
        self.c_disconnect_cancel = m.counter(
            "cancelled_on_disconnect_total",
            "periods cancelled because their client vanished",
        )
        self.c_draining_rejects = m.counter(
            "draining_rejects_total", "pp_begin rejected because draining"
        )
        m.gauge("open_periods", fn=lambda: len(self.registry))
        m.gauge("waiting", fn=lambda: len(self.waitlist))
        m.gauge("usage_bytes", fn=lambda: self.llc.usage_bytes)
        m.gauge("capacity_bytes", fn=lambda: self.llc.capacity_bytes)
        m.gauge("utilization", fn=lambda: self.llc.utilization)
        self.g_usage_peak = m.gauge(
            "usage_peak_bytes", "high-water mark of admitted demand"
        )
        self.g_waiting_peak = m.gauge(
            "waiting_peak", "high-water mark of the pending-admission queue"
        )
        self.h_park = m.histogram(
            "park_time_s", "time parked before admission (parked periods only)"
        )
        self.h_service = m.histogram(
            "service_time_s", "pp_begin-admission to pp_end duration"
        )
        self.h_admission = m.histogram(
            "admission_latency_s",
            "pp_begin receipt to admitted reply (park time included)",
        )
        self.h_sojourn = m.histogram(
            "queue_sojourn_s",
            "time spent parked on the pending queue, however the park ended",
        )
        self.c_hello = m.counter("hello_total", "hello handshakes")
        self.c_heartbeats = m.counter("heartbeats_total", "lease heartbeats")
        self.c_idempotent = m.counter(
            "idempotent_replays_total",
            "pp_begin calls deduplicated by idempotency token",
        )
        self.c_leases_reclaimed = m.counter(
            "leases_reclaimed_total",
            "expired client leases the reaper reclaimed periods from",
        )
        self.c_lease_periods = m.counter(
            "lease_reclaimed_periods_total",
            "running periods cancelled by the lease reaper",
        )
        if self.cfg.predict:
            self.c_predicted_admits = m.counter(
                "predicted_admits_total",
                "pp_begin admissions charged on a learned demand estimate "
                "instead of the declared demand",
            )
            self.c_mispredicts_over = m.counter(
                "mispredicts_over_total",
                "closed periods whose charge exceeded the observed demand "
                "beyond the error band",
            )
            self.c_mispredicts_under = m.counter(
                "mispredicts_under_total",
                "closed periods whose charge fell short of the observed "
                "demand beyond the error band",
            )
            self.c_elastic_shrinks = m.counter(
                "elastic_shrinks_total",
                "running reservations shrunk by the elastic controller",
            )
            self.c_elastic_grows = m.counter(
                "elastic_grows_total",
                "running reservations grown by the elastic controller",
            )
            self.h_rel_error = m.histogram(
                "prediction_rel_error",
                "|charged − observed| / observed at period close",
            )
        m.gauge("clients", fn=lambda: len(self.leases))
        self.g_replayed = m.gauge(
            "journal_replayed_periods", "periods restored from the journal at boot"
        )
        m.gauge(
            "journal_events",
            fn=lambda: self.journal.events_total if self.journal else 0,
        )

    # ------------------------------------------------------------------
    # leases and the journal
    # ------------------------------------------------------------------
    def make_record(self, client_id: Optional[str] = None) -> ClientRecord:
        """A fresh per-client record (anonymous unless ``client_id``)."""
        return ClientRecord(self, client_id)

    def journal_admit(self, period: ProgressPeriod) -> None:
        """Write-ahead one admission (lease-bound owners only)."""
        if self.journal is None:
            return
        record = period.owner
        client_id = getattr(record, "client_id", None)
        if client_id is None:
            return  # anonymous periods die with their connection anyway
        key = period.request.sharing_key
        client_key = (
            key[1]
            if isinstance(key, tuple) and len(key) == 2 and key[0] == "serve"
            else None
        )
        self.journal.record_admit(AdmitRecord(
            pp_id=period.pp_id,
            client=client_id,
            resource=period.resource.value,
            demand_bytes=period.demand_bytes,
            reuse=period.request.reuse.value,
            sharing_key=client_key,
            label=period.request.label,
            forced=period.forced,
            token=record.token_of(period.pp_id),
        ))

    def journal_close(self, pp_id: int) -> None:
        """Balance a journaled admission (no-op for unjournaled periods)."""
        if self.journal is not None:
            self.journal.record_close(pp_id)

    def _recover(self) -> None:
        """Rebuild ledger, lease table and token index from the journal."""
        assert self.journal is not None
        state = self.journal.recover()
        for rec in sorted(state.open.values(), key=lambda r: r.pp_id):
            record, _ = self.leases.get_or_create(rec.client, self.make_record)
            request = PeriodRequest(
                resource=ResourceKind(rec.resource),
                demand_bytes=rec.demand_bytes,
                reuse=ReuseLevel(rec.reuse),
                sharing_key=(
                    ("serve", rec.sharing_key)
                    if rec.sharing_key is not None
                    else None
                ),
                label=rec.label,
            )
            period = ProgressPeriod(
                request=request,
                owner=record,
                pp_id=rec.pp_id,
                begin_time=time.monotonic(),
            )
            # forced must be set before restore() so the sanitizer's
            # demand-bound check sees the exemption on the replay charge
            period.forced = rec.forced
            self.monitor.restore(period)
            record.api.adopt(period)
            record.bind_token(rec.token, rec.pp_id)
            self.leases.renew(record)  # a fresh TTL of grace to reconnect
            self.replayed_periods += 1
            if self.estimator is not None:
                # the journaled demand is what is charged *now* (resizes
                # included); it doubles as the declared value for the
                # eventual close's estimator sample
                self._predictions[rec.pp_id] = (
                    (rec.client, rec.sharing_key or rec.label or ""),
                    rec.demand_bytes,
                    rec.demand_bytes,
                )
        if self.estimator is not None:
            for client, skey, declared, observed in state.obs:
                self.estimator.observe((client, skey), declared, observed)
        ensure_pp_ids_above(state.max_pp_id)
        self.g_replayed.set(self.replayed_periods)
        if self.replayed_periods:
            self.note_usage()

    # ------------------------------------------------------------------
    # demand prediction and elastic re-admission (repro.predict)
    # ------------------------------------------------------------------
    def predict_key(
        self, record: ClientRecord, request: protocol.Request
    ) -> EstimatorKey:
        """Estimator key for a begin: (client, sharing-key-or-label).

        A working set is a property of the code phase, not of one
        connection, so anonymous sessions share the ``""`` client bucket
        and periods without a sharing key fall back to their label.
        """
        client = getattr(record, "client_id", None) or ""
        return (client, request.sharing_key or request.label or "")

    def predicted_demand(
        self, record: ClientRecord, request: protocol.Request
    ) -> Tuple[int, bool]:
        """Bytes to admit a pp_begin on: (demand, used_prediction).

        With prediction off — or while the estimator is below its sample
        or confidence gates — this is exactly the declared demand.  A
        confident estimate replaces it, floored at
        ``predict_floor_frac × declared`` so a confident-but-wrong model
        cannot collapse a reservation to nothing.
        """
        if self.estimator is None:
            return request.demand_bytes, False
        key = self.predict_key(record, request)
        predicted = self.estimator.predict(key, request.demand_bytes)
        if predicted is None:
            return request.demand_bytes, False
        floor = int(request.demand_bytes * self.cfg.predict_floor_frac)
        return max(predicted, floor, 1), True

    def track_open(
        self,
        pp_id: int,
        record: ClientRecord,
        request: protocol.Request,
        admit_bytes: int,
    ) -> None:
        """Remember an open period's declared/charged demand (predict on)."""
        if self.estimator is None:
            return
        key = self.predict_key(record, request)
        self._predictions[pp_id] = (key, request.demand_bytes, admit_bytes)

    def forget_prediction(self, pp_id: int) -> None:
        self._predictions.pop(pp_id, None)

    def observe_close(
        self, pp_id: int, charged_bytes: int, observed_bytes: Optional[int]
    ) -> List[ProgressPeriod]:
        """Ingest a closed period's observed demand; maybe resize peers.

        Feeds the estimator (journaling the sample), classifies the
        charge-vs-observation error, updates the elastic controller and —
        past its hysteresis — shrinks or grows the key's still-running
        reservations.  Returns waiters admitted by any elastic shrink.
        """
        info = self._predictions.pop(pp_id, None)
        if (
            self.estimator is None
            or self.detector is None
            or self.elastic is None
            or info is None
            or observed_bytes is None
            or observed_bytes <= 0
        ):
            return []
        key, declared, _ = info
        if declared <= 0:
            return []
        self.estimator.observe(key, declared, observed_bytes)
        if self.journal is not None:
            self.journal.record_obs(key[0], key[1], declared, observed_bytes)
        sample = self.detector.classify(charged_bytes, observed_bytes)
        self.h_rel_error.observe(abs(sample.rel_error))
        if sample.direction == "over":
            self.c_mispredicts_over.inc()
        elif sample.direction == "under":
            self.c_mispredicts_under.inc()
        decision = self.elastic.update(key, sample)
        if decision is None:
            return []
        return self._apply_elastic(key, decision.action, observed_bytes)

    def _apply_elastic(
        self, key: EstimatorKey, action: str, observed_bytes: int
    ) -> List[ProgressPeriod]:
        """Resize the key's RUNNING reservations toward the learned demand.

        Growth is bounded by the policy's demand bound (the sanitizer
        enforces it): when there is no headroom the larger learned demand
        simply parks the key's *next* period via the admission predicate.
        """
        assert self.estimator is not None
        admitted: List[ProgressPeriod] = []
        bound = self.policy.demand_bound(self.llc.capacity_bytes)
        for pp_id, (peer_key, declared, _) in list(self._predictions.items()):
            if peer_key != key:
                continue
            period = self.registry.find(pp_id)
            if period is None or period.state is not PeriodState.RUNNING:
                continue
            current = period.request.demand_bytes
            target = self.estimator.predict(key, declared)
            if target is None:
                target = observed_bytes
            target = max(
                target, max(1, int(declared * self.cfg.predict_floor_frac))
            )
            if action == "shrink":
                if target >= current:
                    continue
                _, woken = self.monitor.resize(pp_id, target)
                self.c_elastic_shrinks.inc()
                admitted.extend(woken)
            else:  # grow
                if target <= current:
                    continue
                headroom = bound - self.llc.usage_bytes
                grow_to = min(target, current + int(headroom))
                if grow_to <= current:
                    continue
                self.monitor.resize(pp_id, grow_to)
                self.c_elastic_grows.inc()
            if self.journal is not None:
                self.journal.record_resize(pp_id, period.request.demand_bytes)
            self._predictions[pp_id] = (
                peer_key, declared, period.request.demand_bytes,
            )
        if admitted:
            self.note_usage()
        return admitted

    def predicted_for_client(self, client_id: Optional[str]) -> Optional[int]:
        """Confident peak-demand estimate for a client (placement hints)."""
        if self.estimator is None or not client_id:
            return None
        return self.estimator.predicted_for_client(client_id)

    # ------------------------------------------------------------------
    def note_usage(self) -> None:
        """Refresh the usage/waiting high-water marks."""
        self.g_usage_peak.max(self.llc.usage_bytes)
        self.g_waiting_peak.max(len(self.waitlist))

    def force_admit(self, period: ProgressPeriod) -> None:
        """The core's forced admission, also counted in the metrics."""
        super().force_admit(period)
        self.c_forced.inc()

    def rescue_starved(self) -> List[ProgressPeriod]:
        rescued = super().rescue_starved()
        if rescued:
            self.note_usage()
        return rescued

    def snapshot(self) -> Dict[str, Any]:
        """The ``query`` verb's service-level view."""
        resources = {
            str(kind): {
                "usage_bytes": usage,
                "capacity_bytes": capacity,
                "utilization": usage / capacity if capacity else 0.0,
                "waiting": self.waitlist.waiting_on(kind),
            }
            for kind, (usage, capacity) in self.resources.snapshot().items()
        }
        snap: Dict[str, Any] = {
            "policy": self.policy.name,
            **({"shard": self.cfg.shard_name} if self.cfg.shard_name else {}),
            "demand_bound_bytes": self.policy.demand_bound(self.llc.capacity_bytes),
            "open_periods": len(self.registry),
            "waiting": len(self.waitlist),
            "forced_admissions": self.forced_admissions,
            "clients": len(self.leases),
            "lease_ttl_s": self.leases.ttl_s,
            "demand_peak_bytes": self.demand_peak_bytes,
            "resources": resources,
        }
        if self.journal is not None:
            snap["journal"] = {
                "path": self.journal.path,
                "events_total": self.journal.events_total,
                "open": len(self.journal.open),
                "replayed_periods": self.replayed_periods,
            }
        if self.estimator is not None:
            snap["predict"] = {
                "error_band": self.cfg.predict_error_band,
                "min_samples": self.cfg.predict_min_samples,
                "tracked_periods": len(self._predictions),
            }
        return snap


class ShardSession(Session):
    """A shard connection plus the client record speaking on it.

    A fresh connection starts with an **anonymous** record whose periods
    die with the socket.  ``hello`` swaps in a named, lease-bound
    :class:`~repro.serve.leases.ClientRecord` that outlives connections.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(
        self, listener: "AdmissionServer", framer: Framer
    ) -> None:
        super().__init__(listener, framer)
        self.id = next(self._ids)
        self.record = listener.service.make_record()
        self.record.session = self
        #: the hello carried "redirect": true — the client follows
        #: REDIRECT, so a front-end may move its parked begin
        self.movable = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<session #{self.id}>"


class AdmissionServer(Listener):
    """One admission shard: parking, timeouts, leases, drain."""

    session_class = ShardSession

    def __init__(self, cfg: ServeConfig) -> None:
        self.service = AdmissionService(cfg)
        super().__init__(
            cfg,
            self.service.metrics,
            idle_timeout_s=cfg.idle_timeout_s,
            write_timeout_s=cfg.write_timeout_s,
        )
        #: pp_id -> future resolved with "admitted" | "drained", or with
        #: the shard address a migrated begin is redirected to
        self._parked: Dict[int, asyncio.Future] = {}
        #: True once abort() ran — a supervisor restarting this shard
        #: must skip the graceful drain (the journal handle is already
        #: abandoned and the transports are gone)
        self.aborted = False
        self.verbs = {
            "hello": self._op_hello,
            "heartbeat": self._op_heartbeat,
            "pp_begin": self._op_pp_begin,
            "pp_end": self._op_pp_end,
            "query": self._op_query,
            "stats": self._op_stats,
            "drain": self._op_drain,
            "migrate": self._op_migrate,
        }

    # ------------------------------------------------------------------
    # listener hooks
    # ------------------------------------------------------------------
    def _background_loops(self) -> List[Awaitable[None]]:
        return [self._guard_loop(), self._lease_loop()]

    async def _dispatch(
        self, session: ShardSession, request: protocol.Request
    ) -> Optional[Dict[str, Any]]:
        # Any well-formed frame proves the client is alive.
        self.service.leases.renew(session.record)
        return await super()._dispatch(session, request)

    async def _wind_down(self) -> None:
        """Wake every parked client with DRAINING, then give running
        periods the grace budget to pp_end naturally."""
        for future in list(self._parked.values()):
            if not future.done():
                future.set_result("drained")
        deadline = time.monotonic() + self.cfg.drain_grace_s
        while len(self.service.registry) > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    async def _stopped(self) -> None:
        # Lease-held periods may outlive a lapsed grace; only an idle
        # service must have released everything.
        if self.service.sanitizer is not None and not self.service.registry:
            self.service.sanitizer.finalize()
        if self.service.journal is not None:
            self.service.journal.close()

    async def abort(self) -> None:
        """Crash simulation: the in-process analogue of ``kill -9``.

        No drain, no client notification, no journal flush — transports
        are hard-dropped and the journal handle abandoned, leaving the log
        exactly as a power cut would.  Used by the crash-recovery tests
        and the chaos harness's in-process mode.
        """
        self.aborted = True
        if self.service.journal is not None:
            self.service.journal.abandon()  # poison appends *first*
        for server in self._servers:
            server.close()
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        for future in list(self._parked.values()):
            if not future.done():
                future.cancel()
        for session in list(self.sessions):
            session.close(abort=True)
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)

    # ------------------------------------------------------------------
    # background tasks
    # ------------------------------------------------------------------
    async def _guard_loop(self) -> None:
        """Periodic starvation-guard sweep (safety net for the inline one)."""
        while True:
            await asyncio.sleep(self.cfg.starvation_check_s)
            self._wake(self.service.rescue_starved())

    async def _lease_loop(self) -> None:
        """Reap the admitted demand of clients whose lease lapsed."""
        while True:
            await asyncio.sleep(self.cfg.lease_check_s)
            self._reap_expired()

    def _reap_expired(self) -> None:
        """One reaper sweep over every expired lease.

        A dead client (no live connection) is fully reclaimed: all of its
        periods are cancelled and the record forgotten.  A *live* but
        silent client — a wedged proxy can hold a TCP session open long
        after the process died — loses its RUNNING periods (parked ones
        are already bounded by the park timeout) but keeps its record, so
        a late frame still speaks for a known identity.
        """
        service = self.service
        admitted: List[ProgressPeriod] = []
        reclaimed_any = False
        for record in service.leases.expired():
            dead = record.session is None or record.session.closed
            reclaimed = 0
            for pp_id in list(record.api.open_ids()):
                period = record.api.period(pp_id)
                if dead or period.state is PeriodState.RUNNING:
                    self._parked.pop(pp_id, None)
                    admitted.extend(self._cancel_period(record, pp_id))
                    reclaimed += 1
            if reclaimed:
                service.c_leases_reclaimed.inc()
                service.c_lease_periods.inc(reclaimed)
                reclaimed_any = True
            if dead:
                service.leases.forget(record)
            else:
                service.leases.renew(record)  # one reclaim per lapse, not per sweep
        if reclaimed_any:
            admitted.extend(service.rescue_starved())
        self._wake(admitted)

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    async def _op_pp_begin(
        self, session: ShardSession, request: protocol.Request
    ) -> Optional[Dict[str, Any]]:
        service = self.service
        service.c_begin.inc()
        record = session.record
        # Idempotent re-issue: a token that already names an open admitted
        # period returns that period instead of charging twice — the
        # resilient client re-sends pp_begin after a lost reply.
        if request.token is not None:
            known = record.tokens.get(request.token)
            if known is not None:
                try:
                    period = record.api.period(known)
                except ProgressPeriodError:
                    record.drop_token(known)
                    period = None
                if period is not None and period.state is PeriodState.RUNNING:
                    service.c_idempotent.inc()
                    return self._admitted_reply(request.id, period, deduped=True)
                if period is not None and period.state is PeriodState.WAITING:
                    # A stale parked period from a taken-over connection:
                    # supersede it rather than park the same token twice.
                    self._parked.pop(known, None)
                    self._wake(self._cancel_period(record, known))
        if self.draining:
            service.c_draining_rejects.inc()
            return protocol.error_reply(
                request.id, ErrorCode.DRAINING, "server is draining"
            )
        if not service.resources.known(request.resource):
            self.c_protocol_errors.inc()
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                f"resource {request.resource} is not managed by this server",
            )
        service.demand_peak_bytes = max(
            service.demand_peak_bytes, request.demand_bytes
        )
        # Overload backpressure: the pending-admission queue is bounded,
        # and per client too, so one storm client cannot occupy all of it.
        cfg = self.cfg
        waiting = 0
        if cfg.max_pending_per_client is not None:
            waiting = sum(
                1
                for pp_id in record.api.open_ids()
                if record.api.period(pp_id).state is PeriodState.WAITING
            )
        refusal = quota_refusal(
            len(service.waitlist), waiting, cfg.max_pending,
            cfg.max_pending_per_client,
        )
        if refusal is not None:
            service.c_retry_after.inc()
            if refusal == "max_pending":
                message = (
                    f"pending-admission queue is full "
                    f"({cfg.max_pending} waiter(s))"
                )
            else:
                service.c_quota_rejects.inc()
                message = (
                    f"client has {waiting} parked admission(s), at the "
                    f"per-client quota of {cfg.max_pending_per_client}"
                )
            return protocol.error_reply(
                request.id, ErrorCode.RETRY_AFTER, message,
                retry_after_s=self._retry_hint_s(),
            )
        sharing_key = (
            ("serve", request.sharing_key) if request.sharing_key is not None else None
        )
        # With --predict, a confident learned estimate replaces the
        # declared demand: admit on max(predicted, floor).
        admit_bytes, used_prediction = service.predicted_demand(record, request)
        if used_prediction:
            service.c_predicted_admits.inc()
        pp_id = record.api.pp_begin(
            request.resource,
            admit_bytes,
            request.reuse,
            label=request.label,
            sharing_key=sharing_key,
        )
        service.track_open(pp_id, record, request, admit_bytes)
        period = record.api.period(pp_id)
        # Bind the token *before* any admission so _wake-time journaling
        # of after-park admissions can read it off the owner record.
        record.bind_token(request.token, pp_id)
        service.force_if_idle(period)
        if period.state is PeriodState.RUNNING:
            service.c_immediate.inc()
            service.note_usage()
            service.journal_admit(period)
            return self._admitted_reply(request.id, period)
        return await self._park(session, request, period)

    def _retry_hint_s(self) -> float:
        """The retry hint carried by shed replies: live queue occupancy
        and the observed median admission latency, clamped to the
        configured bounds (:func:`adaptive_retry_hint_s`)."""
        cfg = self.cfg
        service = self.service
        occupancy = (
            len(service.waitlist) / cfg.max_pending if cfg.max_pending else 1.0
        )
        p50 = (
            service.h_admission.percentile(50.0)
            if service.h_admission.count
            else 0.0
        )
        return adaptive_retry_hint_s(
            occupancy, p50, cfg.retry_hint_floor_s, cfg.retry_hint_cap_s
        )

    async def _park(
        self,
        session: ShardSession,
        request: protocol.Request,
        period: ProgressPeriod,
    ) -> Optional[Dict[str, Any]]:
        """Defer the reply until admission, timeout, drain, or disconnect.

        The park also waits on the session's framer, so a client that dies
        mid-park is noticed at once (its period cancelled, its demand
        released).  Frames it pipelines stay queued in the framer, up to
        its bound, and are served after the deferred reply.
        """
        service = self.service
        service.note_usage()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._parked[period.pp_id] = future
        parked_at = loop.time()
        park_timeout_s = self.cfg.park_timeout_s
        deadline = None if park_timeout_s is None else parked_at + park_timeout_s
        framer = session.framer
        try:
            while True:
                if framer.ended:
                    # Client vanished while parked (or sent a frame the
                    # stream cannot be re-synchronized after).  Anonymous
                    # periods are cancelled outright; a lease-bound client
                    # may be reconnecting, so its parked period is
                    # cancelled (the reply target is gone) but re-issue by
                    # token is safe.
                    session.closed = True
                    service.c_disconnect_cancel.inc()
                    self._wake(self._cancel_period(session.record, period.pp_id))
                    self._wake(service.rescue_starved())
                    return None  # no one left to reply to
                if future.done():
                    break
                arrival = framer.arrival()
                timeout = (
                    None if deadline is None else max(0.0, deadline - loop.time())
                )
                done, _ = await asyncio.wait(
                    {future, arrival},
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    # Pure timeout: the wait is shed, not failed — cancel
                    # the period and answer with a retry hint.
                    self._wake(self._cancel_period(session.record, period.pp_id))
                    self._wake(service.rescue_starved())
                    service.c_park_timeout.inc()
                    return protocol.error_reply(
                        request.id, ErrorCode.PARK_TIMEOUT,
                        f"parked past the {park_timeout_s} s park timeout; "
                        "period cancelled",
                        waited_s=park_timeout_s,
                        retry_after_s=self._retry_hint_s(),
                    )
                if arrival.done() and not framer.ended:
                    # A pipelined frame (heartbeat included) proves the
                    # parked client alive even before it is parsed.
                    service.leases.renew(session.record)
        finally:
            self._parked.pop(period.pp_id, None)
            service.h_sojourn.observe(max(0.0, loop.time() - parked_at))
        outcome = future.result()
        if outcome == "drained":
            self._wake(self._cancel_period(session.record, period.pp_id))
            return protocol.error_reply(
                request.id, ErrorCode.DRAINING,
                "server drained while the period was parked; period cancelled",
            )
        if isinstance(outcome, dict):
            # migrated: _op_migrate already cancelled the period
            return protocol.error_reply(
                request.id, ErrorCode.REDIRECT,
                f"moved to shard {outcome.get('name')}; re-issue the begin",
                shard=outcome,
            )
        service.c_after_park.inc()
        service.h_park.observe(period.waited_s)
        service.note_usage()
        return self._admitted_reply(request.id, period)

    def _admitted_reply(
        self,
        request_id: Optional[int],
        period: ProgressPeriod,
        deduped: bool = False,
    ) -> Dict[str, Any]:
        if not deduped:
            self.service.h_admission.observe(
                max(0.0, time.monotonic() - period.begin_time)
            )
        reply = protocol.ok_reply(
            request_id,
            pp_id=period.pp_id,
            admitted=True,
            waited_s=period.waited_s,
            forced=period.forced,
        )
        if deduped:
            reply["deduped"] = True
        return reply

    async def _op_hello(
        self, session: ShardSession, request: protocol.Request
    ) -> Dict[str, Any]:
        """Bind this connection to a durable, lease-holding client identity."""
        service = self.service
        record = session.record
        for flag in ("binary", "redirect"):
            if not isinstance(request.raw.get(flag, False), bool):
                return protocol.error_reply(
                    request.id, ErrorCode.BAD_REQUEST,
                    f"{flag!r} must be a boolean when present",
                )
        if not record.anonymous and record.client_id != request.client:
            return protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                f"connection is already bound to client "
                f"{record.client_id!r}; open a new connection to speak for "
                f"{request.client!r}",
            )
        resumed = True  # a re-hello is a plain renewal
        if record.anonymous:
            if record.api.open_count:
                return protocol.error_reply(
                    request.id, ErrorCode.BAD_REQUEST,
                    "'hello' must precede pp_begin on a connection "
                    "(anonymous periods cannot be adopted by an identity)",
                )
            record, resumed = service.leases.get_or_create(
                request.client, service.make_record
            )
            old = record.session
            if old is not None and old is not session and not old.closed:
                # Connection takeover: the newest socket speaks for the
                # client (the old one is typically a zombie behind a dead
                # NAT/proxy).
                old.close()
            record.session = session
            session.record = record
            service.c_hello.inc()
        session.movable = request.raw.get("redirect", False)
        service.leases.renew(record)
        open_periods = []
        for pp_id in record.api.open_ids():
            period = record.api.period(pp_id)
            if period.state is PeriodState.RUNNING:
                open_periods.append({
                    "pp_id": pp_id,
                    "token": record.token_of(pp_id),
                    "demand_bytes": period.demand_bytes,
                    "label": period.request.label,
                    "forced": period.forced,
                })
        reply = protocol.ok_reply(
            request.id,
            client=record.client_id,
            resumed=resumed,
            lease_ttl_s=service.leases.ttl_s,
            open=open_periods,
        )
        if request.raw.get("binary"):
            reply["binary"] = True  # the listener switches the framing
        # Learned peak demand doubles as a cluster placement hint: the
        # client forwards it as `hello demand_bytes` on its next connect.
        hint = service.predicted_for_client(record.client_id)
        if hint is not None:
            reply["predicted_demand_bytes"] = hint
        return reply

    async def _op_heartbeat(
        self, session: ShardSession, request: protocol.Request
    ) -> Dict[str, Any]:
        record = session.record
        if record.anonymous:
            return protocol.error_reply(
                request.id, ErrorCode.NOT_BOUND,
                "heartbeat requires a client identity; send 'hello' first",
            )
        self.service.leases.renew(record)  # explicit on top of the per-frame renewal
        self.service.c_heartbeats.inc()
        return protocol.ok_reply(
            request.id,
            client=record.client_id,
            lease_remaining_s=self.service.leases.remaining_s(record),
            open_periods=record.api.open_count,
        )

    async def _op_pp_end(
        self, session: ShardSession, request: protocol.Request
    ) -> Dict[str, Any]:
        service = self.service
        record = session.record
        try:
            period = record.api.period(request.pp_id)
        except ProgressPeriodError:
            self.c_protocol_errors.inc()
            return protocol.error_reply(
                request.id, ErrorCode.UNKNOWN_PERIOD,
                f"pp_id {request.pp_id} is not an open period of this "
                "connection (already ended, cancelled, or never begun)",
            )
        # WAL discipline: the release hits the log before the ledger, so a
        # crash in between replays a *closed* period as closed (the client
        # saw no reply and will retry pp_end, which is tolerated).
        record.drop_token(request.pp_id)
        charged = period.request.demand_bytes
        service.journal_close(request.pp_id)
        admitted = record.api.pp_end(request.pp_id)
        service.c_end.inc()
        if period.admit_time is not None and period.end_time is not None:
            service.h_service.observe(period.end_time - period.admit_time)
        self._wake(admitted)
        # Demand prediction: ingest the client's observed working set,
        # detect mispredictions and elastically resize the key's peers.
        self._wake(
            service.observe_close(request.pp_id, charged, request.observed_bytes)
        )
        self._wake(service.rescue_starved())
        return protocol.ok_reply(
            request.id, pp_id=request.pp_id, released=True,
            admitted_waiters=len(admitted),
        )

    async def _op_query(
        self, session: ShardSession, request: protocol.Request
    ) -> Dict[str, Any]:
        snapshot = self.service.snapshot()
        snapshot["draining"] = self.draining
        snapshot["parked"] = self._movable_parked()
        if request.pp_id is not None:
            try:
                period = session.record.api.period(request.pp_id)
            except ProgressPeriodError:
                return protocol.error_reply(
                    request.id, ErrorCode.UNKNOWN_PERIOD,
                    f"pp_id {request.pp_id} is not an open period of this "
                    "connection",
                )
            snapshot["period"] = {
                "pp_id": period.pp_id,
                "state": period.state.value,
                "demand_bytes": period.demand_bytes,
                "queue_position": self.service.waitlist.position(period),
                "waited_s": (
                    period.waited_s
                    if period.admit_time is not None
                    else time.monotonic() - period.begin_time
                ),
                "forced": period.forced,
            }
        return protocol.ok_reply(request.id, **snapshot)

    def _movable(self, period: Optional[ProgressPeriod]) -> bool:
        """Is ``period`` a parked begin a front-end may move?  Its client
        follows REDIRECT and has no other open period."""
        if period is None or period.owner.session is None:
            return False
        future, session = self._parked.get(period.pp_id), period.owner.session
        return (
            future is not None and not future.done()
            and session.movable and not session.closed
            and period.owner.api.open_count == 1
        )

    def _movable_parked(self) -> List[Dict[str, Any]]:
        """Movable parked begins, longest-parked first, at most
        :data:`MAX_PARKED_LISTED`."""
        now = time.monotonic()
        find = self.service.registry.find
        parked = sorted(
            filter(self._movable, map(find, self._parked)),
            key=lambda p: p.begin_time,
        )
        return [
            {
                "client": p.owner.client_id,
                "resource": p.resource.value,
                "demand_bytes": p.demand_bytes,
                "parked_s": now - p.begin_time,
            }
            for p in parked[:MAX_PARKED_LISTED]
        ]

    async def _op_migrate(
        self, session: ShardSession, request: protocol.Request
    ) -> Dict[str, Any]:
        """Move a client's parked begin to the shard the request names:
        ``moved`` is 1 when the begin will be answered with REDIRECT."""
        record = self.service.leases.get(request.client)
        open_ids = record.api.open_ids() if record is not None else []
        period = record.api.period(open_ids[0]) if len(open_ids) == 1 else None
        if not self._movable(period):
            return protocol.ok_reply(request.id, moved=0)
        # Cancel now, before this handler returns, so no admission can
        # land on the period before the parked handler sends the REDIRECT.
        self._wake(self._cancel_period(record, period.pp_id))
        self._parked[period.pp_id].set_result(request.raw["shard"])
        return protocol.ok_reply(request.id, moved=1)

    async def _op_stats(
        self, session: ShardSession, request: protocol.Request
    ) -> Dict[str, Any]:
        stats = self.service.metrics.snapshot()
        sanitizer = self.service.sanitizer
        stats["sanitizer"] = (
            None
            if sanitizer is None
            else {"ok": sanitizer.ok, "violations": len(sanitizer.violations)}
        )
        return protocol.ok_reply(request.id, stats=stats)

    async def _op_drain(
        self, session: ShardSession, request: protocol.Request
    ) -> Dict[str, Any]:
        # The listener starts the drain once this reply is written, so the
        # caller always hears back.
        return protocol.ok_reply(
            request.id,
            draining=True,
            open_periods=len(self.service.registry),
            waiting=len(self.service.waitlist),
        )

    # ------------------------------------------------------------------
    # wakeups and cleanup
    # ------------------------------------------------------------------
    def _cancel_period(
        self, record: ClientRecord, pp_id: int
    ) -> List[ProgressPeriod]:
        """Cancel one period with full bookkeeping: token, journal, charge.

        Tolerates a period that is already gone (e.g. a takeover cancelled
        it just before the old connection's EOF path runs) — cancellation
        paths race by design and the loser must be a no-op.
        """
        record.drop_token(pp_id)
        self.service.forget_prediction(pp_id)
        try:
            record.api.period(pp_id)
        except ProgressPeriodError:
            return []
        self.service.journal_close(pp_id)
        return record.api.pp_cancel(pp_id)

    def _wake(self, admitted: List[ProgressPeriod]) -> None:
        """Resolve the parked futures of newly admitted periods.

        Every waitlist admission — after a release, a rescue, or a reaper
        reclaim — funnels through here, so this is also where after-park
        admissions hit the journal: the write-ahead record lands before
        the parked handler wakes to send its reply.
        """
        for period in admitted:
            self.service.journal_admit(period)
            future = self._parked.get(period.pp_id)
            if future is not None and not future.done():
                future.set_result("admitted")

    def _end_session(self, session: ShardSession) -> None:
        """Connection gone: settle what dies with it, keep what is leased.

        Anonymous records keep the original semantics — every period is
        cancelled, demand released, waiters admitted (the kernel's
        thread-exit path, `abandon_owner`).  A lease-bound record keeps
        its RUNNING periods alive under the lease (the client may be
        reconnecting); only parked periods are cancelled, because their
        deferred reply has no destination any more.
        """
        record = session.record
        if record.session is session:
            record.session = None
        cancelled = False
        admitted: List[ProgressPeriod] = []
        for pp_id in record.api.open_ids():
            period = record.api.period(pp_id)
            if record.anonymous or period.state is PeriodState.WAITING:
                self._parked.pop(pp_id, None)  # its future dies with the task
                admitted.extend(self._cancel_period(record, pp_id))
                self.service.c_disconnect_cancel.inc()
                cancelled = True
        if cancelled:
            admitted.extend(self.service.rescue_starved())
            self._wake(admitted)

