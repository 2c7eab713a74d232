"""The online demand-aware admission-control service.

The paper's RDA layer is an *online* kernel service: ``pp_begin`` /
``pp_end`` calls arrive from live processes, and the kernel admits, parks,
or wakes them in real time.  This module runs the same admission machinery
— :class:`~repro.core.progress_monitor.ProgressMonitor`, the Algorithm-1
predicate, the resource waitlist and the Strict/Compromise policies — as a
long-running asyncio daemon speaking the newline-delimited-JSON protocol
of :mod:`repro.serve.protocol` over TCP or a Unix socket.

Design points:

* **Decisions as values, on a single writer.**  :class:`AdmissionService`
  decides every verb and every event that is not a verb (a park, session
  or lease that ends) in one synchronous method, on one clock, returning
  a :class:`Decision`.  :class:`AdmissionServer` only carries frames,
  parked futures and timers, and runs each decision on its event loop
  with no ``await`` inside, so the core stack needs no locks — the asyncio
  loop plays the role of the kernel's run-queue lock.
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
  waiting period whenever its resource is completely idle, inline at
  begin and after every release, so a mis-annotated client is slow
  instead of deadlocked.
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
from typing import Any, Awaitable, Callable, Dict, List, NamedTuple
from typing import Optional, Sequence, Tuple

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
from .metrics import Counter, MetricsRegistry
from .protocol import ErrorCode

__all__ = [
    "ServeConfig",
    "AdmissionService",
    "AdmissionServer",
    "Decision",
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


class Decision(NamedTuple):
    """One decision, as a value: the ``reply`` (None when nobody is left to
    answer, or while ``park`` waits), the begin to ``park``, and the parked
    begins ``woken`` now: those admitted off the waitlist (journaled) and
    one moved to another shard."""

    reply: Optional[Dict[str, Any]]
    park: Optional[ProgressPeriod] = None
    woken: Sequence[ProgressPeriod] = ()


class AdmissionService(AdmissionCore):
    """The admission state machine, independent of any transport.

    One method per verb, reached through :meth:`decide`, and one per event
    that is not a verb (:meth:`park_ended`, :meth:`end_session`,
    :meth:`reap`), each returning a :class:`Decision`.  A *session* is the
    connection a request came on: its ``record``, its ``closed`` and
    ``movable`` flags and ``close()``.  ``clock`` times periods and leases.

    All methods must be called from a single thread/event loop (the
    single-writer discipline); they never block.
    """

    def __init__(
        self, cfg: ServeConfig, clock: Callable[[], float] = time.monotonic
    ) -> None:
        super().__init__(
            cfg.policy if cfg.policy is not None else AlwaysAdmitPolicy(),
            cfg.machine.llc_capacity,
            clock,
            strict_fifo=cfg.strict_fifo,
        )
        self.cfg = cfg
        self.clock = clock
        #: draining: begins are refused, parked ones answered DRAINING
        self.draining = False
        #: pp_id of a parked begin moved away -> the shard its REDIRECT names
        self._moved: Dict[int, Dict[str, Any]] = {}
        #: largest demand a pp_begin declared since boot (the cluster
        #: front-end's brownout yardstick)
        self.demand_peak_bytes = 0
        self.sanitizer = None
        if cfg.sanitize:  # imported here: unsanitized servers skip its cost
            from ..sanitizer import KernelSanitizer, default_checkers
            checkers = default_checkers(["conservation", "demand-bound"])
            self.sanitizer = KernelSanitizer(checkers).attach_core(self)
        self.leases = LeaseTable(cfg.lease_ttl_s, clock)
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
        #: invalid begins and ends; a server counts them with its bad frames
        self.c_protocol_errors = Counter("protocol_errors_total")
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
                begin_time=self.clock(),
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
        rescued = self._journaled(super().rescue_starved())
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

    # ------------------------------------------------------------------
    # the verbs
    # ------------------------------------------------------------------
    def decide(self, session: Any, request: protocol.Request) -> Decision:
        """Decide one well-formed request with its verb's method below
        (``request.op`` is one of :data:`~repro.serve.protocol.VERBS`)."""
        self.alive(session)
        return getattr(self, request.op)(session, request)

    def alive(self, session: Any) -> None:
        """A frame arrived on ``session``: any well-formed frame, or one
        pipelined behind a parked begin before it is parsed, proves the
        client alive, so its lease is renewed."""
        self.leases.renew(session.record)

    def hello(self, session: Any, request: protocol.Request) -> Decision:
        """Bind this connection to a durable, lease-holding client identity."""
        record = session.record
        for flag in ("binary", "redirect"):
            if not isinstance(request.raw.get(flag, False), bool):
                return Decision(protocol.error_reply(
                    request.id, ErrorCode.BAD_REQUEST,
                    f"{flag!r} must be a boolean when present",
                ))
        if not record.anonymous and record.client_id != request.client:
            return Decision(protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                f"connection is already bound to client "
                f"{record.client_id!r}; open a new connection to speak for "
                f"{request.client!r}",
            ))
        resumed = True  # a re-hello is a plain renewal
        if record.anonymous:
            if record.api.open_count:
                return Decision(protocol.error_reply(
                    request.id, ErrorCode.BAD_REQUEST,
                    "'hello' must precede pp_begin on a connection "
                    "(anonymous periods cannot be adopted by an identity)",
                ))
            record, resumed = self.leases.get_or_create(
                request.client, self.make_record
            )
            old = record.session
            if old is not None and old is not session and not old.closed:
                # Connection takeover: the newest socket speaks for the
                # client (the old one is typically a zombie behind a dead
                # NAT/proxy).
                old.close()
            record.session = session
            session.record = record
            self.c_hello.inc()
        session.movable = request.raw.get("redirect", False)
        self.leases.renew(record)
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
            lease_ttl_s=self.leases.ttl_s,
            open=open_periods,
        )
        if request.raw.get("binary"):
            reply["binary"] = True  # the listener switches the framing
        # Learned peak demand doubles as a cluster placement hint: the
        # client forwards it as `hello demand_bytes` on its next connect.
        hint = self.predicted_for_client(record.client_id)
        if hint is not None:
            reply["predicted_demand_bytes"] = hint
        return Decision(reply)

    def heartbeat(self, session: Any, request: protocol.Request) -> Decision:
        record = session.record
        if record.anonymous:
            return Decision(protocol.error_reply(
                request.id, ErrorCode.NOT_BOUND,
                "heartbeat requires a client identity; send 'hello' first",
            ))
        self.c_heartbeats.inc()
        return Decision(protocol.ok_reply(
            request.id,
            client=record.client_id,
            lease_remaining_s=self.leases.remaining_s(record),
            open_periods=record.api.open_count,
        ))

    def pp_begin(self, session: Any, request: protocol.Request) -> Decision:
        self.c_begin.inc()
        record = session.record
        superseded: List[ProgressPeriod] = []
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
                    self.c_idempotent.inc()
                    return Decision(
                        self._admitted_reply(request.id, period, deduped=True)
                    )
                if period is not None and period.state is PeriodState.WAITING:
                    # A stale parked period from a taken-over connection:
                    # supersede it rather than park the same token twice.
                    # It holds no charge, but as a strict-FIFO head it held
                    # back the waiters behind it: those its leaving admits
                    # are woken with whatever this begin decides.
                    superseded = self._cancel(record, known)
        if self.draining:
            self.c_draining_rejects.inc()
            return Decision(protocol.error_reply(
                request.id, ErrorCode.DRAINING, "server is draining"
            ), woken=superseded)
        if not self.resources.known(request.resource):
            self.c_protocol_errors.inc()
            return Decision(protocol.error_reply(
                request.id, ErrorCode.BAD_REQUEST,
                f"resource {request.resource} is not managed by this server",
            ), woken=superseded)
        self.demand_peak_bytes = max(self.demand_peak_bytes, request.demand_bytes)
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
            len(self.waitlist), waiting, cfg.max_pending,
            cfg.max_pending_per_client,
        )
        if refusal is not None:
            self.c_retry_after.inc()
            if refusal == "max_pending":
                message = (
                    f"pending-admission queue is full "
                    f"({cfg.max_pending} waiter(s))"
                )
            else:
                self.c_quota_rejects.inc()
                message = (
                    f"client has {waiting} parked admission(s), at the "
                    f"per-client quota of {cfg.max_pending_per_client}"
                )
            return Decision(protocol.error_reply(
                request.id, ErrorCode.RETRY_AFTER, message,
                retry_after_s=self._retry_hint_s(),
            ), woken=superseded)
        sharing_key = (
            ("serve", request.sharing_key) if request.sharing_key is not None else None
        )
        # With --predict, a confident learned estimate replaces the
        # declared demand: admit on max(predicted, floor).
        admit_bytes, used_prediction = self.predicted_demand(record, request)
        if used_prediction:
            self.c_predicted_admits.inc()
        pp_id = record.api.pp_begin(
            request.resource,
            admit_bytes,
            request.reuse,
            label=request.label,
            sharing_key=sharing_key,
        )
        if self.estimator is not None:  # remember declared and charged
            self._predictions[pp_id] = (
                self.predict_key(record, request), request.demand_bytes,
                admit_bytes,
            )
        period = record.api.period(pp_id)
        # Bind the token *before* any admission so the journaling of an
        # after-park admission can read it off the owner record.
        record.bind_token(request.token, pp_id)
        self.force_if_idle(period)
        self.note_usage()
        if period.state is PeriodState.WAITING:
            return Decision(None, park=period, woken=superseded)
        self.c_immediate.inc()
        self.journal_admit(period)
        return Decision(
            self._admitted_reply(request.id, period), woken=superseded
        )

    def _retry_hint_s(self) -> float:
        """The retry hint carried by shed replies: live queue occupancy
        and the observed median admission latency, clamped to the
        configured bounds (:func:`adaptive_retry_hint_s`)."""
        cfg = self.cfg
        occupancy = (
            len(self.waitlist) / cfg.max_pending if cfg.max_pending else 1.0
        )
        p50 = (
            self.h_admission.percentile(50.0) if self.h_admission.count else 0.0
        )
        return adaptive_retry_hint_s(
            occupancy, p50, cfg.retry_hint_floor_s, cfg.retry_hint_cap_s
        )

    def _admitted_reply(
        self,
        request_id: Optional[int],
        period: ProgressPeriod,
        deduped: bool = False,
    ) -> Dict[str, Any]:
        if not deduped:
            self.h_admission.observe(max(0.0, self.clock() - period.begin_time))
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

    def pp_end(self, session: Any, request: protocol.Request) -> Decision:
        record = session.record
        try:
            period = record.api.period(request.pp_id)
        except ProgressPeriodError:
            self.c_protocol_errors.inc()
            return Decision(protocol.error_reply(
                request.id, ErrorCode.UNKNOWN_PERIOD,
                f"pp_id {request.pp_id} is not an open period of this "
                "connection (already ended, cancelled, or never begun)",
            ))
        # WAL discipline: the release hits the log before the ledger, so a
        # crash in between replays a *closed* period as closed (the client
        # saw no reply and will retry pp_end, which is tolerated).
        record.drop_token(request.pp_id)
        charged = period.request.demand_bytes
        self.journal_close(request.pp_id)
        admitted = self._journaled(record.api.pp_end(request.pp_id))
        self.c_end.inc()
        if period.admit_time is not None and period.end_time is not None:
            self.h_service.observe(period.end_time - period.admit_time)
        # Demand prediction: ingest the client's observed working set,
        # detect mispredictions and elastically resize the key's peers.
        woken = admitted + self._journaled(
            self.observe_close(request.pp_id, charged, request.observed_bytes)
        ) + self.rescue_starved()
        return Decision(protocol.ok_reply(
            request.id, pp_id=request.pp_id, released=True,
            admitted_waiters=len(admitted),
        ), woken=woken)

    def query(self, session: Any, request: protocol.Request) -> Decision:
        snapshot = self.snapshot()
        snapshot["draining"] = self.draining
        snapshot["parked"] = self._movable_parked()
        if request.pp_id is not None:
            try:
                period = session.record.api.period(request.pp_id)
            except ProgressPeriodError:
                return Decision(protocol.error_reply(
                    request.id, ErrorCode.UNKNOWN_PERIOD,
                    f"pp_id {request.pp_id} is not an open period of this "
                    "connection",
                ))
            snapshot["period"] = {
                "pp_id": period.pp_id,
                "state": period.state.value,
                "demand_bytes": period.demand_bytes,
                "queue_position": self.waitlist.position(period),
                "waited_s": (
                    period.waited_s
                    if period.admit_time is not None
                    else self.clock() - period.begin_time
                ),
                "forced": period.forced,
            }
        return Decision(protocol.ok_reply(request.id, **snapshot))

    def _movable(self, period: ProgressPeriod) -> bool:
        """Is ``period`` a parked begin a front-end may move?  Its client
        is connected, follows REDIRECT and has no other open period, and
        the shard is not draining (a drain answers every parked begin)."""
        session = period.owner.session
        return (
            period.state is PeriodState.WAITING and not self.draining
            and session is not None and session.movable and not session.closed
            and period.owner.api.open_count == 1
        )

    def _movable_parked(self) -> List[Dict[str, Any]]:
        """Movable parked begins, longest-parked first, at most
        :data:`MAX_PARKED_LISTED`."""
        now = self.clock()
        parked = sorted(
            filter(self._movable, self.registry.waiting()),
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

    def migrate(self, session: Any, request: protocol.Request) -> Decision:
        """Move a client's parked begin to the shard the request names:
        ``moved`` is 1 when the begin will be answered with REDIRECT."""
        record = self.leases.get(request.client)
        open_ids = record.api.open_ids() if record is not None else []
        period = record.api.period(open_ids[0]) if len(open_ids) == 1 else None
        if period is None or not self._movable(period):
            return Decision(protocol.ok_reply(request.id, moved=0))
        # Cancel now, so no admission can land on the period before its
        # parked begin is woken to answer with the REDIRECT.
        woken = self._cancel(record, period.pp_id)
        self._moved[period.pp_id] = request.raw["shard"]
        return Decision(
            protocol.ok_reply(request.id, moved=1), woken=[*woken, period]
        )

    def stats(self, session: Any, request: protocol.Request) -> Decision:
        stats = self.metrics.snapshot()
        sanitizer = self.sanitizer
        stats["sanitizer"] = (
            None
            if sanitizer is None
            else {"ok": sanitizer.ok, "violations": len(sanitizer.violations)}
        )
        return Decision(protocol.ok_reply(request.id, stats=stats))

    def drain(self, session: Any, request: protocol.Request) -> Decision:
        # The listener starts the drain once this reply is written, so the
        # caller always hears back.
        return Decision(protocol.ok_reply(
            request.id,
            draining=True,
            open_periods=len(self.registry),
            waiting=len(self.waitlist),
        ))

    # ------------------------------------------------------------------
    # events that are not verbs, and the release path
    # ------------------------------------------------------------------
    def park_ended(
        self,
        session: Any,
        request: protocol.Request,
        period: ProgressPeriod,
        disconnected: bool,
    ) -> Decision:
        """The verdict on a parked begin once its wait ends: the client
        went away (``disconnected``), or the period's state tells whether
        it was admitted, moved, drained or timed out."""
        self.h_sojourn.observe(max(0.0, self.clock() - period.begin_time))
        moved_to = self._moved.pop(period.pp_id, None)
        if disconnected:
            # Client vanished while parked (or sent a frame the stream
            # cannot be re-synchronized after).  Anonymous periods are
            # cancelled outright; a lease-bound client may be reconnecting,
            # so its parked period is cancelled (the reply target is gone)
            # but re-issue by token is safe.
            session.closed = True
            self.c_disconnect_cancel.inc()
        elif moved_to is not None:  # migrate already cancelled the period
            return Decision(protocol.error_reply(
                request.id, ErrorCode.REDIRECT,
                f"moved to shard {moved_to.get('name')}; re-issue the begin",
                shard=moved_to,
            ))
        elif period.admit_time is not None:
            self.c_after_park.inc()
            self.h_park.observe(period.waited_s)
            self.note_usage()
            return Decision(self._admitted_reply(request.id, period))
        woken = self._cancel(session.record, period.pp_id) + self.rescue_starved()
        if disconnected:
            return Decision(None, woken=woken)  # no one left to reply to
        if self.draining:
            return Decision(protocol.error_reply(
                request.id, ErrorCode.DRAINING,
                "server drained while the period was parked; period cancelled",
            ), woken=woken)
        # The park timeout: the wait is shed, not failed — the period is
        # cancelled and the reply carries a retry hint.
        self.c_park_timeout.inc()
        park_timeout_s = self.cfg.park_timeout_s
        return Decision(protocol.error_reply(
            request.id, ErrorCode.PARK_TIMEOUT,
            f"parked past the {park_timeout_s} s park timeout; "
            "period cancelled",
            waited_s=park_timeout_s,
            retry_after_s=self._retry_hint_s(),
        ), woken=woken)

    def end_session(self, session: Any) -> Decision:
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
        cancelled, woken = self._cancel_open(
            record, lambda p: record.anonymous or p.state is PeriodState.WAITING
        )
        self.c_disconnect_cancel.inc(cancelled)
        return Decision(None, woken=woken + self.rescue_starved())

    def reap(self) -> Decision:
        """One reaper pass over every expired lease.

        A dead client (no live connection) is fully reclaimed: all of its
        periods are cancelled and the record forgotten.  A *live* but
        silent client — a wedged proxy can hold a TCP session open long
        after the process died — loses its RUNNING periods (parked ones
        are already bounded by the park timeout) but keeps its record, so
        a late frame still speaks for a known identity.
        """
        woken: List[ProgressPeriod] = []
        for record in self.leases.expired():
            dead = record.session is None or record.session.closed
            reclaimed, admitted = self._cancel_open(
                record, lambda p: dead or p.state is PeriodState.RUNNING
            )
            woken += admitted
            if reclaimed:
                self.c_leases_reclaimed.inc()
                self.c_lease_periods.inc(reclaimed)
            if dead:
                self.leases.forget(record)
            else:
                self.leases.renew(record)  # one reclaim per lapse, not per pass
        return Decision(None, woken=woken + self.rescue_starved())

    def _cancel_open(
        self, record: ClientRecord, doomed: Callable[[ProgressPeriod], bool]
    ) -> Tuple[int, List[ProgressPeriod]]:
        """Cancel the record's open periods that ``doomed`` picks, oldest
        first, each judged as it is reached (a release may admit a later
        one); returns how many, and the waiters their releases admitted."""
        cancelled, woken = 0, []
        for pp_id in record.api.open_ids():
            if doomed(record.api.period(pp_id)):
                cancelled += 1
                woken += self._cancel(record, pp_id)
        return cancelled, woken

    def _cancel(self, record: ClientRecord, pp_id: int) -> List[ProgressPeriod]:
        """Cancel one period with full bookkeeping: token, prediction,
        journal, charge; returns the waiters its release admitted.

        Tolerates a period that is already gone (e.g. a takeover cancelled
        it just before the old connection's EOF path runs) — cancellation
        paths race by design and the loser must be a no-op.
        """
        record.drop_token(pp_id)
        self._predictions.pop(pp_id, None)
        try:
            record.api.period(pp_id)
        except ProgressPeriodError:
            return []
        self.journal_close(pp_id)
        return self._journaled(record.api.pp_cancel(pp_id))

    def _journaled(self, admitted: List[ProgressPeriod]) -> List[ProgressPeriod]:
        """Write ahead admissions off the waitlist before their wake."""
        for period in admitted:
            self.journal_admit(period)
        return admitted


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


def _resolve(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


class AdmissionServer(Listener):
    """One admission shard: it carries each request to its
    :class:`AdmissionService` and each :class:`Decision` back (the reply,
    a begin parked on a future, the parked begins to wake), and runs the
    lease reaper's timer.  It holds sockets, futures and timers only."""

    session_class = ShardSession

    def __init__(self, cfg: ServeConfig) -> None:
        self.service = AdmissionService(cfg)
        super().__init__(
            cfg,
            self.service.metrics,
            idle_timeout_s=cfg.idle_timeout_s,
            write_timeout_s=cfg.write_timeout_s,
        )
        self.service.c_protocol_errors = self.c_protocol_errors
        #: pp_id -> the future a parked begin waits on
        self._parked: Dict[int, "asyncio.Future[None]"] = {}
        #: True once abort() ran — a supervisor restarting this shard
        #: must skip the graceful drain (the journal handle is already
        #: abandoned and the transports are gone)
        self.aborted = False
        self.verbs = dict.fromkeys(protocol.VERBS, self._decide)

    # ------------------------------------------------------------------
    # listener hooks
    # ------------------------------------------------------------------
    def _background_loops(self) -> List[Awaitable[None]]:
        return [self._lease_loop()]

    def _end_session(self, session: ShardSession) -> None:
        self._carry(self.service.end_session(session))

    async def _wind_down(self) -> None:
        """Wake every parked begin (the service answers it DRAINING), then
        give running periods the grace budget to pp_end naturally."""
        self.service.draining = True
        for future in self._parked.values():
            _resolve(future)
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._settled(), self.cfg.drain_grace_s)

    async def _settled(self) -> None:
        while len(self.service.registry) > 0:
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
        for session in list(self.sessions):
            session.close(abort=True)
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)

    async def _lease_loop(self) -> None:
        """The lease reaper's timer."""
        while True:
            await asyncio.sleep(self.cfg.lease_check_s)
            self._carry(self.service.reap())

    async def _decide(
        self, session: ShardSession, request: protocol.Request
    ) -> Optional[Dict[str, Any]]:
        """Every verb: the service decides, the server carries it out."""
        decision = self.service.decide(session, request)
        reply = self._carry(decision)
        if decision.park is not None:
            reply = self._carry(await self._park(session, request, decision.park))
        return reply

    def _carry(self, decision: Decision) -> Optional[Dict[str, Any]]:
        """Wake the parked begins the decision names; return its reply."""
        for period in decision.woken:
            future = self._parked.get(period.pp_id)
            if future is not None:
                _resolve(future)
        return decision.reply

    async def _park(
        self,
        session: ShardSession,
        request: protocol.Request,
        period: ProgressPeriod,
    ) -> Decision:
        """Hold the begin until it is woken, its park timeout fires or its
        client disconnects, then ask the service for the verdict.  Frames
        the client pipelines meanwhile stay queued in the framer, renew the
        lease as they arrive, and are served after the deferred reply."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()
        self._parked[period.pp_id] = future
        timeout = self.cfg.park_timeout_s
        timer = None if timeout is None else loop.call_later(
            timeout, _resolve, future
        )
        framer = session.framer
        try:
            while not (framer.ended or future.done()):
                arrival = framer.arrival()
                await asyncio.wait(
                    {future, arrival}, return_when=asyncio.FIRST_COMPLETED
                )
                if arrival.done() and not framer.ended:
                    self.service.alive(session)
        finally:
            if timer is not None:
                timer.cancel()
            del self._parked[period.pp_id]
        return self.service.park_ended(session, request, period, framer.ended)
