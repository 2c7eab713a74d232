"""Client leases for the admission service.

In the paper's kernel, a process that dies is reaped by the OS and its
LLC charges are implicitly released.  The admission *service* only sees a
socket, so it needs an explicit liveness contract: every lease-bound
client holds a **lease** renewed implicitly by any frame it sends (parked
connections included) and explicitly by the ``heartbeat`` verb.  A
server-side reaper cancels the admitted periods of clients whose lease
expired — whether their connection died (crash) or silently wedged (a
proxy holding a dead TCP session open).

Identity is durable: a client introduces itself with ``hello`` + a client
id, and the same id presented on a *new* connection reattaches to any
periods that survived a disconnect or a server restart.  Idempotency
tokens on ``pp_begin`` make re-issue after a lost reply safe: a token
that already names an open admitted period returns that period instead of
charging twice.

Anonymous connections (no ``hello``) keep the original PR-3 semantics:
their periods live and die with the connection, and no lease applies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..core.api import ProgressPeriodApi

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .server import AdmissionService

__all__ = ["ClientRecord", "LeaseTable"]


class ClientRecord:
    """Per-client admission state: the figure-4 API bound to an identity.

    ``client_id is None`` marks an anonymous, connection-scoped record.
    Named records outlive their connection: the lease deadline starts
    ticking from the last frame received, and the reaper reclaims the
    record's admitted periods once it lapses.
    """

    def __init__(self, service: "AdmissionService", client_id: Optional[str]) -> None:
        self.client_id = client_id
        self.api = ProgressPeriodApi(service.monitor, owner=self)
        #: idempotency token -> open pp_id (admitted or parked)
        self.tokens: Dict[str, int] = {}
        self._token_of: Dict[int, str] = {}
        #: monotonic deadline after which the reaper may reclaim (None for
        #: anonymous records — they are cleaned up on disconnect instead)
        self.lease_deadline: Optional[float] = None
        #: the live connection currently speaking for this client, if any
        self.session = None

    @property
    def anonymous(self) -> bool:
        return self.client_id is None

    # ------------------------------------------------------------------
    def bind_token(self, token: Optional[str], pp_id: int) -> None:
        if token is None:
            return
        self.tokens[token] = pp_id
        self._token_of[pp_id] = token

    def drop_token(self, pp_id: int) -> None:
        token = self._token_of.pop(pp_id, None)
        if token is not None and self.tokens.get(token) == pp_id:
            del self.tokens[token]

    def token_of(self, pp_id: int) -> Optional[str]:
        return self._token_of.get(pp_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        who = self.client_id or "anonymous"
        return f"<client {who}: {self.api.open_count} open>"


class LeaseTable:
    """Named client records keyed by identity, plus lease bookkeeping."""

    def __init__(self, ttl_s: float, clock: Callable[[], float]) -> None:
        self.ttl_s = ttl_s
        self.clock = clock
        self.records: Dict[str, ClientRecord] = {}

    def __len__(self) -> int:
        return len(self.records)

    def get(self, client_id: str) -> Optional[ClientRecord]:
        return self.records.get(client_id)

    def get_or_create(
        self,
        client_id: str,
        make: Callable[[str], ClientRecord],
    ) -> tuple[ClientRecord, bool]:
        """Return ``(record, resumed)`` — resumed when the id was known."""
        record = self.records.get(client_id)
        if record is not None:
            return record, True
        record = make(client_id)
        self.records[client_id] = record
        self.renew(record)
        return record, False

    def renew(self, record: ClientRecord) -> None:
        """Push the record's reclaim deadline a full TTL into the future."""
        if not record.anonymous:
            record.lease_deadline = self.clock() + self.ttl_s

    def remaining_s(self, record: ClientRecord) -> Optional[float]:
        if record.lease_deadline is None:
            return None
        return max(0.0, record.lease_deadline - self.clock())

    def expired(self) -> List[ClientRecord]:
        """Named records whose lease deadline has lapsed."""
        now = self.clock()
        return [
            r
            for r in self.records.values()
            if r.lease_deadline is not None and r.lease_deadline <= now
        ]

    def forget(self, record: ClientRecord) -> None:
        if record.client_id is not None:
            self.records.pop(record.client_id, None)
