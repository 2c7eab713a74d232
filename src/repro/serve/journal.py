"""Crash-safe admission journal: a write-ahead log for the serve ledger.

The kernel's RDA layer never outlives its charges — a dead process is
reaped and its LLC demand implicitly released.  The admission *service* is
a user-space daemon, so a crash would otherwise lose the entire charge
ledger and strand every running application.  This module gives the
service durability:

* **Append-only NDJSON log.**  Every admitted progress period of a
  lease-bound client is recorded (``admit``) the moment its demand is
  charged, and closed (``close``) when the demand is released — by
  ``pp_end``, ``pp_cancel`` or the lease reaper.  One JSON object per
  line, written before the reply leaves the server, so a reply the client
  observed is always recoverable.
* **fsync batching.**  Each record is written+flushed immediately;
  ``fsync`` either follows synchronously (``fsync_interval_s <= 0``, the
  durable default) or is batched on a timer so a busy server pays one disk
  sync per interval instead of one per admission.  A crash inside the
  batching window loses at most ``fsync_interval_s`` of events — clients
  re-issue those begins with their idempotency tokens.
* **Snapshot + truncate compaction.**  The live state is tiny (open
  admitted periods); every ``compact_every`` events the log is atomically
  rewritten as a single ``snap`` record so it never grows with traffic.
* **Tolerant replay.**  ``replay_journal`` rebuilds the open set.  A torn
  final line (the classic power-cut artifact) is ignored; corruption
  anywhere else raises :class:`~repro.errors.JournalError` rather than
  silently reviving a wrong ledger.  A torn *snapshot* record is never
  tolerated: snapshots only ever reach the log through an fsync-then-
  atomic-rename, so a partial one cannot be a benign crash artifact — it
  is real corruption, and dropping it would silently lose the whole open
  set.
* **Crash-safe compaction.**  ``_rewrite_snapshot`` writes the snapshot
  to a pid-suffixed temp file, fsyncs it, atomically renames it over the
  log, then fsyncs the directory so the rename itself is durable.  A
  crash at any point leaves either the old log or the new one — never a
  partial snapshot — and ``recover`` sweeps up temp files the crash
  stranded.

The journal stores *admitted* periods only.  Parked (WAITING) periods
hold no capacity and their owners are blocked on a reply that died with
the old process — after a restart those clients reconnect and re-issue
``pp_begin``, deduplicated by token against the replayed open set.
"""

from __future__ import annotations

import asyncio
import json
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import JournalError

__all__ = [
    "JOURNAL_VERSION",
    "AdmitRecord",
    "JournalState",
    "replay_journal",
    "AdmissionJournal",
]

#: bump on incompatible record-shape changes
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class AdmitRecord:
    """One admitted progress period, as persisted in the journal."""

    pp_id: int
    client: str
    resource: str
    demand_bytes: int
    reuse: str
    sharing_key: Optional[str]
    label: str
    forced: bool
    token: Optional[str]

    def to_frame(self) -> Dict[str, Any]:
        return {
            "k": "admit",
            "pp": self.pp_id,
            "client": self.client,
            "res": self.resource,
            "demand": self.demand_bytes,
            "reuse": self.reuse,
            "share": self.sharing_key,
            "label": self.label,
            "forced": self.forced,
            "token": self.token,
        }

    @classmethod
    def from_frame(cls, frame: Dict[str, Any]) -> "AdmitRecord":
        try:
            return cls(
                pp_id=int(frame["pp"]),
                client=str(frame["client"]),
                resource=str(frame["res"]),
                demand_bytes=int(frame["demand"]),
                reuse=str(frame["reuse"]),
                sharing_key=frame.get("share"),
                label=str(frame.get("label", "")),
                forced=bool(frame.get("forced", False)),
                token=frame.get("token"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed admit record: {exc}") from None


#: one learned demand sample: (client, sharing-key-or-label, declared, observed)
ObsSample = Tuple[str, str, int, int]


@dataclass
class JournalState:
    """What replay recovered: the open admitted set and id high-water."""

    open: Dict[int, AdmitRecord]
    max_pp_id: int
    events_replayed: int
    #: demand-estimator samples, in append order (oldest first) — re-fed
    #: to the prediction subsystem so learned state survives restarts
    obs: List[ObsSample] = field(default_factory=list)


def _parse_obs(frame_or_entry: Any, where: str) -> ObsSample:
    try:
        client, skey, declared, observed = (
            frame_or_entry["client"],
            frame_or_entry["key"],
            frame_or_entry["x"],
            frame_or_entry["y"],
        )
        return (str(client), str(skey), int(declared), int(observed))
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"malformed obs record in {where}: {exc}") from None


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode one journal line; ``None`` for an undecodable (torn) line."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


#: a snapshot record as serialized by ``_rewrite_snapshot`` always starts
#: with these 7 bytes and no append kind (admit, close, resize, obs) does;
#: used to tell a torn snapshot from a torn append.  Cuts of 1-6 bytes,
#: ``{"k":"`` or less, are shared by every kind and stay a torn tail.
_SNAP_PREFIX = b'{"k":"s'


def replay_journal(path: str) -> JournalState:
    """Rebuild the open admitted set from a journal file.

    Missing file → empty state (first boot).  A torn *final* line is
    dropped; an undecodable line anywhere else is corruption and raises
    :class:`JournalError`.  A torn final line that is a snapshot record
    also raises: snapshots reach the log only through fsync + atomic
    rename (never through an interruptible append), so a partial one
    means the file itself was damaged, and tolerating it would silently
    drop every open period the snapshot carried.  A line is a snapshot
    from its 7th byte on (``{"k":"s``); a cut within the first 6 bytes
    cannot be told from a torn append, so it is dropped as one.
    """
    state = JournalState(open={}, max_pp_id=0, events_replayed=0)
    if not os.path.exists(path):
        return state
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    # split() leaves one trailing empty element when the file ends in \n
    if lines and lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines):
        frame = _parse_line(line)
        if frame is None:
            if line.startswith(_SNAP_PREFIX):
                raise JournalError(
                    f"{path}: partial snapshot record at line {i + 1} "
                    "(snapshots are written atomically; this is corruption, "
                    "not a torn append)"
                )
            if i == len(lines) - 1:
                break  # torn tail from a crash mid-append: tolerated
            raise JournalError(
                f"{path}: undecodable record at line {i + 1} "
                "(corruption before the final line)"
            )
        kind = frame.get("k")
        state.events_replayed += 1
        if kind == "snap":
            if frame.get("v") not in (None, JOURNAL_VERSION):
                raise JournalError(
                    f"{path}: snapshot version {frame.get('v')!r} "
                    f"unsupported (this build speaks v{JOURNAL_VERSION})"
                )
            state.open = {}
            for entry in frame.get("open", ()):
                record = AdmitRecord.from_frame(entry)
                state.open[record.pp_id] = record
                state.max_pp_id = max(state.max_pp_id, record.pp_id)
            state.obs = [_parse_obs(entry, path) for entry in frame.get("obs", ())]
        elif kind == "admit":
            record = AdmitRecord.from_frame(frame)
            state.open[record.pp_id] = record
            state.max_pp_id = max(state.max_pp_id, record.pp_id)
        elif kind == "close":
            pp_id = frame.get("pp")
            if not isinstance(pp_id, int):
                raise JournalError(f"{path}: close record without 'pp'")
            # A close for an unknown pp is possible when its admit sat in
            # a torn tail of the *previous* incarnation; ignore it.
            state.open.pop(pp_id, None)
            state.max_pp_id = max(state.max_pp_id, pp_id)
        elif kind == "resize":
            pp_id = frame.get("pp")
            demand = frame.get("demand")
            if not isinstance(pp_id, int) or not isinstance(demand, int):
                raise JournalError(f"{path}: malformed resize record")
            # Like close: the admit may have died in a prior torn tail.
            record = state.open.get(pp_id)
            if record is not None:
                state.open[pp_id] = replace(record, demand_bytes=demand)
        elif kind == "obs":
            state.obs.append(_parse_obs(frame, path))
        else:
            raise JournalError(f"{path}: unknown record kind {kind!r}")
    return state


class AdmissionJournal:
    """The append side of the write-ahead log (single event loop writer)."""

    def __init__(
        self,
        path: str,
        fsync_interval_s: float = 0.0,
        compact_every: int = 1000,
        obs_history: int = 32,
    ) -> None:
        if compact_every < 1:
            raise JournalError("compact_every must be >= 1")
        self.path = path
        self.fsync_interval_s = fsync_interval_s
        self.compact_every = compact_every
        #: live admitted entries — mirrors the server's RUNNING journaled set
        self.open: Dict[int, AdmitRecord] = {}
        #: newest demand samples per (client, key), carried across
        #: compactions so the estimator's learned state survives restarts
        self.obs_history = obs_history
        self.obs: Dict[Tuple[str, str], Deque[Tuple[int, int]]] = {}
        self.events_total = 0
        self.syncs_total = 0
        self.compactions_total = 0
        self._fh = None
        self._events_since_compact = 0
        self._sync_handle: Optional[asyncio.TimerHandle] = None
        self._dirty = False
        self._dead = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def recover(self) -> JournalState:
        """Replay the existing log, then compact it and open for append."""
        self._sweep_stale_tmp()
        state = replay_journal(self.path)
        self.open = dict(state.open)
        self.obs = {}
        for client, skey, declared, observed in state.obs:
            self._store_obs(client, skey, declared, observed)
        self._rewrite_snapshot()
        return state

    def _store_obs(
        self, client: str, skey: str, declared: int, observed: int
    ) -> None:
        ring = self.obs.get((client, skey))
        if ring is None:
            ring = self.obs[(client, skey)] = deque(maxlen=self.obs_history)
        ring.append((declared, observed))

    def _sweep_stale_tmp(self) -> None:
        """Remove temp snapshots a crash left behind mid-compaction.

        A crash between writing ``<path>.tmp.<pid>`` and renaming it
        strands the temp file; the log itself is still the previous
        (valid) incarnation.  The stale temp is garbage — a *different*
        process's pid may even collide with ours later — so sweep all of
        them before replaying.
        """
        directory = os.path.dirname(self.path) or "."
        prefix = os.path.basename(self.path) + ".tmp."
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in names:
            if name.startswith(prefix):
                with_dir = os.path.join(directory, name)
                try:
                    os.unlink(with_dir)
                except OSError:
                    pass

    def close(self) -> None:
        """Clean shutdown: flush, sync, close.  The open set is *kept* on
        disk — a drained server that still held running periods restores
        them on the next boot."""
        self._dead = True
        if self._fh is None:
            return
        self._cancel_scheduled_sync()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None

    def abandon(self) -> None:
        """Crash-simulation shutdown: drop the handle without syncing.

        Also poisons the append path — any state mutation the dying
        process still performs (e.g. cleanup of parked handlers) must not
        reach a log that a real SIGKILL would have left untouched.
        """
        self._dead = True
        self._cancel_scheduled_sync()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def record_admit(self, record: AdmitRecord) -> None:
        """Persist one admission.  Idempotent per ``pp_id``."""
        if record.pp_id in self.open:
            return
        self.open[record.pp_id] = record
        self._append(record.to_frame())

    def record_close(self, pp_id: int) -> bool:
        """Persist the release of a journaled period.

        Returns ``False`` (and writes nothing) when the period was never
        journaled — anonymous clients and parked periods have no admit
        record to balance.
        """
        if pp_id not in self.open:
            return False
        del self.open[pp_id]
        self._append({"k": "close", "pp": pp_id})
        return True

    def record_resize(self, pp_id: int, new_demand_bytes: int) -> bool:
        """Persist an elastic resize of a journaled open period.

        Replay rewrites the open admit record's demand so a post-crash
        restore charges what was actually reserved at the time of death.
        Returns ``False`` for periods that were never journaled.
        """
        record = self.open.get(pp_id)
        if record is None:
            return False
        self.open[pp_id] = replace(record, demand_bytes=new_demand_bytes)
        self._append({"k": "resize", "pp": pp_id, "demand": new_demand_bytes})
        return True

    def record_obs(
        self, client: str, skey: str, declared_bytes: int, observed_bytes: int
    ) -> None:
        """Persist one demand-estimator sample (learned state)."""
        self._store_obs(client, skey, declared_bytes, observed_bytes)
        self._append(
            {
                "k": "obs",
                "client": client,
                "key": skey,
                "x": int(declared_bytes),
                "y": int(observed_bytes),
            }
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _ensure_fh(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
            self._lock_fh(self._fh)
        return self._fh

    def _lock_fh(self, fh) -> None:
        """Advisory single-writer lock on the append handle.

        A supervised restart hands the journal from the dying shard
        incarnation to its replacement; the handoff is sequenced, but a
        bug (or an operator starting a second shard on the same journal)
        would interleave two incarnations' appends and corrupt the log.
        ``flock`` conflicts per open file description, so it also
        catches a double incarnation inside one process.  The kernel
        drops the lock when the fd closes — including on SIGKILL — so a
        crashed incarnation never wedges its successor.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-unix
            return
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh.close()
            raise JournalError(
                f"{self.path}: journal is locked by another live shard "
                f"incarnation"
            ) from None

    def _append(self, frame: Dict[str, Any]) -> None:
        if self._dead:
            return
        fh = self._ensure_fh()
        fh.write(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
        fh.flush()
        self.events_total += 1
        self._events_since_compact += 1
        if self.fsync_interval_s <= 0:
            os.fsync(fh.fileno())
            self.syncs_total += 1
        else:
            self._dirty = True
            self._schedule_sync()
        if self._events_since_compact >= self.compact_every:
            self._rewrite_snapshot()

    def sync(self) -> None:
        """Force any batched records to disk now."""
        self._cancel_scheduled_sync()
        if self._fh is not None and self._dirty:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.syncs_total += 1
            self._dirty = False

    def _schedule_sync(self) -> None:
        if self._sync_handle is not None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            # no loop (unit tests, replay-time writes): sync immediately
            self.sync()
            return
        self._sync_handle = loop.call_later(self.fsync_interval_s, self._on_timer)

    def _on_timer(self) -> None:
        self._sync_handle = None
        self.sync()

    def _cancel_scheduled_sync(self) -> None:
        if self._sync_handle is not None:
            self._sync_handle.cancel()
            self._sync_handle = None

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _rewrite_snapshot(self) -> None:
        """Atomically replace the log with one snapshot of the open set."""
        self._cancel_scheduled_sync()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        snap: Dict[str, Any] = {
            "k": "snap",
            "v": JOURNAL_VERSION,
            "open": [r.to_frame() for r in self.open.values()],
        }
        if self.obs:
            snap["obs"] = [
                {"client": client, "key": skey, "x": x, "y": y}
                for (client, skey), ring in self.obs.items()
                for x, y in ring
            ]
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(snap, separators=(",", ":")).encode() + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        # The rename is atomic but not yet durable: fsync the directory so
        # a power cut cannot resurrect the pre-compaction log *and* the
        # temp file.  Either the old log or the new one survives — never a
        # partial snapshot (replay_journal enforces the same contract).
        self._fsync_dir()
        self._events_since_compact = 0
        self._dirty = False
        self.compactions_total += 1

    def _fsync_dir(self) -> None:
        directory = os.path.dirname(self.path) or "."
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds: rename-only durability
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    def compact(self) -> None:
        """Public compaction hook (tests, admin tooling)."""
        self._rewrite_snapshot()
