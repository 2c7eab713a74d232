"""Property: replaying the admission journal rebuilds exactly the live ledger.

A Hypothesis state machine drives one :class:`AdmissionJournal` alone (no
server, no event loop) through random admits, closes, resizes, demand
samples, compactions and reopens.  After every step ``replay_journal`` of
the file must equal the journal's live ``open`` map and its per-key obs
rings.  After every append, the file is cut at each byte of that append,
as a crash mid-write would leave it: replay must give the ledger from
before the append or the one after it, never an error and never a third
ledger.  A torn line with another line after it is corruption, not a
crash artifact, so replay must refuse it; so is a cut snapshot, which
only ever reaches the log through fsync and an atomic rename.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import JournalError
from repro.serve.journal import AdmissionJournal, AdmitRecord, replay_journal

#: small, so a few steps fill a ring and trigger an automatic compaction
OBS_HISTORY = 3
COMPACT_EVERY = 6
#: how every snapshot record starts, and no other record kind; a cut
#: shorter than this is not recognisable as a snapshot
SNAP_PREFIX = b'{"k":"s'

clients = st.sampled_from(["c1", "c2"])
keys = st.sampled_from(["k1", "k2", "pp-é"])
sizes = st.integers(min_value=0, max_value=1 << 40)


def live_ledger(journal: AdmissionJournal):
    return dict(journal.open), {k: list(ring) for k, ring in journal.obs.items()}


def replayed_ledger(path: str):
    """Replay ``path``, folding its demand samples into per-key rings."""
    state = replay_journal(path)
    rings = {}
    for client, skey, declared, observed in state.obs:
        ring = rings.setdefault((client, skey), deque(maxlen=OBS_HISTORY))
        ring.append((declared, observed))
    return state.open, {k: list(ring) for k, ring in rings.items()}


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


class JournalMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="journal-property-")
        self.path = os.path.join(self.dir, "journal.ndjson")
        self.cut = os.path.join(self.dir, "cut.ndjson")
        self.journal = self._open()
        self.next_pp = 1

    def _open(self) -> AdmissionJournal:
        journal = AdmissionJournal(
            self.path, compact_every=COMPACT_EVERY, obs_history=OBS_HISTORY
        )
        journal.recover()
        return journal

    def teardown(self) -> None:
        self.journal.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------
    def _appending(self, step) -> None:
        """Run ``step``; then cut the file at every byte of what it wrote."""
        before_bytes, before = read(self.path), live_ledger(self.journal)
        step()
        after_bytes, after = read(self.path), live_ledger(self.journal)
        if after_bytes == before_bytes:
            return  # an idempotent no-op wrote nothing
        if not after_bytes.startswith(before_bytes):
            self._check_snapshot_cuts(after_bytes)  # the append compacted
            return
        appended = after_bytes[len(before_bytes):]
        assert appended.endswith(b"\n") and appended.count(b"\n") == 1
        write(self.cut, after_bytes)
        for k in range(len(appended), -1, -1):
            os.truncate(self.cut, len(before_bytes) + k)
            got = replayed_ledger(self.cut)
            assert got == before or got == after, f"cut {k}/{len(appended)}"
        assert replayed_ledger(self.cut) == before
        # the same torn line followed by a further record is corruption
        torn = appended[: len(appended) // 2]
        write(self.cut, before_bytes + torn + b"\n" + appended)
        with pytest.raises(JournalError, match="undecodable"):
            replay_journal(self.cut)

    def _check_snapshot_cuts(self, data: bytes) -> None:
        """A log just compacted is one snapshot line; a cut of it raises.

        The cuts run from the end of the record's ``{"k":"s`` prefix to
        its last byte but one, at about 64 points spread over the line.
        """
        assert data.startswith(SNAP_PREFIX) and data.count(b"\n") == 1
        write(self.cut, data)
        last = len(data) - 2  # the line without its closing brace
        stride = max(1, (last - len(SNAP_PREFIX)) // 64)
        for n in [last, *range(last - stride, len(SNAP_PREFIX) - 1, -stride)]:
            os.truncate(self.cut, n)
            with pytest.raises(JournalError, match="partial snapshot"):
                replay_journal(self.cut)

    # ------------------------------------------------------------------
    @rule(client=clients, demand=sizes, reuse=st.sampled_from(["low", "high"]),
          share=st.none() | keys, label=st.text(max_size=6), forced=st.booleans(),
          token=st.none() | st.text(max_size=4))
    def admit(self, client, demand, reuse, share, label, forced, token):
        record = AdmitRecord(
            pp_id=self.next_pp, client=client, resource="llc",
            demand_bytes=demand, reuse=reuse, sharing_key=share, label=label,
            forced=forced, token=token,
        )
        self.next_pp += 1
        self._appending(lambda: self.journal.record_admit(record))

    @precondition(lambda self: self.journal.open)
    @rule(data=st.data())
    def readmit(self, data):
        # idempotent per pp_id: nothing is written
        pp_id = data.draw(st.sampled_from(sorted(self.journal.open)))
        self._appending(lambda: self.journal.record_admit(self.journal.open[pp_id]))

    @rule(data=st.data())
    def close(self, data):
        pp_id = data.draw(st.sampled_from(sorted(self.journal.open) + [self.next_pp]))
        self._appending(lambda: self.journal.record_close(pp_id))

    @rule(data=st.data(), demand=sizes)
    def resize(self, data, demand):
        pp_id = data.draw(st.sampled_from(sorted(self.journal.open) + [self.next_pp]))
        self._appending(lambda: self.journal.record_resize(pp_id, demand))

    @rule(client=clients, key=keys, declared=sizes, observed=sizes)
    def obs(self, client, key, declared, observed):
        self._appending(
            lambda: self.journal.record_obs(client, key, declared, observed)
        )

    @rule()
    def compact(self):
        self.journal.compact()
        self._check_snapshot_cuts(read(self.path))

    @rule()
    def reopen(self):
        before = live_ledger(self.journal)
        self.journal.close()
        self.journal = self._open()
        assert live_ledger(self.journal) == before

    # ------------------------------------------------------------------
    @invariant()
    def replay_equals_live_ledger(self):
        assert replayed_ledger(self.path) == live_ledger(self.journal)


JournalMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestJournalReplayEqualsLedger = JournalMachine.TestCase
