"""Crash-safe admission journal: replay, compaction, corruption handling."""

import json

import pytest

from repro.errors import JournalError
from repro.serve.journal import (
    JOURNAL_VERSION,
    AdmissionJournal,
    AdmitRecord,
    replay_journal,
)


def record(pp_id: int, client: str = "c1", token: str = None) -> AdmitRecord:
    return AdmitRecord(
        pp_id=pp_id,
        client=client,
        resource="llc",
        demand_bytes=1024 * pp_id,
        reuse="high",
        sharing_key=None,
        label=f"pp{pp_id}",
        forced=False,
        token=token or f"tok{pp_id}",
    )


class TestAdmitRecord:
    def test_frame_round_trip(self):
        rec = record(7, token="abc")
        assert AdmitRecord.from_frame(rec.to_frame()) == rec

    def test_malformed_frame_raises(self):
        with pytest.raises(JournalError):
            AdmitRecord.from_frame({"k": "admit", "client": "x"})


class TestReplay:
    def test_missing_file_is_empty_state(self, tmp_path):
        state = replay_journal(str(tmp_path / "nope.ndjson"))
        assert state.open == {}
        assert state.max_pp_id == 0
        assert state.events_replayed == 0

    def test_admit_then_close_balances_out(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.record_admit(record(2))
        assert journal.record_close(1) is True
        journal.close()

        state = replay_journal(path)
        assert set(state.open) == {2}
        assert state.open[2].demand_bytes == 2048
        assert state.max_pp_id == 2

    def test_close_of_unjournaled_period_writes_nothing(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        assert journal.record_close(99) is False
        assert journal.events_total == 0

    def test_admit_is_idempotent_per_pp_id(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(5))
        journal.record_admit(record(5))  # the re-issued begin, deduped
        assert journal.events_total == 1
        journal.close()
        assert len(replay_journal(path).open) == 1

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.record_admit(record(2))
        journal.abandon()  # crash: no clean close
        with open(path, "ab") as fh:
            fh.write(b'{"k":"admit","pp":3,"cli')  # power cut mid-append

        state = replay_journal(path)
        assert set(state.open) == {1, 2}

    def test_corruption_before_final_line_raises(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        good = json.dumps(record(1).to_frame()).encode()
        with open(path, "wb") as fh:
            fh.write(b"garbage\n" + good + b"\n")
        with pytest.raises(JournalError, match="line 1"):
            replay_journal(path)

    def test_unknown_record_kind_raises(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        with open(path, "wb") as fh:
            fh.write(b'{"k":"mystery"}\n')
        with pytest.raises(JournalError, match="mystery"):
            replay_journal(path)

    def test_close_for_unknown_pp_is_ignored(self, tmp_path):
        # its admit died in the previous incarnation's torn tail
        path = str(tmp_path / "j.ndjson")
        with open(path, "wb") as fh:
            fh.write(b'{"k":"close","pp":9}\n')
        state = replay_journal(path)
        assert state.open == {}
        assert state.max_pp_id == 9  # still advances the id high-water


class TestCompaction:
    def test_log_never_grows_with_traffic(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path, compact_every=10)
        for i in range(1, 101):
            journal.record_admit(record(i))
            journal.record_close(i)
        journal.close()
        with open(path, "rb") as fh:
            lines = [ln for ln in fh.read().split(b"\n") if ln]
        # everything closed: the compacted log is a single empty snapshot
        assert len(lines) <= 10
        assert journal.compactions_total >= 9
        assert replay_journal(path).open == {}

    def test_snapshot_preserves_open_set(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.record_admit(record(2))
        journal.compact()
        journal.record_close(1)
        journal.close()

        state = replay_journal(path)
        assert set(state.open) == {2}
        first = json.loads(open(path, "rb").readline())
        assert first["k"] == "snap" and first["v"] == JOURNAL_VERSION

    def test_future_snapshot_version_rejected(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        with open(path, "wb") as fh:
            fh.write(b'{"k":"snap","v":999,"open":[]}\n')
        with pytest.raises(JournalError, match="999"):
            replay_journal(path)

    def test_recover_compacts_on_boot(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        for i in range(1, 6):
            journal.record_admit(record(i))
        journal.record_close(3)
        journal.abandon()

        reborn = AdmissionJournal(path)
        state = reborn.recover()
        assert set(state.open) == {1, 2, 4, 5}
        assert set(reborn.open) == {1, 2, 4, 5}
        # recovery rewrote the log as one snapshot line
        with open(path, "rb") as fh:
            lines = [ln for ln in fh.read().split(b"\n") if ln]
        assert len(lines) == 1
        reborn.close()


class TestCrashDiscipline:
    def test_abandon_poisons_the_append_path(self, tmp_path):
        # a dying process must not journal its own teardown
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.abandon()
        journal.record_close(1)  # e.g. cleanup of a parked handler
        assert set(replay_journal(path).open) == {1}

    def test_second_live_incarnation_is_locked_out(self, tmp_path):
        # restart handoff discipline: while one incarnation holds the
        # journal, a second one must refuse to append to the same file
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        usurper = AdmissionJournal(path)
        with pytest.raises(JournalError, match="locked"):
            usurper.record_admit(record(2))
        journal.close()
        # ... and the lock dies with the holder's file handle
        successor = AdmissionJournal(path)
        successor.record_admit(record(2))
        assert set(replay_journal(path).open) == {1, 2}
        successor.close()

    def test_abandon_releases_the_lock(self, tmp_path):
        # SIGKILL analogue: an abandoned handle must not lock out the
        # restarted incarnation
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.abandon()
        reborn = AdmissionJournal(path)
        reborn.record_admit(record(2))
        assert set(replay_journal(path).open) == {1, 2}
        reborn.close()

    def test_fsync_batching_keeps_every_flushed_record(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path, fsync_interval_s=60.0)
        journal.record_admit(record(1))
        journal.record_admit(record(2))
        # records are flushed per append even when fsync is batched
        assert len(replay_journal(path).open) == 2
        journal.sync()
        assert journal.syncs_total >= 1
        journal.close()


class TestSnapshotCrashSafety:
    def test_torn_snapshot_is_corruption_not_a_torn_tail(self, tmp_path):
        # a torn *append* at the tail is tolerated, but snapshots only
        # reach the log through fsync + atomic rename — a partial one can
        # only mean the file itself was damaged
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.record_admit(record(2))
        journal.compact()
        journal.close()
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # tear the snapshot line
        with pytest.raises(JournalError, match="partial snapshot"):
            replay_journal(path)

    @pytest.mark.parametrize("cut", [7, 8, 9, 10])
    @pytest.mark.parametrize("after_records", [False, True])
    def test_snapshot_cut_in_its_first_eleven_bytes_raises(
        self, tmp_path, cut, after_records
    ):
        # `{"k":"s` (7 bytes) already names a snapshot: no append kind
        # (admit, close, resize, obs) starts so.  `{"k":"` begins every
        # kind, so a 6-byte cut stays a torn append.
        snap = self._recovered_snapshot(tmp_path)
        head = self._records(tmp_path) if after_records else b""
        path = str(tmp_path / "cut.ndjson")
        with open(path, "wb") as fh:
            fh.write(head + snap[:6])
        state = replay_journal(path)
        assert set(state.open) == ({1, 2} if after_records else set())
        assert state.events_replayed == (2 if after_records else 0)
        with open(path, "wb") as fh:
            fh.write(head + snap[:cut])
        with pytest.raises(JournalError, match="partial snapshot"):
            replay_journal(path)

    @staticmethod
    def _recovered_snapshot(tmp_path) -> bytes:
        """The one snapshot line ``recover()`` leaves for a two-period log."""
        path = str(tmp_path / "snap.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.record_admit(record(2))
        journal.abandon()
        reborn = AdmissionJournal(path)
        reborn.recover()
        reborn.close()
        blob = open(path, "rb").read()
        assert blob.startswith(b'{"k":"snap"') and blob.count(b"\n") == 1
        return blob

    @staticmethod
    def _records(tmp_path) -> bytes:
        """Two whole admit lines, as a log holds them before a torn line."""
        path = str(tmp_path / "records.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.record_admit(record(2))
        journal.close()
        return open(path, "rb").read()

    def test_torn_tail_after_a_snapshot_is_still_tolerated(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.compact()
        journal.record_admit(record(2))
        journal.close()
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-9])  # tear the trailing admit mid-line
        state = replay_journal(path)
        assert set(state.open) == {1}

    def test_crash_inside_compaction_keeps_the_old_log(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.ndjson")
        journal = AdmissionJournal(path)
        journal.record_admit(record(1))
        journal.record_admit(record(2))

        import os as os_mod

        def boom(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr("repro.serve.journal.os.replace", boom)
        with pytest.raises(OSError):
            journal.compact()
        monkeypatch.undo()
        journal.abandon()

        # the old (pre-compaction) log is intact and replayable, and the
        # stranded temp snapshot is swept on the next recover
        assert any(
            name.startswith("j.ndjson.tmp.") for name in os_mod.listdir(tmp_path)
        )
        reborn = AdmissionJournal(path)
        state = reborn.recover()
        assert set(state.open) == {1, 2}
        assert not any(
            name.startswith("j.ndjson.tmp.") for name in os_mod.listdir(tmp_path)
        )
        reborn.close()

    def test_recover_sweeps_stale_temp_snapshots(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        # a previous incarnation (different pid) died mid-compaction
        stale = tmp_path / "j.ndjson.tmp.99999"
        stale.write_bytes(b'{"k":"snap","v":1,"open":[]}\n')
        journal = AdmissionJournal(path)
        journal.recover()
        assert not stale.exists()
        journal.close()
