"""A failed chaos campaign leaves no server process behind.

A server that misses its start deadline makes the campaign raise; the
campaign's teardown must still kill and reap every ``repro serve``
subprocess it spawned, whatever the topology.
"""

import asyncio
import contextlib
import os
import signal

import pytest

from repro.errors import ServeError
from repro.serve.chaos import ChaosConfig, ServerProcess, run_chaos


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("kind", ["server", "overload", "cluster"])
def test_start_timeout_leaves_no_server_running(kind, tmp_path, monkeypatch):
    pids = []
    start = ServerProcess.start

    async def recording_start(self):
        try:
            await start(self)
        finally:
            if self.proc is not None:
                pids.append(self.proc.pid)

    monkeypatch.setattr(ServerProcess, "start", recording_start)
    cfg = ChaosConfig(kind=kind, shards=2, server_start_timeout_s=0.05)
    try:
        with pytest.raises(ServeError, match="not ready within"):
            asyncio.run(run_chaos(cfg, str(tmp_path)))
        assert pids, "the campaign spawned no server"
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
